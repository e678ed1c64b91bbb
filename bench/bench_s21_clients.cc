// §2.1 — the MDM as a shared server: N client threads reading one
// database concurrently (snapshot `before`/`under` queries through
// per-client QuelSessions) while one writer churns chord contents.
// Measures aggregate read throughput at 1/2/4/8 clients and reports the
// 8-vs-1 scaling factor. On a single-hardware-thread host the factor
// degenerates toward <= 1 (threads time-slice one core and pay latch
// traffic on top); the JSON line carries hw_threads so results are
// interpreted against the machine that produced them.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/strings.h"
#include "er/persist.h"
#include "net/connection.h"
#include "quel/quel.h"

namespace {

constexpr int kChords = 64;
constexpr int kNotesPerChord = 8;
double kSecondsPerPoint = 0.5;  // --smoke shrinks this

/// One reader's query mix: alternating ordering predicates and scans,
/// each a read of a freshly pinned snapshot.
const char* ReaderScript(uint64_t i) {
  switch (i % 3) {
    case 0:
      return "range of n1, n2 is NOTE\n"
             "retrieve (n1.name) where n1 before n2 in note_in_chord "
             "and n2.name = 4";
    case 1:
      return "range of n is NOTE\nrange of c is CHORD\n"
             "retrieve (n.name) where n under c in note_in_chord "
             "and c.name = 7";
    default:
      return "retrieve (k = count(NOTE.name))";
  }
}

/// Runs `threads` readers against `db` for a fixed wall-clock window
/// while one writer rotates notes between two chords; returns aggregate
/// completed read scripts per second.
double MeasureQps(mdm::er::Database* db, int threads) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> errors{0};

  std::thread writer([&] {
    auto h = *db->ResolveOrderingHandle("note_in_chord");
    auto c1 = db->Children(h, 1);
    if (!c1.ok() || c1->empty()) std::abort();
    while (!stop.load(std::memory_order_relaxed)) {
      mdm::er::WriteTxn txn(db);
      // Rotate chord 1: detach its first note and re-append it.
      auto kids = txn->Children(h, 1);
      if (!kids.ok() || kids->empty()) continue;
      if (!txn->RemoveChild(h, kids->front()).ok() ||
          !txn->AppendChild(h, 1, kids->front()).ok() || !txn.Commit().ok())
        errors.fetch_add(1);
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < threads; ++t) {
    readers.emplace_back([&, t] {
      mdm::quel::QuelSession session(db);
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        if (session.Execute(ReaderScript(t + i)).ok())
          reads.fetch_add(1, std::memory_order_relaxed);
        else
          errors.fetch_add(1);
      }
    });
  }

  auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(
      std::chrono::duration<double>(kSecondsPerPoint));
  stop.store(true);
  for (std::thread& t : readers) t.join();
  writer.join();
  double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (errors.load() != 0) {
    std::printf("WARNING: %llu failed operations\n",
                (unsigned long long)errors.load());
  }
  return static_cast<double>(reads.load()) / secs;
}

/// Writer throughput against a *journaled* database: kWriters committer
/// threads appending through Connection (each append = one statement
/// group = one commit that must reach the disk) while `readers`
/// snapshot-readers run alongside. With group commit OFF every commit
/// pays its own fsync inside the exclusive latch; ON, commit records
/// are appended under the latch and the fsync is batched in the
/// coordinator outside it — the write-path overhaul's headline number.
constexpr int kWriters = 8;
/// Group commit off/on is measured as this many back-to-back pairs per
/// reader count, the side that runs first alternating pair by pair, so
/// a drift across the run (page cache, thermal, a neighbour's load)
/// cannot favour one side; the on/off ratio is reported as its median
/// and its min/max over the pairs.
constexpr int kPairs = 5;

double MeasureWriterQps(const std::string& path, int readers,
                        bool group_commit) {
  auto remove_files = [&] {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    std::remove((path + ".wal").c_str());
  };
  remove_files();
  auto h = mdm::er::DurableDatabase::Open(path);
  if (!h.ok()) std::abort();
  if (group_commit)
    (*h)->EnableGroupCommit({/*interval_us=*/100, /*max_batch=*/64});
  mdm::er::Database* db = (*h)->db();
  {
    mdm::Connection setup = mdm::Connection::Local(db);
    if (!setup.Execute("define entity NOTE (name = integer)").ok())
      std::abort();
    if (!setup.Execute("append to NOTE (name = 0)").ok()) std::abort();
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> errors{0};

  std::vector<std::thread> writer_threads;
  for (int w = 0; w < kWriters; ++w) {
    writer_threads.emplace_back([&, w] {
      mdm::Connection conn = mdm::Connection::Local(db);
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        if (conn.Execute(
                    mdm::StrFormat("append to NOTE (name = %llu)",
                                   (unsigned long long)(w * 1000000 + i)))
                .ok())
          writes.fetch_add(1, std::memory_order_relaxed);
        else
          errors.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> reader_threads;
  for (int t = 0; t < readers; ++t) {
    reader_threads.emplace_back([&] {
      mdm::Connection conn = mdm::Connection::Local(db);
      while (!stop.load(std::memory_order_relaxed))
        (void)conn.Execute("retrieve (k = count(NOTE.name))");
    });
  }

  auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(
      std::chrono::duration<double>(kSecondsPerPoint));
  stop.store(true);
  for (std::thread& t : writer_threads) t.join();
  for (std::thread& t : reader_threads) t.join();
  double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (errors.load() != 0)
    std::printf("WARNING: %llu failed writes\n",
                (unsigned long long)errors.load());
  double qps = static_cast<double>(writes.load()) / secs;
  h->reset();  // close before removing the files
  remove_files();
  return qps;
}

}  // namespace

int main(int argc, char** argv) {
  if (mdm::bench::ConsumeSmokeFlag(&argc, argv))
    kSecondsPerPoint = 0.05;
  mdm::bench::PrintHeader(
      "§2.1 — concurrent MDM clients: read throughput vs client count",
      "fig 1's many-clients/one-server shape: N reader sessions + 1 "
      "writer against a shared music database");
  std::printf(
      "expect: near-linear read scaling up to the hardware thread count;\n"
      "beyond it, threads time-slice and the curve flattens (or dips from\n"
      "latch handoff). Reads stay snapshot-consistent throughout.\n\n");

  mdm::er::Database db =
      mdm::bench::MakeChordDb(kChords, kNotesPerChord);
  const unsigned hw = std::thread::hardware_concurrency();

  const int counts[] = {1, 2, 4, 8};
  double qps[4] = {};
  for (int i = 0; i < 4; ++i) {
    qps[i] = MeasureQps(&db, counts[i]);
    std::printf("%d reader(s) + 1 writer: %10.0f reads/s\n", counts[i],
                qps[i]);
  }
  double scaling = qps[0] > 0 ? qps[3] / qps[0] : 0.0;
  std::printf("\n8-vs-1 scaling: %.2fx (hardware threads: %u)\n", scaling,
              hw);
  std::printf(
      "BENCH_JSON {\"bench\": \"s21_clients\", \"chords\": %d, "
      "\"notes_per_chord\": %d, \"seconds_per_point\": %.2f, "
      "\"qps_1\": %.0f, \"qps_2\": %.0f, \"qps_4\": %.0f, "
      "\"qps_8\": %.0f, \"scaling_8v1\": %.3f, \"hw_threads\": %u}\n",
      kChords, kNotesPerChord, kSecondsPerPoint, qps[0], qps[1], qps[2],
      qps[3], scaling, hw);

  // --- writer throughput: WAL group commit on/off × 1/4/8 readers ----
  std::printf(
      "\nwriter throughput (journaled db, %d writer threads; commits "
      "must\nreach disk — group commit batches concurrent fsyncs, "
      "snapshot reads\nkeep readers off the latch):\n\n",
      kWriters);
  const std::string wpath = "bench_s21_writers.mdm";
  const int reader_counts[] = {1, 4, 8};
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  // Per reader count: median writes/s off and on, and the median, min
  // and max of the per-pair on/off ratio.
  double wqps_off[3] = {}, wqps_on[3] = {};
  double ratio_med[3] = {}, ratio_min[3] = {}, ratio_max[3] = {};
  for (int i = 0; i < 3; ++i) {
    std::vector<double> off, on, ratio;
    for (int p = 0; p < kPairs; ++p) {
      const bool on_first = p % 2 == 1;
      double first = MeasureWriterQps(wpath, reader_counts[i], on_first);
      double second = MeasureWriterQps(wpath, reader_counts[i], !on_first);
      off.push_back(on_first ? second : first);
      on.push_back(on_first ? first : second);
      ratio.push_back(off.back() > 0 ? on.back() / off.back() : 0.0);
    }
    wqps_off[i] = median(off);
    wqps_on[i] = median(on);
    ratio_med[i] = median(ratio);
    ratio_min[i] = *std::min_element(ratio.begin(), ratio.end());
    ratio_max[i] = *std::max_element(ratio.begin(), ratio.end());
    std::printf(
        "%d reader(s) + %d writers: %8.0f writes/s (group commit off)  "
        "%8.0f writes/s (on)  %.2fx [%.2f-%.2f over %d pairs]\n",
        reader_counts[i], kWriters, wqps_off[i], wqps_on[i], ratio_med[i],
        ratio_min[i], ratio_max[i], kPairs);
  }
  std::printf("\ngroup-commit speedup under 8 readers: %.2fx (median of "
              "%d pairs)\n",
              ratio_med[2], kPairs);
  std::printf(
      "BENCH_JSON {\"bench\": \"s21_writers\", \"writers\": %d, "
      "\"seconds_per_point\": %.2f, \"pairs\": %d, "
      "\"gc_off_qps_r1\": %.0f, \"gc_off_qps_r4\": %.0f, "
      "\"gc_off_qps_r8\": %.0f, "
      "\"gc_on_qps_r1\": %.0f, \"gc_on_qps_r4\": %.0f, "
      "\"gc_on_qps_r8\": %.0f, "
      "\"gc_speedup_r1\": %.3f, \"gc_speedup_r1_min\": %.3f, "
      "\"gc_speedup_r1_max\": %.3f, "
      "\"gc_speedup_r4\": %.3f, \"gc_speedup_r4_min\": %.3f, "
      "\"gc_speedup_r4_max\": %.3f, "
      "\"gc_speedup_r8\": %.3f, \"gc_speedup_r8_min\": %.3f, "
      "\"gc_speedup_r8_max\": %.3f, \"hw_threads\": %u}\n",
      kWriters, kSecondsPerPoint, kPairs, wqps_off[0], wqps_off[1],
      wqps_off[2], wqps_on[0], wqps_on[1], wqps_on[2], ratio_med[0],
      ratio_min[0], ratio_max[0], ratio_med[1], ratio_min[1], ratio_max[1],
      ratio_med[2], ratio_min[2], ratio_max[2], hw);
  return 0;
}
