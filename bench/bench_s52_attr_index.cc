// §5.2 secondary attribute indexes: the thematic-catalog lookup
// ("retrieve the piece named X") and the §5.6 `is` join ("notes of the
// chord c"), each through the planner with the index defined versus the
// EnableAttrIndex(false) linear-scan ablation, plus footnote 3's caveat:
// a selection on an unindexed attribute of an indexed entity type scans
// no matter which other attribute is indexed. Google-benchmark curves
// show the indexed side flat in corpus size while the scans grow
// linearly; the BENCH_JSON block carries the 10^4-entry acceptance
// numbers (>=100x on both indexed shapes, each with whether it was met)
// and the wrong-key curve.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "net/connection.h"
#include "quel/quel.h"

namespace {

using mdm::Connection;
using mdm::bench::MakeChordDb;
using mdm::bench::MetricsSection;
using mdm::er::Database;
using mdm::er::EntityId;
using mdm::rel::Value;

// The paper's NOTE/CHORD schema with an entity-valued NOTE.chord
// reference (the §5.6 join target) and secondary indexes on both the
// note name (thematic catalog) and the chord reference (is-join).
// NOTE.serial is deliberately left unindexed (footnote 3's wrong key);
// it is unique per note, like the name, so both selections return one
// row. The whole load is one er::WriteTxn.
Database MakeIndexedChordDb(int n_chords, int notes_per_chord) {
  Database db;
  auto ddl = mdm::ddl::ExecuteDdl(R"(
    define entity CHORD (name = integer)
    define entity NOTE (name = integer, chord = CHORD, serial = integer)
    define index chord_name on CHORD(name)
    define index note_name on NOTE(name)
    define index note_chord on NOTE(chord)
  )",
                                  &db);
  if (!ddl.ok()) std::abort();
  int note_name = 0;
  mdm::er::WriteTxn txn(&db);
  for (int c = 1; c <= n_chords; ++c) {
    EntityId chord = *db.CreateEntity("CHORD");
    (void)db.SetAttribute(chord, "name", Value::Int(c));
    for (int n = 0; n < notes_per_chord; ++n) {
      EntityId note = *db.CreateEntity("NOTE");
      (void)db.SetAttribute(note, "serial", Value::Int(note_name));
      (void)db.SetAttribute(note, "name", Value::Int(note_name++));
      (void)db.SetAttribute(note, "chord", Value::Ref(chord));
    }
  }
  if (!txn.Commit().ok()) std::abort();
  return db;
}

// Thematic-catalog point lookup: one note by name, worst case (the
// last-created name) for the scan.
std::string LookupQuery(int total_notes) {
  return "range of n is NOTE\nretrieve (n.name) where n.name = " +
         std::to_string(total_notes - 1);
}

// Footnote 3: "a relation sorted on composition title cannot
// efficiently support a selection based on composer name". The same
// one-row selection as LookupQuery, but on the unindexed serial.
std::string WrongKeyQuery(int total_notes) {
  return "range of n is NOTE\nretrieve (n.name) where n.serial = " +
         std::to_string(total_notes - 1);
}

// §5.6 join: the notes belonging to the last chord, reached through the
// chord's own indexed name and the note_chord reference index.
std::string IsJoinQuery(int n_chords) {
  return "range of n is NOTE\nrange of c is CHORD\n"
         "retrieve (n.name) where n.chord is c and c.name = " +
         std::to_string(n_chords);
}

void BM_LookupIndexed(benchmark::State& state) {
  int notes = static_cast<int>(state.range(0));
  Database db = MakeIndexedChordDb(1, notes);
  Connection conn = Connection::Local(&db);
  std::string q = LookupQuery(notes);
  for (auto _ : state) benchmark::DoNotOptimize(conn.Execute(q)->size());
}
BENCHMARK(BM_LookupIndexed)->Arg(64)->Arg(1024)->Arg(10000);

void BM_LookupLinearScan(benchmark::State& state) {
  int notes = static_cast<int>(state.range(0));
  Database db = MakeIndexedChordDb(1, notes);
  db.EnableAttrIndex(false);
  Connection conn = Connection::Local(&db);
  std::string q = LookupQuery(notes);
  for (auto _ : state) benchmark::DoNotOptimize(conn.Execute(q)->size());
}
BENCHMARK(BM_LookupLinearScan)->Arg(64)->Arg(1024)->Arg(10000);

// Indexes stay enabled: note_name and note_chord exist, neither covers
// serial, so the planner must scan.
void BM_WrongKeySelection(benchmark::State& state) {
  int notes = static_cast<int>(state.range(0));
  Database db = MakeIndexedChordDb(1, notes);
  Connection conn = Connection::Local(&db);
  std::string q = WrongKeyQuery(notes);
  for (auto _ : state) benchmark::DoNotOptimize(conn.Execute(q)->size());
}
BENCHMARK(BM_WrongKeySelection)->Arg(64)->Arg(1024)->Arg(10000);

// The is-join keeps the chord fan-out fixed at 10 notes per chord and
// grows the corpus, so the indexed side stays proportional to the
// result (10 probes) while the scan touches every note per chord.
void BM_IsJoinIndexed(benchmark::State& state) {
  int chords = static_cast<int>(state.range(0)) / 10;
  Database db = MakeIndexedChordDb(chords, 10);
  Connection conn = Connection::Local(&db);
  std::string q = IsJoinQuery(chords);
  for (auto _ : state) benchmark::DoNotOptimize(conn.Execute(q)->size());
}
BENCHMARK(BM_IsJoinIndexed)->Arg(64)->Arg(1024)->Arg(10000);

void BM_IsJoinLinearScan(benchmark::State& state) {
  int chords = static_cast<int>(state.range(0)) / 10;
  Database db = MakeIndexedChordDb(chords, 10);
  db.EnableAttrIndex(false);
  Connection conn = Connection::Local(&db);
  std::string q = IsJoinQuery(chords);
  for (auto _ : state) benchmark::DoNotOptimize(conn.Execute(q)->size());
}
BENCHMARK(BM_IsJoinLinearScan)->Arg(64)->Arg(1024)->Arg(10000);

// Maintenance price: each iteration re-points one note's indexed
// attributes (two erase+insert pairs in the trees). The updates run in
// one er::WriteTxn, so no iteration pays a snapshot publish.
void BM_IndexedUpdate(benchmark::State& state) {
  Database db = MakeIndexedChordDb(10, 100);
  EntityId victim = 0;
  (void)db.ForEachEntity("NOTE", [&](EntityId id) {
    victim = id;
    return false;
  });
  int64_t next = 1000000;
  mdm::er::WriteTxn txn(&db);
  for (auto _ : state) {
    if (!db.SetAttribute(victim, "name", Value::Int(next++)).ok())
      state.SkipWithError("update failed");
  }
}
BENCHMARK(BM_IndexedUpdate);

// The acceptance target: each indexed shape at least this many times
// faster than its index-ablated scan at 10^4 entries.
constexpr double kTargetSpeedup = 100;

const char* Met(double speedup) {
  return speedup >= kTargetSpeedup ? "true" : "false";
}

// Wall-clock nanoseconds per call of `f`, averaged over `iters` calls.
template <typename F>
double NsPerOp(F&& f, int iters) {
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) f();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / iters;
}

// Footnote 3's row: the wrong-key selection at `notes` entries with
// every index enabled. Aborts unless `explain` shows a plain scan. Adds
// the statements it ran to `*statements`.
double WrongKeyNs(int notes, int iters, uint64_t* statements) {
  Database db = MakeIndexedChordDb(1, notes);
  Connection conn = Connection::Local(&db);
  std::string q = WrongKeyQuery(notes);
  std::string explain = q;
  explain.insert(explain.find("retrieve"), "explain ");
  auto plan = conn.Execute(explain);
  if (!plan.ok() || plan->explain.find(" via ") != std::string::npos) {
    std::fprintf(stderr, "wrong-key selection is not a scan:\n%s\n",
                 plan.ok() ? plan->explain.c_str()
                           : plan.status().ToString().c_str());
    std::abort();
  }
  const double ns = NsPerOp(
      [&] { benchmark::DoNotOptimize(conn.Execute(q)->size()); }, iters);
  *statements += conn.local_stats().statements;
  return ns;
}

// The acceptance comparison at 10^4 entries, one JSON object so runs
// can be diffed: indexed vs EnableAttrIndex(false) for the catalog
// lookup and the is-join, the wrong-key scan at 10^3 and 10^4 entries,
// plus the registry's index counters. Aborts unless every statement it
// ran read a pinned snapshot.
void EmitAcceptanceJson() {
  constexpr int kIters = 200;
  MetricsSection metrics;

  Database flat = MakeIndexedChordDb(1, 10000);
  Connection conn = Connection::Local(&flat);
  std::string lookup = LookupQuery(10000);
  double lookup_idx = NsPerOp(
      [&] { benchmark::DoNotOptimize(conn.Execute(lookup)->size()); }, kIters);
  flat.EnableAttrIndex(false);
  conn.local_session()->ClearParseCache();  // replan without the index
  double lookup_scan = NsPerOp(
      [&] { benchmark::DoNotOptimize(conn.Execute(lookup)->size()); },
      kIters / 10);
  flat.EnableAttrIndex(true);

  Database corpus = MakeIndexedChordDb(1000, 10);
  Connection cc = Connection::Local(&corpus);
  std::string join = IsJoinQuery(1000);
  double join_idx = NsPerOp(
      [&] { benchmark::DoNotOptimize(cc.Execute(join)->size()); }, kIters);
  corpus.EnableAttrIndex(false);
  cc.local_session()->ClearParseCache();
  double join_scan = NsPerOp(
      [&] { benchmark::DoNotOptimize(cc.Execute(join)->size()); },
      kIters / 10);
  corpus.EnableAttrIndex(true);

  uint64_t statements =
      conn.local_stats().statements + cc.local_stats().statements;
  double wrong_1k = WrongKeyNs(1000, kIters / 2, &statements);
  double wrong_10k = WrongKeyNs(10000, kIters / 10, &statements);

  const double lookup_x = lookup_scan / lookup_idx;
  const double join_x = join_scan / join_idx;
  std::printf(
      "BENCH_JSON {\"bench\": \"s52_attr_index\", "
      "\"scale\": {\"notes\": 10000, \"chords\": 1000}, \"results\": ["
      "{\"op\": \"catalog_lookup\", \"indexed_ns\": %.0f, "
      "\"unindexed_ns\": %.0f, \"speedup\": %.1f, "
      "\"target_speedup\": %.0f, \"met\": %s}, "
      "{\"op\": \"is_join\", \"indexed_ns\": %.0f, "
      "\"unindexed_ns\": %.0f, \"speedup\": %.1f, "
      "\"target_speedup\": %.0f, \"met\": %s}, "
      "{\"op\": \"wrong_key\", \"plan\": \"scan\", "
      "\"ns_at_1000\": %.0f, \"ns_at_10000\": %.0f, "
      "\"growth_10x\": %.1f, \"vs_unindexed_lookup\": %.2f}], "
      "\"metrics\": {%s}}\n",
      lookup_idx, lookup_scan, lookup_x, kTargetSpeedup, Met(lookup_x),
      join_idx, join_scan, join_x, kTargetSpeedup, Met(join_x), wrong_1k,
      wrong_10k, wrong_10k / wrong_1k, wrong_10k / lookup_scan,
      metrics.DeltaJson().c_str());
  const uint64_t pinned = metrics.Delta("mdm_quel_snapshot_reads_total");
  if (pinned != statements) {
    std::fprintf(stderr,
                 "%llu of %llu timed read statements read a pinned "
                 "snapshot\n",
                 (unsigned long long)pinned, (unsigned long long)statements);
    std::abort();
  }
  std::printf("acceptance (>=%.0fx at 10^4 entries): lookup %.1fx (met: %s), "
              "is-join %.1fx (met: %s)\n",
              kTargetSpeedup, lookup_x, Met(lookup_x), join_x, Met(join_x));
  std::printf("footnote 3 (wrong key scans, ~10x per 10x entries): "
              "%.1fx from 10^3 to 10^4\n\n",
              wrong_10k / wrong_1k);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = mdm::bench::ConsumeSmokeFlag(&argc, argv);
  mdm::bench::PrintHeader(
      "§5.2 — secondary attribute indexes",
      "the thematic-catalog lookup and the §5.6 is-join, indexed vs "
      "the EnableAttrIndex(false) linear-scan ablation; footnote 3's "
      "wrong-key selection");
  std::printf("expect: indexed lookup/join flat in corpus size; the\n"
              "ablated scans linear, and so is the wrong-key selection\n"
              "with every index on. IndexedUpdate shows the per-mutation\n"
              "maintenance price.\n\n");
  EmitAcceptanceJson();
  benchmark::Initialize(&argc, argv);
  if (!smoke) benchmark::RunSpecifiedBenchmarks();
  return 0;
}
