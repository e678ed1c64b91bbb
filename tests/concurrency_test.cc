// Concurrent multi-client MDM coverage (ctest label: concurrency).
//
// Two complementary styles:
//
//  * Deterministic interleaving harness — real threads, but a
//    coordinator grants one turn at a time from a seeded schedule
//    (common/random.h), so every interleaving is reproducible and the
//    readers can assert EXACT expected states, not just invariants.
//  * Free-running stress — N reader threads race 1 mutator under real
//    contention, asserting snapshot invariants that only hold if reads
//    are never torn (run under the tsan preset for enforcement).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "ddl/parser.h"
#include "er/database.h"
#include "er/persist.h"
#include "er/pmap.h"
#include "obs/metrics.h"
#include "net/connection.h"
#include "quel/quel.h"
#include "rel/value.h"
#include "storage/wal.h"

namespace mdm {
namespace {

using er::Database;
using er::EntityId;
using er::OrderingHandle;
using rel::Value;

// ----------------------------------------------------------------------
// The deterministic interleaving harness.
//
// Workers block until the coordinator grants them a turn; the
// coordinator blocks until the turn completes. Exactly one worker runs
// at any moment, in an order drawn from a seeded Rng, so a failing
// seed replays the identical interleaving. The mutex/condvar handoff
// also gives TSan a clean happens-before chain for the shared model
// state the assertions compare against.
// ----------------------------------------------------------------------
class TurnScheduler {
 public:
  void GrantTurn(int worker) {
    std::unique_lock<std::mutex> lock(mu_);
    turn_ = worker;
    cv_.notify_all();
    cv_.wait(lock, [&] { return turn_ == kIdle; });
  }

  /// Worker side: blocks until granted a turn (true) or shut down
  /// (false).
  bool AwaitTurn(int worker) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return turn_ == worker || shutdown_; });
    return turn_ == worker;
  }

  void CompleteTurn() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      turn_ = kIdle;
    }
    cv_.notify_all();
  }

  void Shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
  }

 private:
  static constexpr int kIdle = -1;
  std::mutex mu_;
  std::condition_variable cv_;
  int turn_ = kIdle;
  bool shutdown_ = false;
};

/// Builds a seeded schedule: `per_worker` turns for each of `workers`
/// workers, Fisher-Yates shuffled.
std::vector<int> MakeSchedule(uint64_t seed, int workers, int per_worker) {
  std::vector<int> slots;
  for (int w = 0; w < workers; ++w)
    slots.insert(slots.end(), per_worker, w);
  Rng rng(seed);
  for (size_t i = slots.size(); i > 1; --i)
    std::swap(slots[i - 1], slots[rng.Uniform(i)]);
  return slots;
}

EntityId MustCreate(Database* db, const std::string& type, int name) {
  auto id = db->CreateEntity(type);
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_TRUE(db->SetAttribute(*id, "name", Value::Int(name)).ok());
  return *id;
}

// ----------------------------------------------------------------------
// Deterministic: N readers and 1 mutator on a seeded schedule. The
// mutator rotates a chord's sibling order one complete step per turn;
// readers assert the EXACT expected child order and that every
// Before/After/PositionOf answer matches it — any torn or stale index
// snapshot is an immediate mismatch, and the failing seed reproduces.
// ----------------------------------------------------------------------
class DeterministicScheduleTest : public testing::TestWithParam<uint64_t> {};

TEST_P(DeterministicScheduleTest, ReadersSeeExactPrePostMutationStates) {
  Database db;
  ASSERT_TRUE(ddl::ExecuteDdl(R"(
    define entity CHORD (name = integer)
    define entity NOTE (name = integer)
    define ordering note_in_chord (NOTE) under CHORD
  )",
                              &db)
                  .ok());
  const EntityId chord = MustCreate(&db, "CHORD", 1);
  std::vector<EntityId> model;
  for (int n = 0; n < 5; ++n) {
    EntityId note = MustCreate(&db, "NOTE", n);
    ASSERT_TRUE(db.AppendChild("note_in_chord", chord, note).ok());
    model.push_back(note);
  }
  OrderingHandle h = *db.ResolveOrderingHandle("note_in_chord");

  constexpr int kReaders = 3;
  constexpr int kTurnsPerWorker = 32;
  TurnScheduler sched;
  std::atomic<int> failures{0};

  // Worker 0: one full rotation per turn, inside ONE WriteTxn, so no
  // reader may observe the half-rotated (note detached) state. `model`
  // is only touched by the turn holder; the scheduler's mutex orders it.
  auto mutator = [&] {
    while (sched.AwaitTurn(0)) {
      EntityId first = model.front();
      {
        er::WriteTxn txn(&db);
        if (!txn->RemoveChild(h, first).ok() ||
            !txn->AppendChild(h, chord, first).ok() || !txn.Commit().ok())
          failures.fetch_add(1);
      }
      model.erase(model.begin());
      model.push_back(first);
      sched.CompleteTurn();
    }
  };
  auto reader = [&](int id) {
    while (sched.AwaitTurn(id)) {
      er::SnapshotReadScope pin(&db, db.PinSnapshot());
      auto kids = db.Children(h, chord);
      if (!kids.ok() || *kids != model) failures.fetch_add(1);
      // Every pairwise predicate must agree with the model order.
      for (size_t i = 0; i < model.size(); ++i) {
        auto pos = db.PositionOf(h, model[i]);
        if (!pos.ok() || *pos != i) failures.fetch_add(1);
        for (size_t j = i + 1; j < model.size(); ++j) {
          auto before = db.Before(h, model[i], model[j]);
          auto after = db.After(h, model[i], model[j]);
          if (!before.ok() || !*before) failures.fetch_add(1);
          if (!after.ok() || *after) failures.fetch_add(1);
        }
      }
      sched.CompleteTurn();
    }
  };

  std::vector<std::thread> workers;
  workers.emplace_back(mutator);
  for (int id = 1; id <= kReaders; ++id) workers.emplace_back(reader, id);

  for (int w : MakeSchedule(GetParam(), kReaders + 1, kTurnsPerWorker))
    sched.GrantTurn(w);
  sched.Shutdown();
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(failures.load(), 0) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(SeededSchedules, DeterministicScheduleTest,
                         testing::Values(1u, 7u, 42u, 20260805u));

// ----------------------------------------------------------------------
// Free-running: snapshot reads are never torn. A mutator thread swaps
// two siblings and reparents a subtree between two roots (each change
// one atomic WriteTxn); readers of one pinned snapshot must always see
// exactly one of the two legal states for each invariant — a torn
// snapshot breaks the XOR.
// ----------------------------------------------------------------------
TEST(FreeRunningConcurrency, SnapshotReadsNeverTornUnderMutation) {
  Database db;
  ASSERT_TRUE(ddl::ExecuteDdl(R"(
    define entity CHORD (name = integer)
    define entity NOTE (name = integer)
    define entity SECTION (name = integer)
    define ordering note_in_chord (NOTE) under CHORD
    define ordering sec_tree (SECTION) under SECTION
  )",
                              &db)
                  .ok());
  const EntityId chord = MustCreate(&db, "CHORD", 1);
  const EntityId x = MustCreate(&db, "NOTE", 1);
  const EntityId y = MustCreate(&db, "NOTE", 2);
  const EntityId z = MustCreate(&db, "NOTE", 3);
  for (EntityId n : {x, y, z})
    ASSERT_TRUE(db.AppendChild("note_in_chord", chord, n).ok());
  const EntityId root_a = MustCreate(&db, "SECTION", 10);
  const EntityId root_b = MustCreate(&db, "SECTION", 11);
  const EntityId mid = MustCreate(&db, "SECTION", 12);
  const EntityId leaf = MustCreate(&db, "SECTION", 13);
  ASSERT_TRUE(db.AppendChild("sec_tree", root_a, mid).ok());
  ASSERT_TRUE(db.AppendChild("sec_tree", mid, leaf).ok());

  OrderingHandle notes = *db.ResolveOrderingHandle("note_in_chord");
  OrderingHandle tree = *db.ResolveOrderingHandle("sec_tree");

  constexpr int kReaders = 4;
  constexpr int kReadsPerThread = 1200;
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::atomic<uint64_t> states_seen{0};

  std::thread mutator([&] {
    bool on_a = true;
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (i++ % 2 == 0) {
        // Swap x and y (complete swap under one txn).
        er::WriteTxn txn(&db);
        auto pos = txn->PositionOf(notes, x);
        if (!pos.ok()) {
          violations.fetch_add(1);
          continue;
        }
        size_t target = *pos == 0 ? 1 : 0;
        if (!txn->RemoveChild(notes, x).ok() ||
            !txn->InsertChildAt(notes, chord, x, target).ok() ||
            !txn.Commit().ok())
          violations.fetch_add(1);
      } else {
        // Reparent mid (and with it leaf) to the other root.
        er::WriteTxn txn(&db);
        if (!txn->RemoveChild(tree, mid).ok() ||
            !txn->AppendChild(tree, on_a ? root_b : root_a, mid).ok() ||
            !txn.Commit().ok())
          violations.fetch_add(1);
        on_a = !on_a;
      }
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < kReadsPerThread; ++i) {
        er::SnapshotReadScope pin(&db, db.PinSnapshot());
        auto xy = db.Before(notes, x, y);
        auto yx = db.Before(notes, y, x);
        // x and y always share the chord: exactly one order holds.
        if (!xy.ok() || !yx.ok() || (*xy == *yx)) violations.fetch_add(1);
        auto za = db.After(notes, z, x);
        if (!za.ok() || !*za) violations.fetch_add(1);  // z stays last
        auto ua = db.Under(tree, leaf, root_a);
        auto ub = db.Under(tree, leaf, root_b);
        // leaf is under exactly one root at every committed state.
        if (!ua.ok() || !ub.ok() || (*ua == *ub)) violations.fetch_add(1);
        auto um = db.Under(tree, leaf, mid);
        if (!um.ok() || !*um) violations.fetch_add(1);
        if (xy.ok() && *xy) states_seen.fetch_add(1);
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true);
  mutator.join();
  EXPECT_EQ(violations.load(), 0);
  // Smoke-check the race actually exercised both orders (not a fixed
  // schedule artifact). With 1200*4 reads this is overwhelmingly likely.
  SUCCEED() << "x-before-y observed " << states_seen.load() << " times";
}

// ----------------------------------------------------------------------
// QUEL: concurrent retrieves against a mutating client. Each reader's
// count(NOTE.name) sequence must be monotone non-decreasing (appends
// only) and inside [initial, final] — a read overlapping a half-applied
// append, or a stale snapshot after a newer one, breaks monotonicity.
// ----------------------------------------------------------------------
TEST(QuelConcurrency, ConcurrentRetrievesWithMutatingClient) {
  Database db;
  ASSERT_TRUE(
      ddl::ExecuteDdl("define entity NOTE (name = integer)", &db).ok());
  constexpr int64_t kInitial = 40;
  constexpr int64_t kAppends = 120;
  for (int64_t i = 0; i < kInitial; ++i) MustCreate(&db, "NOTE", i);

  std::atomic<int> violations{0};
  std::thread writer([&] {
    mdm::Connection session = mdm::Connection::Local(&db);
    for (int64_t i = 0; i < kAppends; ++i) {
      if (!session.Execute("append to NOTE (name = 900)").ok())
        violations.fetch_add(1);
    }
  });

  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      mdm::Connection session = mdm::Connection::Local(&db);
      int64_t last = kInitial;
      for (int i = 0; i < 200; ++i) {
        auto rs = session.Execute("retrieve (c = count(NOTE.name))");
        if (!rs.ok() || rs->rows.size() != 1) {
          violations.fetch_add(1);
          continue;
        }
        int64_t count = rs->rows[0][0].AsInt();
        if (count < last || count > kInitial + kAppends)
          violations.fetch_add(1);
        last = count;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);

  mdm::Connection check = mdm::Connection::Local(&db);
  auto rs = check.Execute("retrieve (c = count(NOTE.name))");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), kInitial + kAppends);
}

// ----------------------------------------------------------------------
// QUEL: one session SHARED by several threads — the plan cache and
// counters are session state, so this hammers the session mutex and the
// atomic ExecStats. Counter totals must come out exact, both on the
// session and on the process-wide obs registry (the PR3 counters,
// verified race-free under load).
// ----------------------------------------------------------------------
TEST(QuelConcurrency, SharedSessionParseCacheAndCountersExact) {
  Database db;
  ASSERT_TRUE(ddl::ExecuteDdl(R"(
    define entity CHORD (name = integer)
    define entity NOTE (name = integer)
    define ordering note_in_chord (NOTE) under CHORD
  )",
                              &db)
                  .ok());
  const EntityId chord = MustCreate(&db, "CHORD", 1);
  for (int n = 0; n < 6; ++n)
    ASSERT_TRUE(
        db.AppendChild("note_in_chord", chord, MustCreate(&db, "NOTE", n))
            .ok());

  const std::vector<std::string> scripts = {
      "retrieve (c = count(NOTE.name))",
      "retrieve (NOTE.name) where NOTE.name > 2",
      "range of n1, n2 is NOTE\n"
      "retrieve (n1.name) where n1 before n2 in note_in_chord "
      "and n2.name = 3",
      "retrieve (m = max(NOTE.name))",
  };

  mdm::Connection shared_conn = mdm::Connection::Local(&db);
  quel::QuelSession& shared = *shared_conn.local_session();
  const uint64_t statements_before =
      obs::Registry::Global()
          ->GetCounter("mdm_quel_statements_total")
          ->value();

  constexpr int kThreads = 4;
  constexpr int kRunsPerThread = 100;
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRunsPerThread; ++i) {
        const std::string& script = scripts[(t + i) % scripts.size()];
        if (!shared.Execute(script).ok()) violations.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(violations.load(), 0);

  // Script 2 contains two statements (range + retrieve).
  constexpr uint64_t kTotalRuns = kThreads * kRunsPerThread;
  const uint64_t expected_statements = kTotalRuns + kTotalRuns / 4;
  quel::ExecStats stats = shared.stats();
  EXPECT_EQ(stats.statements, expected_statements);
  // Exactly one parse per distinct script — the session mutex makes the
  // lookup-or-parse-and-insert step atomic.
  EXPECT_EQ(stats.plan_cache_hits, kTotalRuns - scripts.size());
  const uint64_t statements_after =
      obs::Registry::Global()
          ->GetCounter("mdm_quel_statements_total")
          ->value();
  EXPECT_EQ(statements_after - statements_before, expected_statements);
}

// ----------------------------------------------------------------------
// The write-path overhaul's headline read-side claim, asserted via the
// latch counters: a read-only statement is served from a pinned
// snapshot and takes NO latch at all.
// ----------------------------------------------------------------------
TEST(QuelConcurrency, ReadOnlyStatementsAcquireNoExclusiveLatch) {
  Database db;
  mdm::Connection conn = mdm::Connection::Local(&db);
  ASSERT_TRUE(conn.Execute("define entity NOTE (name = integer)").ok());
  for (int i = 0; i < 8; ++i)
    ASSERT_TRUE(
        conn.Execute(StrFormat("append to NOTE (name = %d)", i)).ok());

  obs::Registry* reg = obs::Registry::Global();
  obs::Counter* exclusive =
      reg->GetCounter("mdm_quel_exclusive_latch_total");
  obs::Counter* snapshot =
      reg->GetCounter("mdm_quel_snapshot_reads_total");
  const uint64_t exclusive_before = exclusive->value();
  const uint64_t snapshot_before = snapshot->value();

  constexpr int kReads = 50;
  for (int i = 0; i < kReads; ++i) {
    auto rs = conn.Execute("retrieve (c = count(NOTE.name))");
    ASSERT_TRUE(rs.ok());
    ASSERT_EQ(rs->rows[0][0].AsInt(), 8);
  }

  EXPECT_EQ(exclusive->value() - exclusive_before, 0u)
      << "a read-only statement took the exclusive db latch";
  EXPECT_EQ(snapshot->value() - snapshot_before,
            static_cast<uint64_t>(kReads));
}

// ----------------------------------------------------------------------
// Reader-never-blocks, the direct form: a writer HOLDS a WriteTxn (the
// exclusive db latch) while a reader executes a retrieve. The read must
// complete (against the last published snapshot, without the writer's
// unpublished note) while the latch is still held; a reader that queues
// on the latch times out and fails the test.
// ----------------------------------------------------------------------
TEST(QuelConcurrency, ReadersCompleteWhileWriterHoldsExclusiveLatch) {
  Database db;
  mdm::Connection setup = mdm::Connection::Local(&db);
  ASSERT_TRUE(setup.Execute("define entity NOTE (name = integer)").ok());
  constexpr int kNotes = 10;
  for (int i = 0; i < kNotes; ++i)
    ASSERT_TRUE(
        setup.Execute(StrFormat("append to NOTE (name = %d)", i)).ok());

  // A writer mid-mutation: its WriteTxn holds the latch, unpublished.
  er::WriteTxn writer(&db);
  ASSERT_TRUE(writer->CreateEntity("NOTE").ok());

  std::atomic<bool> read_ok{false};
  std::atomic<bool> read_done{false};
  std::thread reader([&] {
    mdm::Connection conn = mdm::Connection::Local(&db);
    auto rs = conn.Execute("retrieve (c = count(NOTE.name))");
    read_ok = rs.ok() && rs->rows.size() == 1 &&
              rs->rows[0][0].AsInt() == kNotes;
    read_done.store(true, std::memory_order_release);
  });

  // The reader must finish while we still hold the latch.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!read_done.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const bool finished_under_latch =
      read_done.load(std::memory_order_acquire);

  // Release the latch, so a blocked reader finishes and join() returns.
  const Status committed = writer.Commit();
  reader.join();
  EXPECT_TRUE(committed.ok()) << committed.ToString();
  EXPECT_TRUE(finished_under_latch)
      << "reader blocked behind the exclusive latch instead of reading "
         "the published snapshot";
  EXPECT_TRUE(read_ok.load());
}

// ----------------------------------------------------------------------
// Ordering access paths and predicates read the pinned snapshot's
// edges. A writer holds the exclusive latch mid-way through a batch
// that inserts notes at position 0 under one staff and moves note 4 to
// the front, shifting every sibling's position; a reader meanwhile runs
// `under` and `after` loops driven by note_on_staff, and a `before`
// inside `or` (a filter, not a slice, so Database::Before answers it).
// It must see exactly its snapshot's children, in order, with the
// driven loop's rows_in equal to that fan-out, and the filter-side
// `before` must answer from the pinned positions. Once the batch
// publishes, the same queries see the new order.
// ----------------------------------------------------------------------
TEST(QuelConcurrency, OrderingSliceReadsExactlyThePinnedSnapshot) {
  Database db;
  ASSERT_TRUE(ddl::ExecuteDdl(R"(
    define entity STAFF (name = integer)
    define entity NOTE (name = integer)
    define ordering note_on_staff (NOTE) under STAFF
  )",
                              &db)
                  .ok());
  OrderingHandle h = *db.ResolveOrderingHandle("note_on_staff");
  constexpr int kPinned = 5;
  constexpr int kBatch = 10;
  EntityId staff;
  {
    er::WriteTxn txn(&db);
    staff = MustCreate(&db, "STAFF", 1);
    for (int n = 0; n < kPinned; ++n)
      ASSERT_TRUE(
          txn->AppendChild(h, staff, MustCreate(&db, "NOTE", n)).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }

  const char* kUnder =
      "range of n is NOTE range of s is STAFF retrieve (n.name) "
      "where n under s in note_on_staff and s.name = 1";
  const char* kAfter =
      "range of n1, n2 is NOTE retrieve (n1.name) "
      "where n1 after n2 in note_on_staff and n2.name = 2";
  const char* kBeforeFilter =
      "range of n1, n2 is NOTE retrieve (n1.name) "
      "where n2.name = 2 and (n1 before n2 in note_on_staff or n1.name = -1)";
  struct Read {
    std::vector<int64_t> names;
    quel::StatementActuals actuals;
    uint64_t rows_scanned = 0;
  };
  auto run = [&](const char* query, Read* out) {
    mdm::Connection conn = mdm::Connection::Local(&db);
    conn.local_session()->set_collect_actuals(true);
    auto rs = conn.Execute(query);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    for (const auto& row : rs->rows) out->names.push_back(row[0].AsInt());
    out->actuals = conn.local_session()->TakeLastActuals();
    out->rows_scanned = conn.local_stats().rows_scanned;
  };

  Read under_pinned, after_pinned, before_pinned;
  {
    er::WriteTxn txn(&db);
    for (int n = 0; n < kBatch; ++n)
      ASSERT_TRUE(
          txn->InsertChildAt(h, staff, MustCreate(&db, "NOTE", 100 + n), 0)
              .ok());
    const EntityId note4 = *txn->NthChild(h, staff, kBatch + 4);
    ASSERT_TRUE(txn->RemoveChild(h, note4).ok());
    ASSERT_TRUE(txn->InsertChildAt(h, staff, note4, 0).ok());
    // The reader runs while the batch is unpublished and the latch held.
    std::thread reader([&] {
      run(kUnder, &under_pinned);
      run(kAfter, &after_pinned);
      run(kBeforeFilter, &before_pinned);
    });
    reader.join();
    ASSERT_TRUE(txn.Commit().ok());
  }

  EXPECT_EQ(under_pinned.names, (std::vector<int64_t>{0, 1, 2, 3, 4}));
  ASSERT_EQ(under_pinned.actuals.loops.size(), 2u);
  EXPECT_EQ(under_pinned.actuals.loops[1].var, "n");
  EXPECT_EQ(under_pinned.actuals.loops[1].access, "ordering");
  EXPECT_EQ(under_pinned.actuals.loops[1].rows_in,
            static_cast<uint64_t>(kPinned));
  // One STAFF scanned, then exactly the pinned fan-out.
  EXPECT_EQ(under_pinned.rows_scanned, 1u + kPinned);
  // The snapshot's suffix after note 2: two notes, the batch invisible.
  EXPECT_EQ(after_pinned.names, (std::vector<int64_t>{3, 4}));
  ASSERT_EQ(after_pinned.actuals.loops.size(), 2u);
  EXPECT_EQ(after_pinned.actuals.loops[1].access, "ordering");
  EXPECT_EQ(after_pinned.actuals.loops[1].rows_in, 2u);
  // The `or` keeps `before` a filter; it sees the pinned order, where
  // notes 0 and 1 precede note 2 and note 4 still follows it.
  EXPECT_EQ(before_pinned.actuals.loops[1].access, "scan");
  EXPECT_EQ(before_pinned.names, (std::vector<int64_t>{0, 1}));

  Read under_published, after_published, before_published;
  run(kUnder, &under_published);
  run(kAfter, &after_published);
  run(kBeforeFilter, &before_published);
  EXPECT_EQ(under_published.names.size(),
            static_cast<size_t>(kPinned + kBatch));
  EXPECT_EQ(under_published.names.front(), 4);
  EXPECT_EQ(under_published.actuals.loops[1].rows_in,
            static_cast<uint64_t>(kPinned + kBatch));
  // Published order: 4, 109..100, 0, 1, 2, 3.
  EXPECT_EQ(after_published.names, (std::vector<int64_t>{3}));
  std::vector<int64_t> before_sorted = before_published.names;
  std::sort(before_sorted.begin(), before_sorted.end());
  EXPECT_EQ(before_sorted.size(), 3u + kBatch);
  EXPECT_EQ(before_sorted.front(), 0);
  EXPECT_EQ(before_sorted.back(), 100 + kBatch - 1);
}

// ----------------------------------------------------------------------
// WAL group commit under real contention: N committer threads against
// one journaled database with the coordinator attached. Every append
// must be durable after recovery, and the number of fsync batches the
// coordinator issued must not exceed the number of commits (leader/
// follower amortization never loses a commit, never double-syncs).
// ----------------------------------------------------------------------
TEST(GroupCommitConcurrency, ConcurrentCommittersAllDurableAndBatched) {
  const std::string path =
      testing::TempDir() + "/mdm_group_commit_conc.mdm";
  auto remove_files = [&] {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    std::remove((path + ".wal").c_str());
  };
  remove_files();

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 25;
  obs::Counter* groups = obs::Registry::Global()->GetCounter(
      "mdm_wal_group_commits_total");
  uint64_t groups_before = 0;
  {
    auto h = er::DurableDatabase::Open(path);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    (*h)->EnableGroupCommit({/*interval_us=*/200, /*max_batch=*/64});
    er::Database* db = (*h)->db();
    mdm::Connection setup = mdm::Connection::Local(db);
    ASSERT_TRUE(setup.Execute("define entity NOTE (name = integer)").ok());
    groups_before = groups->value();

    std::atomic<int> violations{0};
    std::vector<std::thread> committers;
    for (int t = 0; t < kThreads; ++t) {
      committers.emplace_back([&, t] {
        mdm::Connection conn = mdm::Connection::Local(db);
        for (int i = 0; i < kOpsPerThread; ++i) {
          if (!conn.Execute(StrFormat("append to NOTE (name = %d)",
                                      t * kOpsPerThread + i))
                   .ok())
            violations.fetch_add(1);
        }
      });
    }
    for (std::thread& t : committers) t.join();
    EXPECT_EQ(violations.load(), 0);

    const uint64_t batches = groups->value() - groups_before;
    EXPECT_GE(batches, 1u);
    EXPECT_LE(batches, static_cast<uint64_t>(kThreads * kOpsPerThread));
  }

  // Recovery: every acknowledged commit survives, exactly once.
  auto h = er::DurableDatabase::Open(path);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  mdm::Connection check = mdm::Connection::Local((*h)->db());
  auto rs = check.Execute("retrieve (c = count(NOTE.name))");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), kThreads * kOpsPerThread);
  remove_files();
}

// The group-commit window is for committers that can join the batch: a
// lone committer is acknowledged after its own fsync, with no window,
// even when the window is configured far longer than the test allows.
TEST(GroupCommitConcurrency, LoneCommitterPaysNoWindow) {
  const std::string path = testing::TempDir() + "/mdm_group_commit_lone.mdm";
  auto remove_files = [&] {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    std::remove((path + ".wal").c_str());
  };
  remove_files();
  obs::Counter* windows = obs::Registry::Global()->GetCounter(
      "mdm_wal_group_commit_windows_total");
  {
    auto h = er::DurableDatabase::Open(path);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    (*h)->EnableGroupCommit({/*interval_us=*/2'000'000, /*max_batch=*/64});
    er::Database* db = (*h)->db();
    mdm::Connection conn = mdm::Connection::Local(db);
    ASSERT_TRUE(conn.Execute("define entity NOTE (name = integer)").ok());
    const uint64_t windows_before = windows->value();
    for (int i = 0; i < 3; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      ASSERT_TRUE(
          conn.Execute(StrFormat("append to NOTE (name = %d)", i)).ok());
      ASSERT_TRUE(db->CreateEntity("NOTE").ok());  // auto-commit path
      EXPECT_LT(std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count(),
                1.0);
    }
    EXPECT_EQ(windows->value(), windows_before);
  }
  auto h = er::DurableDatabase::Open(path);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(*(*h)->db()->CountEntities("NOTE"), 6u);
  remove_files();
}

// ----------------------------------------------------------------------
// Recovery paths hold their locks correctly too: replaying a journal
// into a live database under a WriteTxn while readers hammer it.
// ----------------------------------------------------------------------
TEST(FreeRunningConcurrency, JournalReplayUnderWriteTxnHidesPartialReplay) {
  // Source database with a journal.
  storage::MemoryWalSink sink;
  storage::WalWriter wal(&sink);
  Database source;
  ASSERT_TRUE(
      ddl::ExecuteDdl("define entity NOTE (name = integer)", &source).ok());
  source.AttachJournal(&wal);
  for (int i = 0; i < 30; ++i) MustCreate(&source, "NOTE", i);

  // Target database, same schema, concurrently read while replaying.
  Database db;
  ASSERT_TRUE(
      ddl::ExecuteDdl("define entity NOTE (name = integer)", &db).ok());
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      er::SnapshotReadScope pin(&db, db.PinSnapshot());
      auto n = db.CountEntities("NOTE");
      // Reads must see 0 (before) or 30 (after): ReplayJournal
      // publishes once, at the end, so no intermediate count is visible.
      if (!n.ok() || (*n != 0 && *n != 30)) {
        violations.fetch_add(1);
        break;
      }
      if (*n == 30) break;
    }
  });
  {
    er::WriteTxn txn(&db);
    ASSERT_TRUE(txn->ReplayJournal(sink.bytes()).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(*db.CountEntities("NOTE"), 30u);
}

// ----------------------------------------------------------------------
// er::PMap under the snapshot discipline: one writer mutates its own
// map value and publishes copies; readers pin a published copy and walk
// it with no lock. Between publishes the writer edits in place whatever
// no published copy shares, so a write that reached a pinned version
// would break the version's own checksum (and TSan flags the race).
// ----------------------------------------------------------------------
TEST(PMapConcurrency, ReadersWalkPinnedSnapshotsWhileWriterPublishes) {
  // Two maps over the same keys: a flat value and a shared_ptr value,
  // so a reader also checks the two agree. Key 0 holds the checksum.
  struct Version {
    er::PMap<uint64_t, uint64_t> flat;
    er::PMap<uint64_t, std::shared_ptr<const uint64_t>> boxed;
  };
  std::mutex publish_mu;
  std::shared_ptr<const Version> published = std::make_shared<Version>();
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::atomic<uint64_t> walks{0};

  std::thread writer([&] {
    Rng rng(20261019);
    Version live;
    for (int version = 1; version <= 400; ++version) {
      // Dense ids, a few sparse ones (root growth), overwrites, erases.
      for (int op = 0; op < 40; ++op) {
        uint64_t key = 1 + rng.Uniform(4000);
        if (rng.Uniform(20) == 0) key = (uint64_t{1} << 33) + rng.Uniform(64);
        if (rng.Uniform(4) == 0) {
          live.flat.Erase(key);
          live.boxed.Erase(key);
        } else {
          const uint64_t v = rng.Next() >> 8;
          live.flat.Insert(key, v);
          live.boxed.Insert(key, std::make_shared<const uint64_t>(v));
        }
      }
      uint64_t sum = 0;
      live.flat.ForEach([&](uint64_t k, uint64_t v) {
        if (k != 0) sum += v;
        return true;
      });
      live.flat.Insert(0, sum);
      live.boxed.Insert(0, std::make_shared<const uint64_t>(sum));
      auto snap = std::make_shared<const Version>(live);
      std::lock_guard<std::mutex> lock(publish_mu);
      published = std::move(snap);
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        std::shared_ptr<const Version> pin;
        {
          std::lock_guard<std::mutex> lock(publish_mu);
          pin = published;
        }
        uint64_t sum = 0;
        size_t n = 0;
        pin->flat.ForEach([&](uint64_t k, uint64_t v) {
          ++n;
          if (k != 0) sum += v;
          const std::shared_ptr<const uint64_t>* b = pin->boxed.Find(k);
          if (b == nullptr || **b != v) violations.fetch_add(1);
          return true;
        });
        const uint64_t* want = pin->flat.Find(0);
        if (n != pin->flat.size() || n != pin->boxed.size() ||
            (want != nullptr && *want != sum))
          violations.fetch_add(1);
        walks.fetch_add(1);
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(walks.load(), 0u);
}

// Entity records are copy-on-write per publish window: the first write
// after a publish clones the record, later writes in the same window
// edit the clone in place, and a pinned snapshot keeps reading the
// record it pinned — through a SetAttribute, and through a delete.
// A reader thread reads the pinned records while the writer mutates, so
// the tsan preset checks that the clone never shares a written slot.
TEST(RecordConcurrency, PinnedSnapshotKeepsRecordsAcrossCopyOnWrite) {
  Database db;
  ASSERT_TRUE(ddl::ExecuteDdl(
                  "define entity NOTE (key = integer, text = string)", &db)
                  .ok());
  const EntityId a = *db.CreateEntity("NOTE");
  const EntityId b = *db.CreateEntity("NOTE");
  ASSERT_TRUE(db.SetAttribute(a, "key", Value::Int(1)).ok());
  ASSERT_TRUE(db.SetAttribute(a, "text", Value::String("one")).ok());
  ASSERT_TRUE(db.SetAttribute(b, "key", Value::Int(10)).ok());
  ASSERT_TRUE(db.SetAttribute(b, "text", Value::String(std::string(64, 'b')))
                  .ok());
  std::shared_ptr<const er::Tables> pinned = db.PinSnapshot();
  auto record = [&](EntityId id) {
    const er::EntityRecord* rec = nullptr;
    db.FindEntities(&id, 1, &rec);
    return rec;
  };
  // What the pinned snapshot must keep answering, from any thread.
  auto pinned_reads_hold = [&] {
    er::SnapshotReadScope scope(&db, pinned);
    const er::EntityRecord* ra = record(a);
    const er::EntityRecord* rb = record(b);
    return ra != nullptr && rb != nullptr && ra->attrs()[0].AsInt() == 1 &&
           ra->attrs()[1].AsString() == "one" &&
           rb->attrs()[0].AsInt() == 10 &&
           rb->attrs()[1].AsString() == std::string(64, 'b');
  };
  const er::EntityRecord* pinned_a = nullptr;
  {
    er::SnapshotReadScope scope(&db, pinned);
    pinned_a = record(a);
  }

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread reader([&] {
    do {
      if (!pinned_reads_hold()) violations.fetch_add(1);
    } while (!stop.load());
  });

  {
    er::WriteTxn txn(&db);
    // The first write of the window clones the record...
    EXPECT_TRUE(txn->SetAttribute(a, "key", Value::Int(2)).ok());
    const er::EntityRecord* clone = record(a);
    EXPECT_NE(clone, pinned_a);
    // ...and the second edits that clone in place.
    EXPECT_TRUE(txn->SetAttribute(a, "key", Value::Int(3)).ok());
    EXPECT_TRUE(txn->SetAttribute(a, "text", Value::String("three")).ok());
    EXPECT_EQ(record(a), clone);
    EXPECT_EQ(clone->attrs()[0].AsInt(), 3);
    EXPECT_EQ(clone->attrs()[1].AsString(), "three");
    // A record deleted under the pin stays readable through it.
    EXPECT_TRUE(txn->DeleteEntity(b).ok());
    EXPECT_EQ(record(b), nullptr);
    EXPECT_TRUE(txn.Commit().ok());
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_TRUE(pinned_reads_hold());
  {
    er::SnapshotReadScope scope(&db, pinned);
    EXPECT_EQ(record(a), pinned_a);
    EXPECT_TRUE(db.Exists(b));
    EXPECT_EQ(db.GetAttribute(b, "key")->AsInt(), 10);
  }
  // The published state has the writes; dropping the last pin frees
  // the old records (the sanitizer presets check the release).
  EXPECT_EQ(db.GetAttribute(a, "key")->AsInt(), 3);
  EXPECT_FALSE(db.Exists(b));
  pinned.reset();
  EXPECT_EQ(db.GetAttribute(a, "text")->AsString(), "three");
}

// ----------------------------------------------------------------------
// One read path: a mutation made outside any statement group is its
// own group for visibility, so the direct-API writer's next QUEL read
// pins a snapshot that already holds the write — no latch fallback.
// ----------------------------------------------------------------------
TEST(SnapshotReadTest, UngroupedWriteIsVisibleToTheNextPinnedRead) {
  Database db;
  ASSERT_TRUE(
      ddl::ExecuteDdl("define entity NOTE (name = integer)", &db).ok());
  mdm::Connection conn = mdm::Connection::Local(&db);
  obs::Counter* snapshot =
      obs::Registry::Global()->GetCounter("mdm_quel_snapshot_reads_total");
  for (int i = 0; i < 5; ++i) {
    MustCreate(&db, "NOTE", i);  // direct API, no WriteTxn
    const uint64_t before = snapshot->value();
    auto rs = conn.Execute("range of n is NOTE retrieve (c = count(n.name))");
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(rs->rows[0][0].AsInt(), i + 1);
    // Both statements, the range and the retrieve, read the pin.
    EXPECT_EQ(snapshot->value() - before, 2u);
  }
}

// ----------------------------------------------------------------------
// The write bracket: a WriteTxn dropped without Commit (the error path)
// still ends its group — the applied prefix is published and its WAL
// transaction committed — and releases the latch.
// ----------------------------------------------------------------------
TEST(WriteTxnTest, DroppedWithoutCommitPublishesAndCommitsItsPrefix) {
  storage::MemoryWalSink sink;
  storage::WalWriter wal(&sink);
  Database db;
  db.AttachJournal(&wal);
  ASSERT_TRUE(
      ddl::ExecuteDdl("define entity NOTE (name = integer)", &db).ok());
  {
    er::WriteTxn txn(&db);
    MustCreate(&db, "NOTE", 1);
    MustCreate(&db, "NOTE", 2);
    // A failing op, after which the caller returns without Commit.
    EXPECT_FALSE(txn->CreateEntity("NO_SUCH_TYPE").ok());
  }
  {
    er::SnapshotReadScope pin(&db, db.PinSnapshot());
    EXPECT_EQ(*db.CountEntities("NOTE"), 2u);
  }
  {
    er::WriteTxn next(&db);  // the latch was released: no self-deadlock
    MustCreate(&db, "NOTE", 3);
    ASSERT_TRUE(next.Commit().ok());
  }

  Database replica;
  ASSERT_TRUE(replica.ReplayJournal(sink.bytes()).ok());
  EXPECT_EQ(*replica.CountEntities("NOTE"), 3u);
}

/// A journal sink whose Sync blocks until Release, so a test can look
/// at the database while a committer waits for durability.
class GatedSyncSink : public storage::MemoryWalSink {
 public:
  Status Sync() override {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
    return Status::OK();
  }
  bool AwaitSync() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

// Commit publishes and releases the latch BEFORE it waits for the
// fsync: while the group-commit sync is still blocked, readers already
// see the commit and a second writer gets the latch.
TEST(WriteTxnTest, LatchIsFreeWhileCommitWaitsForDurability) {
  GatedSyncSink sink;
  storage::WalWriter wal(&sink);
  er::CommitCoordinator coordinator(&wal, {});
  Database db;
  ASSERT_TRUE(
      ddl::ExecuteDdl("define entity NOTE (name = integer)", &db).ok());
  db.AttachJournal(&wal);
  db.AttachCommitCoordinator(&coordinator);

  std::atomic<bool> committed{false};
  Status commit;
  std::thread committer([&] {
    er::WriteTxn txn(&db);
    MustCreate(&db, "NOTE", 1);
    commit = txn.Commit();
    committed.store(true);
  });
  const bool syncing = sink.AwaitSync();
  uint64_t visible = 0;
  {
    er::SnapshotReadScope pin(&db, db.PinSnapshot());
    visible = *db.CountEntities("NOTE");
  }
  // A second writer takes the latch while the first still waits; it
  // commits after the release, in the next sync.
  std::atomic<bool> latched{false};
  Status second;
  std::thread writer([&] {
    er::WriteTxn txn(&db);
    latched.store(true);
    MustCreate(&db, "NOTE", 2);
    second = txn.Commit();
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!latched.load() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const bool latch_free = latched.load();
  const bool waiting = !committed.load();
  sink.Release();
  committer.join();
  writer.join();

  EXPECT_TRUE(syncing) << "the commit never reached the journal sync";
  EXPECT_EQ(visible, 1u);
  EXPECT_TRUE(latch_free) << "Commit waited for durability holding the latch";
  EXPECT_TRUE(waiting) << "Commit returned before its sync finished";
  EXPECT_TRUE(commit.ok()) << commit.ToString();
  EXPECT_TRUE(second.ok()) << second.ToString();
  db.AttachCommitCoordinator(nullptr);
}

}  // namespace
}  // namespace mdm
