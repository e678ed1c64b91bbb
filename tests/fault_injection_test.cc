// Fault-injection suite: the failpoint registry itself, the
// FaultInjectingWalSink decorator, and DurableDatabase behavior under
// injected snapshot/journal failures (torn WAL tails, bit-flipped
// records, corrupt snapshots).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "er/persist.h"
#include "net/connection.h"
#include "rel/value.h"
#include "storage/fault_injection.h"
#include "storage/wal.h"

namespace mdm::storage {
namespace {

TEST(FailpointTest, DisarmedNeverFires) {
  Failpoint fp;
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(fp.Eval().fired());
  EXPECT_EQ(fp.fires(), 0u);
}

TEST(FailpointTest, FailNthFiresExactlyOnce) {
  Failpoint fp = Failpoint::FailNth(3, FaultKind::kError);
  EXPECT_FALSE(fp.Eval().fired());
  EXPECT_FALSE(fp.Eval().fired());
  FaultDecision d = fp.Eval();
  EXPECT_EQ(d.kind, FaultKind::kError);
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(fp.Eval().fired());
  EXPECT_EQ(fp.hits(), 13u);
  EXPECT_EQ(fp.fires(), 1u);
}

TEST(FailpointTest, ProbabilityStreamIsDeterminedBySeed) {
  Failpoint a = Failpoint::FailWithProbability(0.3, 42, FaultKind::kError);
  Failpoint b = Failpoint::FailWithProbability(0.3, 42, FaultKind::kError);
  int fires = 0;
  for (int i = 0; i < 500; ++i) {
    bool fa = a.Eval().fired();
    EXPECT_EQ(fa, b.Eval().fired()) << "diverged at eval " << i;
    fires += fa;
  }
  EXPECT_GT(fires, 80);   // ~150 expected
  EXPECT_LT(fires, 250);
}

TEST(FailpointTest, PowerCutLatchesAndCountsIo) {
  FailpointRegistry reg;
  EXPECT_FALSE(reg.armed());
  reg.Eval("a");  // disarmed: not counted
  EXPECT_EQ(reg.io_count(), 0u);
  reg.ArmPowerCutAtIo(3);
  EXPECT_FALSE(reg.Eval("a").fired());
  EXPECT_FALSE(reg.Eval("b").fired());
  EXPECT_EQ(reg.Eval("c").kind, FaultKind::kPowerCut);
  EXPECT_TRUE(reg.power_out());
  EXPECT_EQ(reg.Eval("d").kind, FaultKind::kError);
  EXPECT_EQ(reg.io_count(), 4u);
  reg.Reset();
  EXPECT_FALSE(reg.armed());
  EXPECT_FALSE(reg.Eval("a").fired());
  EXPECT_EQ(reg.io_count(), 0u);
}

/// Tests below drive the WAL through FaultInjectingWalSink with a local
/// registry; the process-global one is reset around each case so a
/// leak from an earlier test cannot fire inside them.
class GlobalFaultTest : public testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Global()->Reset(); }
  void TearDown() override { FailpointRegistry::Global()->Reset(); }
};

TEST_F(GlobalFaultTest, TornWalAppendRecoversCommittedPrefix) {
  // Txn 2's commit record (its third append) is torn silently, torn
  // with an error, or refused outright. Recovery replays txn 1 alone.
  for (FaultKind kind :
       {FaultKind::kTornWrite, FaultKind::kShortWrite, FaultKind::kError}) {
    SCOPED_TRACE(FaultKindName(kind));
    MemoryWalSink base;
    FailpointRegistry reg;
    FaultInjectingWalSink sink(&base, &reg);
    WalWriter wal(&sink);
    auto t1 = wal.Begin();
    ASSERT_TRUE(t1.ok());
    ASSERT_TRUE(wal.LogOp(*t1, "keep-me").ok());
    ASSERT_TRUE(wal.Commit(*t1).ok());
    reg.Arm("walsink.append", Failpoint::FailNth(3, kind, 0.4));
    auto t2 = wal.Begin();
    ASSERT_TRUE(t2.ok());
    ASSERT_TRUE(wal.LogOp(*t2, "lost").ok());
    if (kind == FaultKind::kTornWrite)
      ASSERT_TRUE(wal.Commit(*t2).ok());  // silent tear under the sync
    else
      EXPECT_EQ(wal.Commit(*t2).code(), StatusCode::kIoError);
    std::vector<std::string> applied;
    ASSERT_TRUE(WalRecover(base.bytes(), [&](const WalRecord& rec) {
                  applied.push_back(rec.payload);
                  return Status::OK();
                })
                    .ok());
    ASSERT_EQ(applied.size(), 1u);
    EXPECT_EQ(applied[0], "keep-me");
  }
}

TEST_F(GlobalFaultTest, WalSinkSyncFailureSurfacesToCommit) {
  MemoryWalSink base;
  FailpointRegistry reg;
  FaultInjectingWalSink sink(&base, &reg);
  WalWriter wal(&sink);
  auto t1 = wal.Begin();
  ASSERT_TRUE(t1.ok());
  reg.Arm("walsink.sync", Failpoint::FailNth(1, FaultKind::kError));
  EXPECT_EQ(wal.Commit(*t1).code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace mdm::storage

namespace mdm::er {
namespace {

using rel::Value;

class PersistFaultTest : public testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Global()->Reset(); }
  void TearDown() override { FailpointRegistry::Global()->Reset(); }

  static std::string TempPath(const char* name) {
    std::string path = testing::TempDir() + "/" + name;
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    std::remove((path + ".wal").c_str());
    for (int e = 1; e <= 4; ++e)
      std::remove((path + ".wal." + std::to_string(e)).c_str());
    return path;
  }

  static void DefineSchemaAndNotes(Database* db, int notes) {
    ASSERT_TRUE(db->DefineEntityType(
                      {"NOTE", {{"pitch", rel::ValueType::kInt, ""}}})
                    .ok());
    for (int i = 0; i < notes; ++i) {
      auto note = db->CreateEntity("NOTE");
      ASSERT_TRUE(note.ok());
      ASSERT_TRUE(
          db->SetAttribute(*note, "pitch", Value::Int(60 + i)).ok());
    }
  }
};

TEST_F(PersistFaultTest, SnapshotWriteFailureKeepsOldPairRecoverable) {
  std::string path = TempPath("snap_fail.mdm");
  {
    auto handle = DurableDatabase::Open(path);
    ASSERT_TRUE(handle.ok());
    DefineSchemaAndNotes((*handle)->db(), 3);
    FailpointRegistry::Global()->Arm(
        "snapshot.write", Failpoint::FailNth(1, FaultKind::kError));
    EXPECT_EQ((*handle)->Checkpoint().code(), StatusCode::kIoError);
    FailpointRegistry::Global()->Reset();
    // The journal is still live: mutations keep working.
    EXPECT_TRUE((*handle)->db()->CreateEntity("NOTE").ok());
  }
  auto handle = DurableDatabase::Open(path);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_EQ((*handle)->db()->TotalEntities(), 4u);
}

// A committer whose journal append fails — its begin, op or commit
// record — must not stay counted in flight: a leaked count would hold
// every later lone commit for the coordinator's whole window.
TEST_F(PersistFaultTest, FailedJournalAppendLeavesNoCommitterInFlight) {
  std::string path = TempPath("gc_in_flight.mdm");
  auto handle = DurableDatabase::Open(path);
  ASSERT_TRUE(handle.ok());
  (*handle)->EnableGroupCommit({/*interval_us=*/2'000'000, /*max_batch=*/64});
  Database* db = (*handle)->db();
  DefineSchemaAndNotes(db, 1);
  mdm::Connection conn = mdm::Connection::Local(db);
  auto lone_commit_seconds = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_TRUE(conn.Execute("append to NOTE (pitch = 70)").ok());
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  for (uint64_t nth = 1; nth <= 3; ++nth) {
    // Statement group: the nth append of the statement fails.
    FailpointRegistry::Global()->Arm(
        "wal.append", Failpoint::FailNth(nth, FaultKind::kError));
    (void)conn.Execute("append to NOTE (pitch = 61)");
    FailpointRegistry::Global()->Reset();
    EXPECT_LT(lone_commit_seconds(), 1.0) << "statement, append " << nth;
    // Auto-commit through the direct API: the same, one op per txn.
    FailpointRegistry::Global()->Arm(
        "wal.append", Failpoint::FailNth(nth, FaultKind::kError));
    (void)db->CreateEntity("NOTE");
    FailpointRegistry::Global()->Reset();
    EXPECT_LT(lone_commit_seconds(), 1.0) << "auto-commit, append " << nth;
  }
}

TEST_F(PersistFaultTest, SilentlyTornSnapshotCaughtBeforeJournalRotation) {
  std::string path = TempPath("snap_torn.mdm");
  {
    auto handle = DurableDatabase::Open(path);
    ASSERT_TRUE(handle.ok());
    DefineSchemaAndNotes((*handle)->db(), 3);
    // The snapshot write tears but reports success; the read-back
    // verification must catch it while the journal is still intact.
    FailpointRegistry::Global()->Arm(
        "snapshot.write",
        Failpoint::FailNth(1, FaultKind::kTornWrite, 0.6));
    EXPECT_EQ((*handle)->Checkpoint().code(), StatusCode::kCorruption);
    FailpointRegistry::Global()->Reset();
    EXPECT_EQ((*handle)->epoch(), 0u);  // rotation never happened
  }
  auto handle = DurableDatabase::Open(path);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_EQ((*handle)->db()->TotalEntities(), 3u);
}

TEST_F(PersistFaultTest, CrashBetweenSnapshotRenameAndJournalRotation) {
  std::string path = TempPath("snap_window.mdm");
  {
    auto handle = DurableDatabase::Open(path);
    ASSERT_TRUE(handle.ok());
    DefineSchemaAndNotes((*handle)->db(), 3);
    // The new snapshot lands, but creating the next epoch's journal
    // fails — the historical double-apply window.
    FailpointRegistry::Global()->Arm(
        "wal.truncate", Failpoint::FailNth(1, FaultKind::kError));
    EXPECT_EQ((*handle)->Checkpoint().code(), StatusCode::kIoError);
    FailpointRegistry::Global()->Reset();
    // The handle is poisoned: no mutation may be acknowledged without
    // a journal to log it.
    EXPECT_EQ((*handle)->db()->CreateEntity("NOTE").status().code(),
              StatusCode::kIoError);
  }
  // The old epoch-0 journal still exists on disk; recovery must use the
  // new snapshot and must NOT replay the old journal on top of it.
  auto handle = DurableDatabase::Open(path);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_EQ((*handle)->db()->TotalEntities(), 3u);
}

TEST_F(PersistFaultTest, CorruptSnapshotSurfacesCorruptionNotHalfRestore) {
  std::string path = TempPath("snap_corrupt.mdm");
  {
    auto handle = DurableDatabase::Open(path);
    ASSERT_TRUE(handle.ok());
    DefineSchemaAndNotes((*handle)->db(), 5);
    ASSERT_TRUE((*handle)->Checkpoint().ok());
  }
  // Flip one payload byte in the snapshot.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, -7, SEEK_END), 0);
    int c = std::fgetc(f);
    ASSERT_EQ(std::fseek(f, -7, SEEK_END), 0);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }
  auto handle = DurableDatabase::Open(path);
  EXPECT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kCorruption);
  auto snap = LoadSnapshot(path);
  EXPECT_EQ(snap.status().code(), StatusCode::kCorruption);
}

TEST_F(PersistFaultTest, BitFlippedWalRecordRecoversCleanPrefix) {
  std::string path = TempPath("wal_flip.mdm");
  std::string wal_file;
  {
    auto handle = DurableDatabase::Open(path);
    ASSERT_TRUE(handle.ok());
    DefineSchemaAndNotes((*handle)->db(), 6);
    wal_file = (*handle)->wal_path();
  }
  // Flip a byte ~60% into the journal: every record from there on is
  // dead, everything before replays.
  {
    auto bytes = storage::ReadWalFile(wal_file);
    ASSERT_TRUE(bytes.ok());
    ASSERT_GT(bytes->size(), 20u);
    long pos = static_cast<long>(bytes->size() * 6 / 10);
    std::FILE* f = std::fopen(wal_file.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, pos, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_EQ(std::fseek(f, pos, SEEK_SET), 0);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  auto handle = DurableDatabase::Open(path);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  // A strict prefix survived, and the database stays writable.
  EXPECT_LT((*handle)->db()->TotalEntities(), 7u);
  EXPECT_TRUE((*handle)->db()->Exists(1));
  EXPECT_TRUE((*handle)->db()->CreateEntity("NOTE").ok());
}

}  // namespace
}  // namespace mdm::er
