// Deterministic power-cut simulator (the crash-consistency acceptance
// test). A fixed musical workload — chords, notes, orderings, NEXT
// relationships, deletes, checkpoints — runs against a DurableDatabase
// while the global failpoint registry cuts power at every single I/O
// boundary in turn. After each cut the database is reopened and its
// recovered state must equal the state after some step k with
// acked <= k <= attempted: nothing acknowledged is ever lost, nothing
// half-applied ever surfaces.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "er/persist.h"
#include "rel/value.h"

namespace mdm {
namespace {

using er::DurableDatabase;
using rel::Value;

/// Directory for the simulator's database files. The full sweep performs
/// tens of thousands of fsyncs, so prefer tmpfs when available.
std::string CrashDir() {
  static const std::string dir = [] {
    std::string d = "/dev/shm/mdm_crash_sim";
    ::mkdir(d.c_str(), 0755);
    std::string probe = d + "/probe";
    std::FILE* f = std::fopen(probe.c_str(), "wb");
    if (f != nullptr) {
      std::fclose(f);
      std::remove(probe.c_str());
      return d;
    }
    d = testing::TempDir() + "/mdm_crash_sim";
    ::mkdir(d.c_str(), 0755);
    return d;
  }();
  return dir;
}

void RemoveDbFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  std::remove((path + ".wal").c_str());
  for (int e = 1; e <= 12; ++e)
    std::remove((path + ".wal." + std::to_string(e)).c_str());
}

struct Step {
  std::string what;
  std::function<Status(DurableDatabase*)> run;
};

constexpr int kChords = 16;
constexpr int kNotes = 3;

/// Entity ids are deterministic: ids are assigned 1, 2, 3, ... in
/// creation order, and the workload creates chord c followed by its
/// kNotes notes.
er::EntityId ChordId(int c) {
  return static_cast<er::EntityId>(1 + c * (1 + kNotes));
}
er::EntityId NoteId(int c, int n) { return ChordId(c) + 1 + n; }

/// ~200 schema + mutation + checkpoint steps, all deterministic.
std::vector<Step> BuildWorkload() {
  std::vector<Step> steps;
  auto add = [&](std::string what,
                 std::function<Status(DurableDatabase*)> fn) {
    steps.push_back({std::move(what), std::move(fn)});
  };
  add("define CHORD", [](DurableDatabase* h) {
    return h->db()->DefineEntityType(
        {"CHORD", {{"name", rel::ValueType::kInt, ""}}});
  });
  add("define NOTE", [](DurableDatabase* h) {
    return h->db()->DefineEntityType(
        {"NOTE",
         {{"pitch", rel::ValueType::kInt, ""},
          {"dur", rel::ValueType::kInt, ""}}});
  });
  add("define NEXT", [](DurableDatabase* h) {
    return h->db()->DefineRelationship(
        {"NEXT", {{"from", "CHORD"}, {"to", "CHORD"}}, {}});
  });
  add("define note_in_chord", [](DurableDatabase* h) {
    return h->db()
        ->DefineOrdering({"note_in_chord", {"NOTE"}, "CHORD"})
        .status();
  });
  for (int c = 0; c < kChords; ++c) {
    add("create chord " + std::to_string(c), [](DurableDatabase* h) {
      return h->db()->CreateEntity("CHORD").status();
    });
    add("name chord " + std::to_string(c), [c](DurableDatabase* h) {
      return h->db()->SetAttribute(ChordId(c), "name", Value::Int(c));
    });
    for (int n = 0; n < kNotes; ++n) {
      add("create note", [](DurableDatabase* h) {
        return h->db()->CreateEntity("NOTE").status();
      });
      add("pitch note", [c, n](DurableDatabase* h) {
        return h->db()->SetAttribute(NoteId(c, n), "pitch",
                                     Value::Int(60 + (c * 7 + n) % 24));
      });
      add("append note", [c, n](DurableDatabase* h) {
        return h->db()->AppendChild("note_in_chord", ChordId(c),
                                    NoteId(c, n));
      });
    }
    if (c % 4 == 3) {
      add("checkpoint after chord " + std::to_string(c),
          [](DurableDatabase* h) { return h->Checkpoint(); });
    }
  }
  for (int c = 1; c < kChords; ++c) {
    add("connect NEXT " + std::to_string(c), [c](DurableDatabase* h) {
      return h->db()
          ->Connect("NEXT",
                    {{"from", ChordId(c - 1)}, {"to", ChordId(c)}})
          .status();
    });
  }
  for (int c = 0; c < 4; ++c) {
    add("delete first note of chord " + std::to_string(c),
        [c](DurableDatabase* h) {
          return h->db()->DeleteEntity(NoteId(c, 0));
        });
  }
  add("final checkpoint",
      [](DurableDatabase* h) { return h->Checkpoint(); });
  return steps;
}

/// Serializes everything the workload can affect: entities with their
/// attribute values, ordering edges, relationship instances. Visiting
/// order is deterministic (creation order), so equal fingerprints mean
/// equal database states.
std::string Fingerprint(const er::Database& db) {
  std::string out;
  for (const auto& et : db.schema().entity_types()) {
    out += et.name + "[";
    (void)db.ForEachEntity(et.name, [&](er::EntityId id) {
      out += std::to_string(id) + "{";
      for (const auto& attr : et.attributes) {
        auto v = db.GetAttribute(id, attr.name);
        out += attr.name + "=" + (v.ok() ? v->ToString() : "?") + ",";
      }
      out += "}";
      return true;
    });
    out += "]";
  }
  for (const auto& od : db.schema().orderings()) {
    out += od.name + "(";
    (void)db.ForEachEntity(od.parent_type, [&](er::EntityId parent) {
      auto kids = db.Children(od.name, parent);
      if (kids.ok() && !kids->empty()) {
        out += std::to_string(parent) + ":";
        for (er::EntityId k : *kids) out += std::to_string(k) + ".";
        out += ";";
      }
      return true;
    });
    out += ")";
  }
  for (const auto& rd : db.schema().relationships()) {
    out += rd.name + "<";
    (void)db.ForEachRelationship(
        rd.name, [&](const er::RelationshipInstance& ri) {
          out += std::to_string(ri.id) + ":";
          for (er::EntityId r : ri.role_refs) out += std::to_string(r) + ".";
          out += ";";
          return true;
        });
    out += ">";
  }
  return out;
}

struct RunOutcome {
  size_t acked = 0;      // steps that returned OK
  size_t attempted = 0;  // acked plus the step that failed, if any
};

/// Applies steps until the first failure. The in-memory database may
/// have partially applied the failing step, which is why the run stops:
/// only the on-disk state is consulted afterwards.
RunOutcome RunSteps(DurableDatabase* h, const std::vector<Step>& steps) {
  RunOutcome out;
  for (size_t i = 0; i < steps.size(); ++i) {
    out.attempted = i + 1;
    if (!steps[i].run(h).ok()) return out;
    out.acked = i + 1;
  }
  return out;
}

/// A database path private to the calling test, so ctest can run the
/// simulator's tests in parallel without file collisions.
std::string TestDbPath(const char* tag) {
  return CrashDir() + "/" +
         testing::UnitTest::GetInstance()->current_test_info()->name() +
         "." + tag + ".mdm";
}

/// ref[k] = fingerprint after the first k steps, from an uninjected run.
std::vector<std::string> ReferenceFingerprints(
    const std::vector<Step>& steps) {
  std::string path = TestDbPath("ref");
  RemoveDbFiles(path);
  std::vector<std::string> ref;
  {
    auto h = DurableDatabase::Open(path);
    EXPECT_TRUE(h.ok()) << h.status().ToString();
    if (!h.ok()) return ref;
    ref.push_back(Fingerprint(*(*h)->db()));
    for (const Step& s : steps) {
      Status st = s.run((*h).get());
      EXPECT_TRUE(st.ok()) << s.what << ": " << st.ToString();
      ref.push_back(Fingerprint(*(*h)->db()));
    }
  }
  RemoveDbFiles(path);
  return ref;
}

/// True iff the recovered state equals some committed prefix within
/// [acked, attempted].
bool MatchesCommittedPrefix(const std::string& got,
                            const std::vector<std::string>& ref,
                            const RunOutcome& rc, size_t* matched_k) {
  for (size_t k = rc.acked; k <= rc.attempted && k < ref.size(); ++k) {
    if (got == ref[k]) {
      *matched_k = k;
      return true;
    }
  }
  return false;
}

TEST(CrashSimTest, PowerCutAtEveryIoBoundary) {
  FailpointRegistry* reg = FailpointRegistry::Global();
  reg->Reset();
  std::vector<Step> steps = BuildWorkload();
  std::vector<std::string> ref = ReferenceFingerprints(steps);
  ASSERT_EQ(ref.size(), steps.size() + 1);

  // Dry run with the cut armed past the horizon: counts the I/O
  // boundaries without failing any of them.
  std::string path = TestDbPath("cut");
  uint64_t total_io = 0;
  {
    RemoveDbFiles(path);
    reg->ArmPowerCutAtIo(std::numeric_limits<uint64_t>::max());
    auto h = DurableDatabase::Open(path);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    RunOutcome rc = RunSteps((*h).get(), steps);
    ASSERT_EQ(rc.acked, steps.size());
    total_io = reg->io_count();
    reg->Reset();
  }
  ASSERT_GE(total_io, 500u)
      << "workload too small to cover 500 distinct crash points";

  // Cut power at every I/O boundary, with varying amounts of the
  // in-flight bytes surviving the tear.
  const double keeps[5] = {0.0, 0.3, 0.5, 0.8, 0.97};
  uint64_t violations = 0;
  for (uint64_t cut = 1; cut <= total_io; ++cut) {
    double keep = keeps[cut % 5];
    RemoveDbFiles(path);
    reg->ArmPowerCutAtIo(cut, keep);
    RunOutcome rc;  // stays {0, 0} when the cut kills Open itself
    {
      auto h = DurableDatabase::Open(path);
      if (h.ok()) rc = RunSteps((*h).get(), steps);
    }
    reg->Reset();
    auto h = DurableDatabase::Open(path);
    ASSERT_TRUE(h.ok())
        << "cut " << cut << ": recovery failed: " << h.status().ToString();
    size_t k = 0;
    if (!MatchesCommittedPrefix(Fingerprint(*(*h)->db()), ref, rc, &k)) {
      ++violations;
      ADD_FAILURE() << "cut " << cut << " (keep " << keep
                    << "): recovered state matches no step in ["
                    << rc.acked << ", " << rc.attempted << "]";
    }
  }
  EXPECT_EQ(violations, 0u);
  RemoveDbFiles(path);
}

TEST(CrashSimTest, ProbabilisticTornAppendTorture) {
  FailpointRegistry* reg = FailpointRegistry::Global();
  reg->Reset();
  std::vector<Step> steps = BuildWorkload();
  std::vector<std::string> ref = ReferenceFingerprints(steps);
  ASSERT_EQ(ref.size(), steps.size() + 1);

  // Random journal-append failures. kTornWrite is deliberately absent:
  // an append that tears *and reports success* models firmware lying
  // about durability, which no journal protocol can survive — the
  // page-level checksums cover that class instead.
  const FaultKind kinds[3] = {FaultKind::kError, FaultKind::kShortWrite,
                              FaultKind::kPowerCut};
  std::string path = TestDbPath("torture");
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    RemoveDbFiles(path);
    reg->Reset();
    reg->Arm("wal.append", Failpoint::FailWithProbability(
                               0.02, seed, kinds[seed % 3], 0.5));
    RunOutcome rc;
    {
      auto h = DurableDatabase::Open(path);
      if (h.ok()) rc = RunSteps((*h).get(), steps);
    }
    reg->Reset();
    auto h = DurableDatabase::Open(path);
    ASSERT_TRUE(h.ok()) << "seed " << seed
                        << ": recovery failed: " << h.status().ToString();
    size_t k = 0;
    EXPECT_TRUE(
        MatchesCommittedPrefix(Fingerprint(*(*h)->db()), ref, rc, &k))
        << "seed " << seed << ": recovered state matches no step in ["
        << rc.acked << ", " << rc.attempted << "]";
  }
  RemoveDbFiles(path);
}

// Group commit + statement groups under power cuts. Each step below is
// a BATCH — one statement group, i.e. one WAL transaction with a single
// commit record, exactly what Connection::ExecuteBatch produces — and
// the database runs with the commit coordinator attached. The sweep
// cuts power at every I/O boundary; the recovered state must land on a
// BATCH boundary. A fingerprint between boundaries would mean a batch
// tore in half (half its mutations applied after recovery), violating
// all-or-nothing; a commit record fsynced by a leader on behalf of a
// follower must likewise never be lost once acknowledged.
std::vector<Step> BuildBatchedWorkload() {
  std::vector<Step> steps;
  auto add = [&](std::string what,
                 std::function<Status(DurableDatabase*)> fn) {
    steps.push_back({std::move(what), std::move(fn)});
  };
  // Wraps `body` in one WriteTxn and waits for durability — the
  // in-process shape of an ExecuteBatch call.
  auto batched = [](std::function<Status(er::Database*)> body) {
    return [body](DurableDatabase* h) -> Status {
      er::WriteTxn txn(h->db());
      MDM_RETURN_IF_ERROR(body(h->db()));
      return txn.Commit();
    };
  };
  add("schema batch", batched([](er::Database* db) -> Status {
        MDM_RETURN_IF_ERROR(db->DefineEntityType(
            {"CHORD", {{"name", rel::ValueType::kInt, ""}}}));
        MDM_RETURN_IF_ERROR(db->DefineEntityType(
            {"NOTE",
             {{"pitch", rel::ValueType::kInt, ""},
              {"dur", rel::ValueType::kInt, ""}}}));
        MDM_RETURN_IF_ERROR(db->DefineRelationship(
            {"NEXT", {{"from", "CHORD"}, {"to", "CHORD"}}, {}}));
        return db->DefineOrdering({"note_in_chord", {"NOTE"}, "CHORD"})
            .status();
      }));
  constexpr int kBatchChords = 8;
  for (int c = 0; c < kBatchChords; ++c) {
    add("chord batch " + std::to_string(c),
        batched([c](er::Database* db) -> Status {
          MDM_ASSIGN_OR_RETURN(er::EntityId chord, db->CreateEntity("CHORD"));
          MDM_RETURN_IF_ERROR(db->SetAttribute(chord, "name", Value::Int(c)));
          for (int n = 0; n < kNotes; ++n) {
            MDM_ASSIGN_OR_RETURN(er::EntityId note, db->CreateEntity("NOTE"));
            MDM_RETURN_IF_ERROR(db->SetAttribute(
                note, "pitch", Value::Int(60 + (c * 7 + n) % 24)));
            MDM_RETURN_IF_ERROR(
                db->AppendChild("note_in_chord", chord, note));
          }
          if (c > 0)
            return db
                ->Connect("NEXT", {{"from", ChordId(c - 1)}, {"to", chord}})
                .status();
          return Status::OK();
        }));
    if (c % 4 == 3) {
      add("checkpoint after batch " + std::to_string(c),
          [](DurableDatabase* h) { return h->Checkpoint(); });
    }
  }
  add("delete batch", batched([](er::Database* db) -> Status {
        for (int c = 0; c < 3; ++c)
          MDM_RETURN_IF_ERROR(db->DeleteEntity(NoteId(c, 0)));
        return Status::OK();
      }));
  return steps;
}

TEST(CrashSimTest, GroupCommitBatchesArePowerCutAtomic) {
  FailpointRegistry* reg = FailpointRegistry::Global();
  reg->Reset();
  std::vector<Step> steps = BuildBatchedWorkload();
  std::vector<std::string> ref = ReferenceFingerprints(steps);
  ASSERT_EQ(ref.size(), steps.size() + 1);

  const er::CommitCoordinator::Options gc{/*interval_us=*/0,
                                          /*max_batch=*/8};
  std::string path = TestDbPath("gc");
  uint64_t total_io = 0;
  {
    RemoveDbFiles(path);
    reg->ArmPowerCutAtIo(std::numeric_limits<uint64_t>::max());
    auto h = DurableDatabase::Open(path);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    (*h)->EnableGroupCommit(gc);
    RunOutcome rc = RunSteps((*h).get(), steps);
    ASSERT_EQ(rc.acked, steps.size());
    total_io = reg->io_count();
    reg->Reset();
  }
  ASSERT_GE(total_io, 100u)
      << "batched workload too small to cover distinct crash points";

  const double keeps[5] = {0.0, 0.3, 0.5, 0.8, 0.97};
  uint64_t violations = 0;
  for (uint64_t cut = 1; cut <= total_io; ++cut) {
    double keep = keeps[cut % 5];
    RemoveDbFiles(path);
    reg->ArmPowerCutAtIo(cut, keep);
    RunOutcome rc;
    {
      auto h = DurableDatabase::Open(path);
      if (h.ok()) {
        (*h)->EnableGroupCommit(gc);
        rc = RunSteps((*h).get(), steps);
      }
    }
    reg->Reset();
    auto h = DurableDatabase::Open(path);
    ASSERT_TRUE(h.ok())
        << "cut " << cut << ": recovery failed: " << h.status().ToString();
    size_t k = 0;
    if (!MatchesCommittedPrefix(Fingerprint(*(*h)->db()), ref, rc, &k)) {
      ++violations;
      ADD_FAILURE() << "cut " << cut << " (keep " << keep
                    << "): recovered state matches no batch boundary in ["
                    << rc.acked << ", " << rc.attempted << "]";
    }
  }
  EXPECT_EQ(violations, 0u);
  RemoveDbFiles(path);
}

// Recovery must be idempotent: opening an intact database is a pure
// read — two consecutive Open() calls (snapshot restore + journal
// replay each time) land on the same state, same epoch, and leave the
// on-disk files untouched. A recovery that "repairs" something on a
// clean open would mean replay itself mutates durable state.
TEST(CrashSimTest, ConsecutiveRecoveriesAreIdempotent) {
  FailpointRegistry::Global()->Reset();
  std::vector<Step> steps = BuildWorkload();
  std::string path = TestDbPath("idem");
  RemoveDbFiles(path);

  std::string fp_live;
  {
    auto h = DurableDatabase::Open(path);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    RunOutcome rc = RunSteps((*h).get(), steps);
    ASSERT_EQ(rc.acked, steps.size());
    // Leave uncheckpointed work in the journal so recovery actually
    // replays (the workload ends on a checkpoint; mutate past it).
    ASSERT_TRUE(
        (*h)->db()->SetAttribute(ChordId(0), "name", Value::Int(99)).ok());
    ASSERT_TRUE((*h)->db()->DeleteEntity(NoteId(5, 1)).ok());
    fp_live = Fingerprint(*(*h)->db());
  }

  std::string fp_first;
  uint64_t epoch_first = 0;
  {
    auto h = DurableDatabase::Open(path);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    fp_first = Fingerprint(*(*h)->db());
    epoch_first = (*h)->epoch();
  }
  EXPECT_EQ(fp_first, fp_live);

  {
    auto h = DurableDatabase::Open(path);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    EXPECT_EQ(Fingerprint(*(*h)->db()), fp_first);
    EXPECT_EQ((*h)->epoch(), epoch_first);
  }
  RemoveDbFiles(path);
}

}  // namespace
}  // namespace mdm
