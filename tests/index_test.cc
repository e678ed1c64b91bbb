// Secondary attribute indexes (§5.2 as physical design): DDL round
// trip, planner probe selection with explain goldens (including the
// footnote 3 wrong-key fallback), index-nested-loop `is` joins,
// maintenance under update/delete, null-key scan fallback, seeded
// ablation-equivalence fuzz, journal replay + snapshot round trip,
// power-cut-sim consistency, meta-schema cataloguing, obs metrics, and
// Local/Remote DDL parity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"
#include "common/strings.h"
#include "ddl/parser.h"
#include "er/database.h"
#include "er/persist.h"
#include "meta/meta_schema.h"
#include "net/connection.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "quel/quel.h"

namespace mdm {
namespace {

using er::AttrIndex;
using er::AttrIndexDef;
using er::EntityId;
using rel::Value;

/// Every index must agree exactly with a full scan: each entity whose
/// attribute compares equal to its own stored value is reachable
/// through IndexLookup, and the tree holds one entry per non-null
/// value (hash collisions make lookups supersets, never subsets).
void ValidateIndexConsistency(const er::Database& db) {
  for (const AttrIndexDef& def : db.AttrIndexDefs()) {
    const AttrIndex* ix = db.FindAttrIndexByName(def.name);
    ASSERT_NE(ix, nullptr) << def.name;
    ASSERT_TRUE(ix->tree.CheckInvariants().ok()) << def.name;
    uint64_t non_null = 0;
    ASSERT_TRUE(db.ForEachEntity(def.entity_type, [&](EntityId id) {
                    auto v = db.GetAttribute(id, def.attr);
                    EXPECT_TRUE(v.ok());
                    if (!v.ok() || v->is_null()) return true;
                    ++non_null;
                    std::vector<EntityId> hits = db.IndexLookup(*ix, *v);
                    EXPECT_NE(std::find(hits.begin(), hits.end(), id),
                              hits.end())
                        << def.name << ": entity " << id
                        << " missing from probe for " << v->ToString();
                    return true;
                  })
                    .ok());
    EXPECT_EQ(ix->tree.size(), non_null) << def.name;
  }
}

std::vector<int64_t> Ints(const quel::ResultSet& rs) {
  std::vector<int64_t> out;
  for (const auto& row : rs.rows)
    out.push_back(row[0].is_null() ? std::numeric_limits<int64_t>::min()
                                   : row[0].AsInt());
  std::sort(out.begin(), out.end());
  return out;
}

/// A process-wide counter on the obs registry (0 until registered).
/// Tests take it before and after an operation and assert on the delta.
uint64_t CounterValue(const std::string& name) {
  const std::map<std::string, uint64_t> values =
      obs::Registry::Global()->CounterValues();
  auto it = values.find(name);
  return it == values.end() ? 0 : it->second;
}

// ----------------------------------------------------------------------
// DDL surface.
// ----------------------------------------------------------------------

class IndexDdlTest : public testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(ddl::ExecuteDdl(R"(
      define entity CHORD (name = integer)
      define entity NOTE (name = integer, chord = CHORD)
    )",
                                &db_)
                    .ok());
  }
  er::Database db_;
};

TEST_F(IndexDdlTest, DefineAndDestroyRoundTrip) {
  Connection conn = Connection::Local(&db_);
  auto rs = conn.Execute("define index note_name on NOTE(name)");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->columns.size(), 4u);
  EXPECT_EQ(rs->columns[3], "indexes");
  EXPECT_EQ(rs->At(0, 3).AsInt(), 1);
  ASSERT_EQ(db_.AttrIndexDefs().size(), 1u);
  EXPECT_EQ(db_.AttrIndexDefs()[0].name, "note_name");
  // Canonical schema spellings are stored even when the DDL differs in
  // case.
  EXPECT_NE(db_.FindAttrIndex("note", "NAME"), nullptr);
  EXPECT_NE(db_.FindAttrIndexByName("NOTE_NAME"), nullptr);

  auto destroy = conn.Execute("destroy index note_name");
  ASSERT_TRUE(destroy.ok()) << destroy.status().ToString();
  EXPECT_EQ(destroy->At(0, 3).AsInt(), 1);
  EXPECT_TRUE(db_.AttrIndexDefs().empty());
  EXPECT_EQ(db_.FindAttrIndex("NOTE", "name"), nullptr);
}

TEST_F(IndexDdlTest, DdlErrors) {
  Connection conn = Connection::Local(&db_);
  ASSERT_TRUE(conn.Execute("define index i1 on NOTE(name)").ok());
  EXPECT_EQ(conn.Execute("define index i1 on CHORD(name)").status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(conn.Execute("define index i2 on GHOST(name)").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(conn.Execute("define index i2 on NOTE(ghost)").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(conn.Execute("destroy index ghost").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(conn.Execute("define index broken on NOTE").status().code(),
            StatusCode::kParseError);
  // Check-only parsing accepts the new productions without a database.
  EXPECT_TRUE(
      ddl::CheckDdlSyntax("define index i9 on NOPE(xyz)\ndestroy index i9")
          .ok());
}

TEST_F(IndexDdlTest, BackfillIndexesExistingEntities) {
  for (int i = 0; i < 10; ++i) {
    auto id = db_.CreateEntity("NOTE");
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(db_.SetAttribute(*id, "name", Value::Int(i % 4)).ok());
  }
  const uint64_t rebuilds = CounterValue("mdm_index_rebuilds_total");
  ASSERT_TRUE(db_.DefineIndex({"note_name", "NOTE", "name"}).ok());
  const AttrIndex* ix = db_.FindAttrIndexByName("note_name");
  ASSERT_NE(ix, nullptr);
  EXPECT_EQ(ix->tree.size(), 10u);
  EXPECT_GE(CounterValue("mdm_index_rebuilds_total") - rebuilds, 1u);
  ValidateIndexConsistency(db_);
}

// ----------------------------------------------------------------------
// Planner + executor: the §5.6 chord database with an index on
// NOTE(name) and an entity-valued NOTE.chord reference for `is` joins.
// ----------------------------------------------------------------------

class IndexPlanTest : public testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(ddl::ExecuteDdl(R"(
      define entity CHORD (name = integer)
      define entity NOTE (name = integer, chord = CHORD)
      define index note_name on NOTE(name)
      define index note_chord on NOTE(chord)
    )",
                                &db_)
                    .ok());
    for (int c = 1; c <= 2; ++c) {
      auto chord = db_.CreateEntity("CHORD");
      ASSERT_TRUE(chord.ok());
      ASSERT_TRUE(db_.SetAttribute(*chord, "name", Value::Int(c)).ok());
      chords_.push_back(*chord);
    }
    // Chord 1 holds notes 10, 20, 30; chord 2 holds 40, 50.
    AddNote(chords_[0], 10);
    AddNote(chords_[0], 20);
    AddNote(chords_[0], 30);
    AddNote(chords_[1], 40);
    AddNote(chords_[1], 50);
  }

  void AddNote(EntityId chord, int name) {
    auto id = db_.CreateEntity("NOTE");
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(db_.SetAttribute(*id, "name", Value::Int(name)).ok());
    ASSERT_TRUE(db_.SetAttribute(*id, "chord", Value::Ref(chord)).ok());
  }

  er::Database db_;
  std::vector<EntityId> chords_;
};

TEST_F(IndexPlanTest, ExplainGoldenIndexSelection) {
  Connection conn = Connection::Local(&db_);
  auto rs = conn.Execute(
      "range of n is NOTE\nexplain retrieve (n.name) where n.name = 30");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->ToString(),
            "plan: retrieve\n"
            "  pushdown: on\n"
            "  loop 1: n is NOTE (~5 rows) via index note_name(name)\n"
            "    filter: n.name = 30\n"
            "  emit: n.name\n");
  // The probed query answers correctly and touches one row.
  auto exec = conn.Execute(
      "range of n is NOTE\nretrieve (n.name) where n.name = 30");
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(Ints(*exec), (std::vector<int64_t>{30}));
  EXPECT_EQ(conn.local_stats().rows_scanned, 1u);
}

TEST_F(IndexPlanTest, ExplainWrongKeyFallsBackToScan) {
  // Footnote 3: a query on an un-indexed attribute cannot use the
  // index — the plan quietly keeps the scan.
  Connection conn = Connection::Local(&db_);
  ASSERT_TRUE(db_.DestroyIndex("note_name").ok());
  auto rs = conn.Execute(
      "range of n is NOTE\nexplain retrieve (n.name) where n.name = 30");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->ToString(),
            "plan: retrieve\n"
            "  pushdown: on\n"
            "  loop 1: n is NOTE (~5 rows)\n"
            "    filter: n.name = 30\n"
            "  emit: n.name\n");
  auto exec = conn.Execute(
      "range of n is NOTE\nretrieve (n.name) where n.name = 30");
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(Ints(*exec), (std::vector<int64_t>{30}));
  EXPECT_EQ(conn.local_stats().rows_scanned, 5u);  // full scan
}

TEST_F(IndexPlanTest, IndexNestedLoopJoinViaIs) {
  // §5.6 `is` join over the entity-valued reference: the outer chord
  // loop binds c, the inner note loop probes note_chord with Ref(c).
  Connection conn = Connection::Local(&db_);
  const char* query =
      "range of n is NOTE\nrange of c is CHORD\n"
      "retrieve (n.name) where n.chord is c and c.name = 2";
  auto plan = conn.Execute(std::string("range of n is NOTE\n"
                                       "range of c is CHORD\n"
                                       "explain retrieve (n.name)"
                                       " where n.chord is c and c.name = 2"));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->ToString(),
            "plan: retrieve\n"
            "  pushdown: on\n"
            "  loop 1: c is CHORD (~2 rows)\n"
            "    filter: c.name = 2\n"
            "  loop 2: n is NOTE (~5 rows) via index note_chord(chord)\n"
            "    filter: n.chord is c\n"
            "  emit: n.name\n");
  auto rs = conn.Execute(query);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(Ints(*rs), (std::vector<int64_t>{40, 50}));
  // 2 chords + 2 probed notes, instead of 2 + 2*5 scanned.
  EXPECT_EQ(conn.local_stats().rows_scanned, 4u);
}

TEST_F(IndexPlanTest, AblationDisablesProbesButKeepsAnswers) {
  Connection conn = Connection::Local(&db_);
  const char* query =
      "range of n is NOTE\nretrieve (n.name) where n.name = 20";
  auto indexed = conn.Execute(query);
  ASSERT_TRUE(indexed.ok());
  db_.EnableAttrIndex(false);
  conn.local_session()->ClearParseCache();
  auto explain = conn.Execute(
      "range of n is NOTE\nexplain retrieve (n.name) where n.name = 20");
  ASSERT_TRUE(explain.ok());
  EXPECT_EQ(explain->ToString().find("via index"), std::string::npos);
  auto ablated = conn.Execute(query);
  ASSERT_TRUE(ablated.ok());
  EXPECT_EQ(Ints(*indexed), Ints(*ablated));
  // Maintenance continues while disabled, so re-enabling needs no
  // rebuild.
  AddNote(chords_[0], 60);
  db_.EnableAttrIndex(true);
  ValidateIndexConsistency(db_);
}

TEST_F(IndexPlanTest, RuntimeNullKeyFallsBackToScan) {
  // A chord with a null name: probing with a null key would miss the
  // null-named note (nulls are never indexed), so the executor must
  // scan — null = null holds under Value::Compare.
  auto chord = db_.CreateEntity("CHORD");
  ASSERT_TRUE(chord.ok());
  auto note = db_.CreateEntity("NOTE");
  ASSERT_TRUE(note.ok());  // name stays null
  Connection conn = Connection::Local(&db_);
  const char* query =
      "range of n is NOTE\nrange of c is CHORD\n"
      "retrieve (k = count(n)) where n.name = c.name and c.name = 1";
  auto rs = conn.Execute(query);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->At(0, 0).AsInt(), 0);  // no note named 1
  const char* null_query =
      "range of n is NOTE\nrange of c is CHORD\n"
      "retrieve (k = count(n)) where n.name = c.name";
  auto with_null = conn.Execute(null_query);
  ASSERT_TRUE(with_null.ok());
  db_.EnableAttrIndex(false);
  conn.local_session()->ClearParseCache();
  auto ablated = conn.Execute(null_query);
  ASSERT_TRUE(ablated.ok());
  // The probe plan and the scan plan agree even with the null binding:
  // the only matching pair is (null-named note, null-named chord),
  // because nulls compare equal — and that note is invisible to the
  // index, so the probe MUST have fallen back to the scan to find it.
  EXPECT_EQ(with_null->At(0, 0).AsInt(), ablated->At(0, 0).AsInt());
  EXPECT_EQ(with_null->At(0, 0).AsInt(), 1);
}

TEST(IndexScanAgreementTest, IntKeysBeyondDoublePrecision) {
  // 2^53 and 2^53 + 1 are one double apart from nothing: a comparison
  // that rounded ints through a double would call them equal, and the
  // scan would then admit both rows where the index probe (exact int
  // keys) finds one.
  er::Database db;
  ASSERT_TRUE(ddl::ExecuteDdl("define entity E (k = integer)", &db).ok());
  constexpr int64_t k53 = int64_t{1} << 53;
  for (int64_t k : {k53, k53 + 1}) {
    auto e = db.CreateEntity("E");
    ASSERT_TRUE(e.ok());
    ASSERT_TRUE(db.SetAttribute(*e, "k", Value::Int(k)).ok());
  }
  Connection conn = Connection::Local(&db);
  const std::vector<std::pair<std::string, int64_t>> queries = {
      {"retrieve (c = count(E)) where E.k = 9007199254740993", 1},
      {"retrieve (c = count(E)) where E.k = 9007199254740992", 1},
      // An integral float literal keys onto the int it equals.
      {"retrieve (c = count(E)) where E.k = 9007199254740992.0", 1},
      {"retrieve (c = count(E)) where E.k != 9007199254740993", 1},
  };
  auto counts = [&] {
    std::vector<int64_t> out;
    for (const auto& [q, want] : queries) {
      auto rs = conn.Execute(q);
      EXPECT_TRUE(rs.ok()) << q << ": " << rs.status().ToString();
      out.push_back(rs.ok() ? rs->At(0, 0).AsInt() : -1);
    }
    return out;
  };
  const std::vector<int64_t> scanned = counts();
  ASSERT_TRUE(ddl::ExecuteDdl("define index ek on E(k)", &db).ok());
  conn.local_session()->ClearParseCache();
  auto plan = conn.Execute("explain " + queries[0].first);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->explain.find("via index ek(k)"), std::string::npos)
      << plan->explain;
  const std::vector<int64_t> probed = counts();
  EXPECT_EQ(scanned, probed);
  for (size_t i = 0; i < queries.size(); ++i)
    EXPECT_EQ(probed[i], queries[i].second) << queries[i].first;
}

TEST_F(IndexPlanTest, MaintenanceAcrossUpdateAndDelete) {
  const AttrIndex* ix = db_.FindAttrIndexByName("note_name");
  ASSERT_NE(ix, nullptr);
  const uint64_t inserts = CounterValue("mdm_index_inserts_total");
  const uint64_t erases = CounterValue("mdm_index_erases_total");
  Connection conn = Connection::Local(&db_);
  ASSERT_TRUE(conn.Execute("range of n is NOTE\n"
                           "replace n (name = 21) where n.name = 20")
                  .ok());
  EXPECT_TRUE(db_.IndexLookup(*ix, Value::Int(20)).empty());
  EXPECT_EQ(db_.IndexLookup(*ix, Value::Int(21)).size(), 1u);
  ASSERT_TRUE(
      conn.Execute("range of n is NOTE\ndelete n where n.name = 21").ok());
  EXPECT_TRUE(db_.IndexLookup(*ix, Value::Int(21)).empty());
  EXPECT_EQ(ix->tree.size(), 4u);
  EXPECT_GT(CounterValue("mdm_index_inserts_total"), inserts);
  EXPECT_GT(CounterValue("mdm_index_erases_total"), erases);
  ValidateIndexConsistency(db_);
}

TEST_F(IndexPlanTest, ObsCountersAndProbeSpan) {
  auto* lookups =
      obs::Registry::Global()->GetCounter("mdm_index_lookups_total");
  auto* inserts =
      obs::Registry::Global()->GetCounter("mdm_index_inserts_total");
  uint64_t lookups_before = lookups->value();
  uint64_t inserts_before = inserts->value();
  Connection conn = Connection::Local(&db_);
  ASSERT_TRUE(
      conn.Execute("range of n is NOTE\nretrieve (n.name) where n.name = 30")
          .ok());
  AddNote(chords_[0], 70);
  EXPECT_GT(lookups->value(), lookups_before);
  EXPECT_GT(inserts->value(), inserts_before);
  // The probe span series exists on the registry after an indexed query.
  std::string prom = obs::Registry::Global()->RenderPrometheusText();
  EXPECT_NE(prom.find("span=\"quel.index_probe\""), std::string::npos);
}

// The end of a bulk index load rebuilds every tree and moves its erase
// epoch without logging an op. It publishes like any mutation made
// outside a statement group, so the next snapshot probe is answered by
// the rebuilt tree instead of degrading to a scan of the type.
TEST(IndexSnapshotTest, BulkLoadEndLeavesSnapshotProbesOnTheIndex) {
  er::Database db;
  ASSERT_TRUE(ddl::ExecuteDdl("define entity NOTE (k = integer)\n"
                              "define index note_k on NOTE(k)",
                              &db)
                  .ok());
  db.BeginBulkIndexLoad();
  {
    er::WriteTxn txn(&db);
    for (int i = 0; i < 1000; ++i) {
      Result<EntityId> note = txn->CreateEntity("NOTE");
      ASSERT_TRUE(note.ok());
      ASSERT_TRUE(txn->SetAttribute(*note, "k", Value::Int(i % 10)).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  ASSERT_TRUE(db.EndBulkIndexLoad().ok());

  obs::Counter* fallbacks = obs::Registry::Global()->GetCounter(
      "mdm_index_snapshot_fallbacks_total");
  const uint64_t before = fallbacks->value();
  Connection conn = Connection::Local(&db);
  for (int i = 0; i < 10; ++i) {
    auto rs = conn.Execute("range of n is NOTE\nretrieve (n.k) where n.k = 5");
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(rs->rows.size(), 100u);
  }
  EXPECT_EQ(fallbacks->value() - before, 0u);
}

// ----------------------------------------------------------------------
// Ablation-equivalence fuzz (PR 4 pattern): an indexed and an
// index-disabled database receive the same seeded op sequence; every
// query answer must match — the index is an accelerator, not an oracle.
// ----------------------------------------------------------------------

class AttrIndexAblationFuzz : public testing::TestWithParam<uint64_t> {};

TEST_P(AttrIndexAblationFuzz, IndexedAndAblatedStayEquivalent) {
  const uint64_t seed = GetParam();
  er::Database indexed;
  er::Database plain;
  for (er::Database* db : {&indexed, &plain}) {
    ASSERT_TRUE(ddl::ExecuteDdl(R"(
      define entity CHORD (name = integer)
      define entity NOTE (name = integer, chord = CHORD)
      define index note_name on NOTE(name)
      define index note_chord on NOTE(chord)
    )",
                                db)
                    .ok());
  }
  plain.EnableAttrIndex(false);

  // Parallel id vectors: slot i is the same logical entity in both.
  std::vector<std::pair<EntityId, EntityId>> chords;
  std::vector<std::pair<EntityId, EntityId>> notes;
  Rng rng(seed);
  auto create = [&](const std::string& type,
                    std::vector<std::pair<EntityId, EntityId>>* out) {
    auto a = indexed.CreateEntity(type);
    auto b = plain.CreateEntity(type);
    ASSERT_TRUE(a.ok() && b.ok());
    out->emplace_back(*a, *b);
  };
  for (int i = 0; i < 3; ++i) create("CHORD", &chords);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        indexed.SetAttribute(chords[i].first, "name", Value::Int(i)).ok());
    ASSERT_TRUE(
        plain.SetAttribute(chords[i].second, "name", Value::Int(i)).ok());
  }

  Connection c_indexed = Connection::Local(&indexed);
  Connection c_plain = Connection::Local(&plain);
  // Index probes made by each side's queries (registry deltas).
  uint64_t lookups_indexed = 0, lookups_plain = 0;
  auto lookups_during = [](const std::function<void()>& run) {
    const uint64_t before = CounterValue("mdm_index_lookups_total");
    run();
    return CounterValue("mdm_index_lookups_total") - before;
  };
  constexpr int kOps = 500;
  for (int op = 0; op < kOps; ++op) {
    SCOPED_TRACE(testing::Message() << "seed " << seed << " op " << op);
    const double dice = rng.NextDouble();
    if (dice < 0.25) {
      create("NOTE", &notes);
    } else if (dice < 0.50 && !notes.empty()) {
      // Set or clear an attribute; small name domain forces duplicate
      // keys and overwrite churn in the tree.
      auto [na, nb] = notes[rng.Uniform(notes.size())];
      if (rng.Bernoulli(0.5)) {
        Value v = rng.Bernoulli(0.15)
                      ? Value()
                      : Value::Int(static_cast<int64_t>(rng.Uniform(6)));
        ASSERT_EQ(indexed.SetAttribute(na, "name", v).ok(),
                  plain.SetAttribute(nb, "name", v).ok());
      } else {
        size_t c = rng.Uniform(chords.size());
        ASSERT_EQ(
            indexed.SetAttribute(na, "chord", Value::Ref(chords[c].first))
                .ok(),
            plain.SetAttribute(nb, "chord", Value::Ref(chords[c].second))
                .ok());
      }
    } else if (dice < 0.58 && notes.size() > 2) {
      size_t slot = rng.Uniform(notes.size());
      Status a = indexed.DeleteEntity(notes[slot].first);
      Status b = plain.DeleteEntity(notes[slot].second);
      ASSERT_EQ(a.code(), b.code());
      notes.erase(notes.begin() + slot);
    } else {
      // The same QUEL query against both: an indexed equality or an
      // `is` index-nested-loop join.
      std::string query;
      if (rng.Bernoulli(0.5)) {
        query = "range of n is NOTE\nretrieve (n.name) where n.name = " +
                std::to_string(rng.Uniform(6));
      } else {
        query =
            "range of n is NOTE\nrange of c is CHORD\n"
            "retrieve (n.name) where n.chord is c and c.name = " +
            std::to_string(rng.Uniform(3));
      }
      Result<quel::ResultSet> rs_a = quel::ResultSet{}, rs_b = rs_a;
      lookups_indexed +=
          lookups_during([&] { rs_a = c_indexed.Execute(query); });
      lookups_plain += lookups_during([&] { rs_b = c_plain.Execute(query); });
      ASSERT_EQ(rs_a.ok(), rs_b.ok())
          << rs_a.status().ToString() << " vs " << rs_b.status().ToString();
      if (rs_a.ok()) {
        ASSERT_EQ(Ints(*rs_a), Ints(*rs_b));
      }
    }
  }
  // The ablated database never answered through an index; the indexed
  // one did. Both trees stayed consistent (maintenance is always on).
  EXPECT_EQ(lookups_plain, 0u);
  EXPECT_GT(lookups_indexed, 0u);
  ValidateIndexConsistency(indexed);
  ValidateIndexConsistency(plain);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AttrIndexAblationFuzz,
                         testing::Values(11u, 12u, 13u));

// ----------------------------------------------------------------------
// Ordering access paths: one database receives a seeded churn of S/P-
// edge mutations and deletes, interleaved with ordering queries over a
// flat, a recursive and a mixed-child-type ordering. Each query runs
// twice: planned, where `under`/`before`/`after` loops are driven from
// the ordering's S-edges, and through the naive plan (ExecuteNaive),
// which scans every extent and tests each conjunct row by row. Sorted
// rows must match, and where the planned loop is a single slice, it
// must emit in ordering order. After every mutation, PositionOf,
// Before, After and Under must agree with a reference computed from
// Children() and ParentOf(). Seed kFrontInsertSeed's churn is mostly
// InsertChildAt(..., 0), which shifts every later sibling's position.
// ----------------------------------------------------------------------

std::vector<int64_t> NamesInEmitOrder(const quel::ResultSet& rs) {
  std::vector<int64_t> out;
  for (const auto& row : rs.rows) out.push_back(row[0].AsInt());
  return out;
}

constexpr uint64_t kFrontInsertSeed = 14;

class OrderingAccessAblationFuzz : public testing::TestWithParam<uint64_t> {};

TEST_P(OrderingAccessAblationFuzz, SlicedAndScannedStayEquivalent) {
  const uint64_t seed = GetParam();
  const bool front_inserts = seed == kFrontInsertSeed;
  er::Database db;
  ASSERT_TRUE(ddl::ExecuteDdl(R"(
    define entity STAFF (name = integer)
    define entity NOTE (name = integer, pitch = integer)
    define entity SECTION (name = integer)
    define entity GROUP (name = integer)
    define entity CHORD (name = integer)
    define entity REST (name = integer)
    define index note_pitch on NOTE(pitch)
    define ordering note_on_staff (NOTE) under STAFF
    define ordering sec_tree (SECTION, NOTE) under SECTION
    define ordering group_seq (GROUP, CHORD, REST) under GROUP
  )",
                              &db)
                  .ok());

  // One entity per slot: its id, its type and its (unique) name.
  struct Ent {
    EntityId id;
    std::string type;
    int64_t name;
  };
  std::vector<Ent> ents;
  int64_t next_name = 0;
  Rng rng(seed);
  auto create = [&](const std::string& type) {
    auto id = db.CreateEntity(type);
    ASSERT_TRUE(id.ok());
    const int64_t name = next_name++;
    ASSERT_TRUE(db.SetAttribute(*id, "name", Value::Int(name)).ok());
    ents.push_back({*id, type, name});
  };
  const std::pair<const char*, int> kInitial[] = {
      {"STAFF", 3}, {"NOTE", 20}, {"SECTION", 6},
      {"GROUP", 5}, {"CHORD", 8}, {"REST", 5}};
  for (const auto& [type, count] : kInitial)
    for (int i = 0; i < count; ++i) create(type);

  auto pick = [&](const std::vector<const char*>& types) -> const Ent* {
    std::vector<const Ent*> pool;
    for (const Ent& e : ents)
      for (const char* t : types)
        if (e.type == t) pool.push_back(&e);
    return pool.empty() ? nullptr : pool[rng.Uniform(pool.size())];
  };
  auto name_of = [&](const std::vector<const char*>& types) {
    const Ent* e = pick(types);
    // Occasionally a name no live entity carries: both sides are empty.
    return e == nullptr || rng.Bernoulli(0.05) ? next_name : e->name;
  };
  auto find = [&](int64_t name) -> const Ent* {
    for (const Ent& e : ents)
      if (e.name == name) return &e;
    return nullptr;
  };

  struct OrderingSpec {
    const char* name;
    const char* parent;
    std::vector<const char*> children;
  };
  const OrderingSpec kOrderings[] = {
      {"note_on_staff", "STAFF", {"NOTE"}},
      {"sec_tree", "SECTION", {"SECTION", "NOTE"}},
      {"group_seq", "GROUP", {"GROUP", "CHORD", "REST"}}};

  // The §5.6 predicates over every pair of `o`'s entities, against a
  // reference built from the navigation API: child -> (parent, position)
  // from Children(), parents cross-checked with ParentOf().
  auto check_predicates = [&](const OrderingSpec& o) {
    const er::OrderingHandle h = *db.ResolveOrderingHandle(o.name);
    std::vector<EntityId> members;
    for (const Ent& e : ents)
      if (e.type == o.parent ||
          std::find(o.children.begin(), o.children.end(), e.type) !=
              o.children.end())
        members.push_back(e.id);
    std::map<EntityId, std::pair<EntityId, size_t>> slot;
    for (EntityId p : members) {
      const std::vector<EntityId> kids = *db.Children(h, p);
      for (size_t i = 0; i < kids.size(); ++i) slot[kids[i]] = {p, i};
    }
    for (EntityId x : members) {
      auto it = slot.find(x);
      ASSERT_EQ(*db.ParentOf(h, x),
                it == slot.end() ? er::kInvalidEntityId : it->second.first);
      auto pos = db.PositionOf(h, x);
      ASSERT_EQ(pos.ok(), it != slot.end()) << o.name << " #" << x;
      if (pos.ok()) {
        ASSERT_EQ(*pos, it->second.second) << o.name << " #" << x;
      }
    }
    for (EntityId x : members) {
      auto sx = slot.find(x);
      for (EntityId y : members) {
        auto sy = slot.find(y);
        const bool before = sx != slot.end() && sy != slot.end() &&
                            sx->second.first == sy->second.first &&
                            sx->second.second < sy->second.second;
        ASSERT_EQ(*db.Before(h, x, y), before) << o.name << " #" << x
                                               << " before #" << y;
        ASSERT_EQ(*db.After(h, y, x), before) << o.name << " #" << y
                                              << " after #" << x;
        bool under = false;
        for (auto s = sx; s != slot.end() && !under;
             s = slot.find(s->second.first))
          under = s->second.first == y;
        ASSERT_EQ(*db.Under(h, x, y), under) << o.name << " #" << x
                                             << " under #" << y;
      }
    }
  };

  // Ground truth for slice order, from the navigation API: names of
  // `type` entities in the slice, in ordering order.
  std::function<void(er::OrderingHandle, EntityId, const std::string&,
                     std::vector<int64_t>*)>
      preorder = [&](er::OrderingHandle h, EntityId node,
                     const std::string& type, std::vector<int64_t>* out) {
        const std::vector<EntityId> kids = *db.Children(h, node);
        for (EntityId kid : kids) {
          if (*db.TypeOf(kid) == type)
            out->push_back(db.GetAttribute(kid, "name")->AsInt());
          preorder(h, kid, type, out);
        }
      };
  auto expected_slice = [&](const char* ordering, er::OrderingSlice slice,
                            int64_t anchor_name, const std::string& type) {
    std::vector<int64_t> out;
    const Ent* anchor = find(anchor_name);
    if (anchor == nullptr) return out;
    er::OrderingHandle h = *db.ResolveOrderingHandle(ordering);
    if (slice == er::OrderingSlice::kDescendants) {
      preorder(h, anchor->id, type, &out);
      return out;
    }
    EntityId parent = *db.ParentOf(h, anchor->id);
    if (parent == er::kInvalidEntityId) return out;
    std::vector<EntityId> sibs = *db.Children(h, parent);
    auto at = std::find(sibs.begin(), sibs.end(), anchor->id);
    auto begin = slice == er::OrderingSlice::kBefore ? sibs.begin() : at + 1;
    auto end = slice == er::OrderingSlice::kBefore ? at : sibs.end();
    for (auto it = begin; it != end; ++it)
      if (*db.TypeOf(*it) == type)
        out.push_back(db.GetAttribute(*it, "name")->AsInt());
    return out;
  };

  Connection c_sliced = Connection::Local(&db);
  Connection c_naive = Connection::Local(&db);
  constexpr int kOps = 400;
  int order_checks = 0;
  int front_inserts_done = 0;
  for (int op = 0; op < kOps; ++op) {
    SCOPED_TRACE(testing::Message() << "seed " << seed << " op " << op);
    const double dice = rng.NextDouble();
    if (dice < 0.30) {
      // S/P-edge churn on one of the three orderings. Edits the database
      // rejects (cycles, double parents, positions past the end) are
      // part of the churn.
      const OrderingSpec& o = kOrderings[rng.Uniform(3)];
      const Ent* parent = pick({o.parent});
      const Ent* child = pick(o.children);
      if (parent == nullptr || child == nullptr) continue;
      enum class Edit { kAppend, kInsert, kRemove };
      const double kind = rng.NextDouble();
      const Edit edit = front_inserts ? (kind < 0.75 ? Edit::kInsert
                                                     : Edit::kRemove)
                        : kind < 0.45 ? Edit::kAppend
                        : kind < 0.75 ? Edit::kInsert
                                      : Edit::kRemove;
      switch (edit) {
        case Edit::kAppend:
          (void)db.AppendChild(o.name, parent->id, child->id);
          break;
        case Edit::kInsert: {
          const size_t pos = front_inserts ? 0 : rng.Uniform(5);
          if (db.InsertChildAt(o.name, parent->id, child->id, pos).ok() &&
              pos == 0)
            ++front_inserts_done;
          break;
        }
        case Edit::kRemove:
          (void)db.RemoveChild(o.name, child->id);
          break;
      }
      check_predicates(o);
      if (testing::Test::HasFatalFailure()) return;
    } else if (dice < 0.36) {
      if (rng.Bernoulli(0.5) || ents.size() < 20) {
        const std::string type =
            pick({"NOTE", "SECTION", "GROUP", "CHORD", "REST"})->type;
        create(type);
      } else {
        // Delete outright: detaches it everywhere, its children become
        // roots.
        const size_t slot = rng.Uniform(ents.size());
        ASSERT_TRUE(db.DeleteEntity(ents[slot].id).ok());
        ents.erase(ents.begin() + slot);
        for (const OrderingSpec& o : kOrderings) check_predicates(o);
        if (testing::Test::HasFatalFailure()) return;
      }
    } else if (dice < 0.42) {
      const Ent* note = pick({"NOTE"});
      if (note == nullptr) continue;
      const Value pitch = Value::Int(static_cast<int64_t>(rng.Uniform(4)));
      ASSERT_TRUE(db.SetAttribute(note->id, "pitch", pitch).ok());
    } else {
      // A query. `slice` names the single-slice shapes whose emit order
      // is checked against the navigation API.
      std::string query;
      const char* ordering = nullptr;
      er::OrderingSlice slice = er::OrderingSlice::kDescendants;
      int64_t anchor = 0;
      std::string loop_type;
      const bool before = rng.Bernoulli(0.5);
      const char* op_text = before ? "before" : "after";
      const char* mirror_text = before ? "after" : "before";
      const er::OrderingSlice sib =
          before ? er::OrderingSlice::kBefore : er::OrderingSlice::kAfter;
      switch (rng.Uniform(12)) {
        case 0:  // flat under
          anchor = name_of({"STAFF"});
          query = StrFormat(
              "range of n is NOTE range of s is STAFF retrieve (n.name) "
              "where n under s in note_on_staff and s.name = %lld",
              (long long)anchor);
          ordering = "note_on_staff", loop_type = "NOTE";
          break;
        case 1:  // recursive under, NOTE below SECTIONs at any depth
          anchor = name_of({"SECTION"});
          query = StrFormat(
              "range of n is NOTE range of s is SECTION retrieve (n.name) "
              "where n under s in sec_tree and s.name = %lld",
              (long long)anchor);
          ordering = "sec_tree", loop_type = "NOTE";
          break;
        case 2:  // recursive under, the parent type itself
          anchor = name_of({"SECTION"});
          query = StrFormat(
              "range of s1, s2 is SECTION retrieve (s1.name) "
              "where s1 under s2 in sec_tree and s2.name = %lld",
              (long long)anchor);
          ordering = "sec_tree", loop_type = "SECTION";
          break;
        case 3:  // mixed child types: only the CHORDs of the subtree
          anchor = name_of({"GROUP"});
          query = StrFormat(
              "range of c is CHORD range of g is GROUP retrieve (c.name) "
              "where c under g in group_seq and g.name = %lld",
              (long long)anchor);
          ordering = "group_seq", loop_type = "CHORD";
          break;
        case 4:  // flat siblings, loop variable on the left
          anchor = name_of({"NOTE"});
          query = StrFormat(
              "range of n1, n2 is NOTE retrieve (n1.name) where n1 %s n2 "
              "in note_on_staff and n2.name = %lld",
              op_text, (long long)anchor);
          ordering = "note_on_staff", slice = sib, loop_type = "NOTE";
          break;
        case 5:  // mixed siblings, loop variable on the right
          anchor = name_of({"REST"});
          query = StrFormat(
              "range of c is CHORD range of r is REST retrieve (c.name) "
              "where r %s c in group_seq and r.name = %lld",
              mirror_text, (long long)anchor);
          ordering = "group_seq", slice = sib, loop_type = "CHORD";
          break;
        case 6:  // recursive siblings: SECTION and NOTE share a list
          anchor = name_of({"NOTE"});
          query = StrFormat(
              "range of s is SECTION range of n is NOTE retrieve (s.name) "
              "where s %s n in sec_tree and n.name = %lld",
              op_text, (long long)anchor);
          ordering = "sec_tree", slice = sib, loop_type = "SECTION";
          break;
        case 7:  // choice rule: the slice wins over the pitch index
          query = StrFormat(
              "range of n is NOTE range of s is STAFF retrieve (n.name) "
              "where n under s in note_on_staff and s.name = %lld "
              "and n.pitch = %d",
              (long long)name_of({"STAFF"}), (int)rng.Uniform(4));
          break;
        case 8:  // a chain: p binds m (mirrored), m binds n
          query = StrFormat(
              "range of m, n, p is NOTE retrieve (n.name) "
              "where n %s m in note_on_staff and p %s m in "
              "note_on_staff and p.name = %lld",
              op_text, mirror_text, (long long)name_of({"NOTE"}));
          break;
        case 9:  // ancestors of a bound note: `under` upward never drives
          query = StrFormat(
              "range of s is SECTION range of n is NOTE retrieve (s.name) "
              "where n under s in sec_tree and n.name = %lld",
              (long long)name_of({"NOTE"}));
          break;
        case 10:  // inside or: never drives
          query = StrFormat(
              "range of n1, n2 is NOTE range of s is STAFF "
              "retrieve (n1.name) where n2.name = %lld and "
              "(n1 %s n2 in note_on_staff or n1 under s in note_on_staff) "
              "and s.name = %lld",
              (long long)name_of({"NOTE"}), op_text,
              (long long)name_of({"STAFF"}));
          break;
        default:  // inside not, next to a driving conjunct
          query = StrFormat(
              "range of c is CHORD range of g1, g2 is GROUP "
              "retrieve (c.name) where c under g1 in group_seq and "
              "g1.name = %lld and not (c under g2 in group_seq) and "
              "g2.name = %lld",
              (long long)name_of({"GROUP"}), (long long)name_of({"GROUP"}));
          break;
      }
      auto rs_a = c_sliced.Execute(query);
      auto rs_b = c_naive.local_session()->ExecuteNaive(query);
      ASSERT_EQ(rs_a.ok(), rs_b.ok())
          << query << "\n" << rs_a.status().ToString() << " vs "
          << rs_b.status().ToString();
      if (!rs_a.ok()) continue;
      ASSERT_EQ(Ints(*rs_a), Ints(*rs_b)) << query;
      if (ordering != nullptr) {
        ASSERT_EQ(NamesInEmitOrder(*rs_a),
                  expected_slice(ordering, slice, anchor, loop_type))
            << query;
        ++order_checks;
      }
    }
  }
  EXPECT_GT(order_checks, 0);
  if (front_inserts) {
    EXPECT_GT(front_inserts_done, 20);
  }
  // The slices enumerated strictly fewer bindings than the naive plan.
  EXPECT_LT(c_sliced.local_stats().rows_scanned,
            c_naive.local_stats().rows_scanned);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderingAccessAblationFuzz,
                         testing::Values(11u, 12u, 13u, kFrontInsertSeed));

// ----------------------------------------------------------------------
// Durability: journal replay, snapshot round trip, power-cut sim.
// ----------------------------------------------------------------------

std::string IndexTestDir() {
  std::string dir =
      std::filesystem::temp_directory_path() / "mdm_index_test";
  std::filesystem::create_directories(dir);
  return dir;
}

std::string IndexDbPath(const char* tag) {
  return IndexTestDir() + "/" +
         testing::UnitTest::GetInstance()->current_test_info()->name() +
         "." + tag + ".mdm";
}

void RemoveDbFiles(const std::string& path) {
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(IndexTestDir(), ec)) {
    const std::string name = entry.path().string();
    if (name.rfind(path, 0) == 0) std::filesystem::remove(entry.path(), ec);
  }
}

Status BuildIndexedScore(er::Database* db, int notes) {
  auto r = ddl::ExecuteDdl(R"(
    define entity CHORD (name = integer)
    define entity NOTE (name = integer, chord = CHORD)
    define index note_name on NOTE(name)
  )",
                           db);
  if (!r.ok()) return r.status();
  MDM_ASSIGN_OR_RETURN(EntityId chord, db->CreateEntity("CHORD"));
  MDM_RETURN_IF_ERROR(db->SetAttribute(chord, "name", Value::Int(1)));
  for (int i = 0; i < notes; ++i) {
    MDM_ASSIGN_OR_RETURN(EntityId id, db->CreateEntity("NOTE"));
    MDM_RETURN_IF_ERROR(db->SetAttribute(id, "name", Value::Int(i)));
    MDM_RETURN_IF_ERROR(db->SetAttribute(id, "chord", Value::Ref(chord)));
  }
  return Status::OK();
}

TEST(IndexDurabilityTest, JournalReplayRebuildsIndexes) {
  std::string path = IndexDbPath("wal");
  RemoveDbFiles(path);
  {
    auto h = er::DurableDatabase::Open(path);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    ASSERT_TRUE(BuildIndexedScore((*h)->db(), 20).ok());
    // Mid-life DDL: a second index over existing rows, then destroy it
    // again — both journaled.
    ASSERT_TRUE((*h)->db()->DefineIndex({"note_chord", "NOTE", "chord"}).ok());
    ASSERT_TRUE((*h)->db()->DestroyIndex("note_chord").ok());
  }
  auto h = er::DurableDatabase::Open(path);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  er::Database* db = (*h)->db();
  ASSERT_EQ(db->AttrIndexDefs().size(), 1u);
  EXPECT_EQ(db->AttrIndexDefs()[0].name, "note_name");
  EXPECT_EQ(db->FindAttrIndexByName("note_chord"), nullptr);
  ValidateIndexConsistency(*db);
  // Post-recovery queries keep probing.
  Connection conn = Connection::Local(db);
  auto rs = conn.Execute(
      "range of n is NOTE\nexplain retrieve (n.name) where n.name = 7");
  ASSERT_TRUE(rs.ok());
  EXPECT_NE(rs->ToString().find("via index note_name"), std::string::npos);
  RemoveDbFiles(path);
}

TEST(IndexDurabilityTest, SnapshotRoundTripPreservesIndexes) {
  er::Database db;
  ASSERT_TRUE(BuildIndexedScore(&db, 15).ok());
  std::string path = IndexDbPath("snap");
  RemoveDbFiles(path);
  ASSERT_TRUE(er::SaveSnapshot(db, path).ok());
  const uint64_t rebuilds = CounterValue("mdm_index_rebuilds_total");
  auto loaded = er::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->AttrIndexDefs().size(), 1u);
  EXPECT_EQ(loaded->AttrIndexDefs()[0].attr, "name");
  // Trees are rebuilt on restore, not serialized.
  EXPECT_GE(CounterValue("mdm_index_rebuilds_total") - rebuilds, 1u);
  ValidateIndexConsistency(*loaded);
  RemoveDbFiles(path);
}

TEST(IndexDurabilityTest, PowerCutLeavesIndexesConsistent) {
  // The PR 1 crash contract extended to indexes: cut power at every
  // I/O boundary of an index-heavy workload (define, backfill,
  // checkpoint, update, destroy); after each recovery every surviving
  // index must agree exactly with a full scan.
  FailpointRegistry* reg = FailpointRegistry::Global();
  reg->Reset();
  std::string path = IndexDbPath("cut");

  auto workload = [](er::DurableDatabase* h) -> Status {
    er::Database* db = h->db();
    MDM_RETURN_IF_ERROR(BuildIndexedScore(db, 8));
    MDM_RETURN_IF_ERROR(h->Checkpoint());  // snapshot carries the defs
    MDM_RETURN_IF_ERROR(db->DefineIndex({"note_chord", "NOTE", "chord"}));
    uint64_t i = 0;
    MDM_RETURN_IF_ERROR(db->ForEachEntity("NOTE", [&](EntityId) {
      ++i;
      return i <= 3;  // touch the first few ids
    }));
    MDM_ASSIGN_OR_RETURN(EntityId extra, db->CreateEntity("NOTE"));
    MDM_RETURN_IF_ERROR(db->SetAttribute(extra, "name", Value::Int(99)));
    MDM_RETURN_IF_ERROR(db->DestroyIndex("note_chord"));
    return Status::OK();
  };

  // Dry run counts the I/O boundaries.
  uint64_t total_io = 0;
  {
    RemoveDbFiles(path);
    reg->ArmPowerCutAtIo(std::numeric_limits<uint64_t>::max());
    auto h = er::DurableDatabase::Open(path);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    ASSERT_TRUE(workload((*h).get()).ok());
    total_io = reg->io_count();
    reg->Reset();
  }
  ASSERT_GE(total_io, 20u);

  for (uint64_t cut = 1; cut <= total_io; ++cut) {
    RemoveDbFiles(path);
    reg->ArmPowerCutAtIo(cut, /*keep=*/cut % 2 == 0 ? 0.5 : 0.0);
    {
      auto h = er::DurableDatabase::Open(path);
      if (h.ok()) (void)workload((*h).get());
    }
    reg->Reset();
    auto h = er::DurableDatabase::Open(path);
    ASSERT_TRUE(h.ok()) << "cut " << cut << ": " << h.status().ToString();
    ValidateIndexConsistency(*(*h)->db());
  }
  RemoveDbFiles(path);
}

// ----------------------------------------------------------------------
// Meta-schema: the index catalog is data (Fig 9 discipline).
// ----------------------------------------------------------------------

TEST(IndexMetaTest, IndexesCataloguedAndUncataloguedAsData) {
  er::Database db;
  ASSERT_TRUE(meta::InstallMetaSchema(&db).ok());
  ASSERT_TRUE(ddl::ExecuteDdl(R"(
    define entity NOTE (name = integer)
    define index note_name on NOTE(name)
  )",
                              &db)
                  .ok());
  ASSERT_TRUE(meta::SyncSchemaToMeta(&db).ok());
  Connection conn = Connection::Local(&db);
  const char* query = R"(
    range of i is INDEX_DEF
    range of e is ENTITY
    retrieve (i.index_attribute)
      where i.index_entity is e and e.entity_name = "NOTE"
  )";
  auto rs = conn.Execute(query);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].AsString(), "name");
  // Destroy + re-sync removes the stale catalog row.
  ASSERT_TRUE(db.DestroyIndex("note_name").ok());
  ASSERT_TRUE(meta::SyncSchemaToMeta(&db).ok());
  auto gone = conn.Execute(query);
  ASSERT_TRUE(gone.ok());
  EXPECT_TRUE(gone->rows.empty());
}

// ----------------------------------------------------------------------
// Local/Remote parity: the index DDL is part of the one public surface.
// ----------------------------------------------------------------------

TEST(IndexNetTest, IndexDdlWorksIdenticallyOverLocalAndRemote) {
  er::Database db;
  ASSERT_TRUE(ddl::ExecuteDdl(R"(
    define entity NOTE (name = integer)
  )",
                              &db)
                  .ok());
  for (int i = 0; i < 50; ++i) {
    auto id = db.CreateEntity("NOTE");
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(db.SetAttribute(*id, "name", Value::Int(i)).ok());
  }
  net::ServerOptions opts;
  opts.port = 0;
  net::Server server(&db, opts);
  ASSERT_TRUE(server.Start().ok());
  auto remote = Connection::Remote("127.0.0.1", server.port());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  // Define over the wire; observe locally and via a local Connection.
  auto rs = remote->Execute("define index note_name on NOTE(name)");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->At(0, 3).AsInt(), 1);
  EXPECT_NE(db.FindAttrIndexByName("note_name"), nullptr);

  // The remote planner probes it, and explain crosses the wire intact.
  auto plan = remote->Execute(
      "range of n is NOTE\nexplain retrieve (n.name) where n.name = 17");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->ToString().find("via index note_name(name)"),
            std::string::npos);
  auto got = remote->Execute(
      "range of n is NOTE\nretrieve (n.name) where n.name = 17");
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->rows.size(), 1u);

  // Error codes arrive code-intact: duplicate definition.
  EXPECT_EQ(
      remote->Execute("define index note_name on NOTE(name)").status().code(),
      StatusCode::kAlreadyExists);

  // Destroy over the wire too; a local Connection sees the same surface.
  ASSERT_TRUE(remote->Execute("destroy index note_name").ok());
  EXPECT_EQ(db.FindAttrIndexByName("note_name"), nullptr);
  Connection local = Connection::Local(&db);
  ASSERT_TRUE(local.Execute("define index note_name on NOTE(name)").ok());
  EXPECT_NE(db.FindAttrIndexByName("note_name"), nullptr);
  server.Stop();
}

}  // namespace
}  // namespace mdm
