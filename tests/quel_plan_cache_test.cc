// The session plan cache: script shapes, parameter binding, plan reuse
// and rebuilds, and equivalence of cached plans with fresh and naive
// ones over the fig-1 script templates.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "ddl/parser.h"
#include "er/database.h"
#include "net/connection.h"
#include "quel/quel.h"

namespace mdm::quel {
namespace {

using er::EntityId;
using rel::Value;

// ----------------------------------------------------------------------
// Shapes.
// ----------------------------------------------------------------------

TEST(ScriptShapeTest, LiteralsBecomeTypedPlaceholders) {
  ScriptShape shape;
  ASSERT_TRUE(ScanScriptShape(
      "retrieve (e.title) where e.number = \"BWV 1\" and e.n = -3 "
      "and e.x >= 2.5",
      &shape));
  EXPECT_EQ(shape.text,
            "retrieve (e.title) where e.number = ?s and e.n = ?i "
            "and e.x >= ?f");
  ASSERT_EQ(shape.params.size(), 3u);
  EXPECT_EQ(shape.params[0].AsString(), "BWV 1");
  EXPECT_EQ(shape.params[1].AsInt(), -3);
  EXPECT_EQ(shape.params[2].AsFloat(), 2.5);
  EXPECT_FALSE(shape.explain);
}

TEST(ScriptShapeTest, SpacingAndCommentsDoNotSplitAShape) {
  ScriptShape a, b;
  ASSERT_TRUE(ScanScriptShape("range of n is NOTE retrieve (n.name) "
                              "where n.name = 3",
                              &a));
  ASSERT_TRUE(ScanScriptShape("  range of n is NOTE\n"
                              "retrieve (n.name)  -- the names\n"
                              "  where n.name=4\n",
                              &b));
  EXPECT_NE(a.text, b.text);  // `=4` has no gap where `= 3` has one
  ASSERT_TRUE(ScanScriptShape("  range of n is NOTE\n"
                              "retrieve (n.name)  -- the names\n"
                              "  where n.name = 4\n",
                              &b));
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(ScriptFingerprint("retrieve (NOTE.name) where NOTE.name = 1"),
            ScriptFingerprint("retrieve (NOTE.name) where NOTE.name = 99"));
  // The literal's type is part of the shape: the index-probe type gate
  // depends on it.
  EXPECT_NE(ScriptFingerprint("retrieve (NOTE.name) where NOTE.name = 1"),
            ScriptFingerprint("retrieve (NOTE.name) where NOTE.name = \"1\""));
  EXPECT_NE(ScriptFingerprint("retrieve (NOTE.name) where NOTE.name = 1"),
            ScriptFingerprint("retrieve (NOTE.name) where NOTE.name = 1.0"));
}

TEST(ScriptShapeTest, ExplainAndUnlexableScriptsAreFlagged) {
  ScriptShape shape;
  ASSERT_TRUE(ScanScriptShape("explain retrieve (NOTE.name)", &shape));
  EXPECT_TRUE(shape.explain);
  EXPECT_FALSE(ScanScriptShape("retrieve (NOTE.name) where ?i", &shape));
  EXPECT_FALSE(ScanScriptShape("retrieve (\"open", &shape));
}

TEST(ScriptShapeTest, ParserSlotsMatchScanOrder) {
  const std::string script =
      "append to NOTE (name = 7, flag = true, label = \"x\") "
      "replace n (name = 8) where n.name = 9 and n.flag = false";
  auto parsed = ParseQuelScript(script);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ScriptShape shape;
  ASSERT_TRUE(ScanScriptShape(script, &shape));
  ASSERT_EQ(parsed->scanned, shape.params.size());
  ASSERT_EQ(parsed->params.size(), shape.params.size() + 2);  // true, false
  for (size_t i = 0; i < shape.params.size(); ++i)
    EXPECT_EQ(parsed->params[i].ToString(), shape.params[i].ToString());
  const Statement& append = parsed->statements[0];
  EXPECT_EQ(append.assignments[0].second.param, 0u);
  EXPECT_EQ(append.assignments[1].second.param, 4u);  // true: after scanned
  EXPECT_EQ(parsed->params[4].AsBool(), true);
  EXPECT_EQ(append.assignments[2].second.param, 1u);
}

// ----------------------------------------------------------------------
// Session behaviour.
// ----------------------------------------------------------------------

class PlanCacheTest : public testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(ddl::ExecuteDdl(R"(
      define entity CHORD (name = integer)
      define entity NOTE (name = integer, label = string)
      define ordering note_in_chord (NOTE) under CHORD
      define index note_name on NOTE(name)
    )",
                                &db_)
                    .ok());
    for (int c = 1; c <= 2; ++c) {
      EntityId chord = Create("CHORD", c);
      for (int n = 0; n < 4; ++n)
        ASSERT_TRUE(
            db_.AppendChild("note_in_chord", chord, Create("NOTE", c * 10 + n))
                .ok());
    }
    db_.PublishSnapshot();
  }

  EntityId Create(const std::string& type, int name) {
    auto id = db_.CreateEntity(type);
    EXPECT_TRUE(id.ok());
    EXPECT_TRUE(db_.SetAttribute(*id, "name", Value::Int(name)).ok());
    return *id;
  }

  static std::vector<int64_t> Ints(const ResultSet& rs) {
    std::vector<int64_t> out;
    for (const auto& row : rs.rows) out.push_back(row[0].AsInt());
    std::sort(out.begin(), out.end());
    return out;
  }

  static uint64_t PlansBuilt(const QuelSession& s) {
    uint64_t n = 0;
    for (const PlanCacheEntry& e : s.PlanCacheEntries()) n += e.plans_built;
    return n;
  }

  er::Database db_;
};

TEST_F(PlanCacheTest, ThreeShapesVariedLiteralsCountHits) {
  QuelSession session(&db_);
  const char* kShapes[] = {
      "range of n is NOTE retrieve (n.name) where n.name = %d",
      "range of n is NOTE range of c is CHORD retrieve (k = count(n)) "
      "where n under c in note_in_chord and c.name = %d",
      "range of n is NOTE retrieve (n.name) where n.name > %d",
  };
  const int kCalls[] = {5, 7, 4};
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < kCalls[s]; ++i) {
      auto rs = session.Execute(StrFormat(kShapes[s], 10 + i));
      ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    }
  }
  const std::vector<PlanCacheEntry> entries = session.PlanCacheEntries();
  ASSERT_EQ(entries.size(), 3u);
  uint64_t hits = 0;
  for (const PlanCacheEntry& e : entries) {
    int s = 0;
    while (s < 3 && e.fingerprint != ScriptFingerprint(
                                          StrFormat(kShapes[s], 1)))
      ++s;
    ASSERT_LT(s, 3) << e.shape;
    EXPECT_EQ(e.hits, static_cast<uint64_t>(kCalls[s] - 1)) << e.shape;
    // One query statement per shape, planned once: no hit re-planned.
    EXPECT_EQ(e.plans_built, 1u) << e.shape;
    hits += e.hits;
  }
  EXPECT_EQ(hits, 5u + 7u + 4u - 3u);
  EXPECT_EQ(session.stats().plan_cache_hits, hits);
  EXPECT_EQ(session.stats().statements, 2u * 5 + 3u * 7 + 2u * 4);
}

TEST_F(PlanCacheTest, HitsBindEachCallsLiterals) {
  QuelSession session(&db_);
  for (int name : {10, 11, 23, 99}) {
    auto rs = session.Execute(
        "range of n is NOTE retrieve (n.name) where n.name = " +
        std::to_string(name));
    ASSERT_TRUE(rs.ok());
    EXPECT_EQ(Ints(*rs), name == 99 ? std::vector<int64_t>{}
                                    : std::vector<int64_t>{name});
  }
  // Plain append, replace assignments and append-under read parameters.
  for (int name : {50, 51}) {
    ASSERT_TRUE(session
                    .Execute("append to NOTE (name = " +
                             std::to_string(name) + ", label = \"a" +
                             std::to_string(name) + "\")")
                    .ok());
  }
  for (int c : {1, 2}) {
    auto rs = session.Execute(
        "range of c is CHORD append to NOTE (name = " +
        std::to_string(60 + c) + ") under c in note_in_chord where c.name = " +
        std::to_string(c));
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(rs->affected, 1u);
  }
  for (int name : {50, 51}) {
    ASSERT_TRUE(session
                    .Execute("range of n is NOTE replace n (label = \"r" +
                             std::to_string(name) + "\") where n.name = " +
                             std::to_string(name))
                    .ok());
  }
  auto labels = session.Execute(
      "range of n is NOTE retrieve (n.label) where n.name >= 50 "
      "and n.name < 60 sort by n.label");
  ASSERT_TRUE(labels.ok());
  ASSERT_EQ(labels->size(), 2u);
  EXPECT_EQ(labels->At(0, 0).AsString(), "r50");
  EXPECT_EQ(labels->At(1, 0).AsString(), "r51");
  for (int c : {1, 2}) {
    auto kids = session.Execute(
        "range of n is NOTE range of c is CHORD retrieve (n.name) "
        "where n under c in note_in_chord and c.name = " +
        std::to_string(c));
    ASSERT_TRUE(kids.ok());
    std::vector<int64_t> want;
    for (int n = 0; n < 4; ++n) want.push_back(c * 10 + n);
    want.push_back(60 + c);
    EXPECT_EQ(Ints(*kids), want);
  }
  EXPECT_GT(session.stats().plan_cache_hits, 6u);
}

TEST_F(PlanCacheTest, RangeRedeclarationRebuildsThePlan) {
  QuelSession session(&db_);
  ASSERT_TRUE(session.Execute("range of x is NOTE").ok());
  auto notes = session.Execute("retrieve (k = count(x)) where x.name > 0");
  ASSERT_TRUE(notes.ok());
  EXPECT_EQ(notes->At(0, 0).AsInt(), 8);
  ASSERT_TRUE(session.Execute("range of x is CHORD").ok());
  auto chords = session.Execute("retrieve (k = count(x)) where x.name > 1");
  ASSERT_TRUE(chords.ok());
  EXPECT_EQ(chords->At(0, 0).AsInt(), 1);
  EXPECT_EQ(session.stats().plan_cache_hits, 1u);
}

TEST_F(PlanCacheTest, ExtentDoublingRebuildsThePlan) {
  QuelSession session(&db_);
  const std::string query =
      "range of n is NOTE retrieve (k = count(n)) where n.label = \"z\"";
  ASSERT_TRUE(session.Execute(query).ok());
  ASSERT_TRUE(session.Execute(query).ok());
  EXPECT_EQ(PlansBuilt(session), 1u);
  // 8 notes -> 16 is not yet double; 17 is.
  for (int i = 0; i < 8; ++i)
    ASSERT_TRUE(session.Execute("append to NOTE (name = 1)").ok());
  ASSERT_TRUE(session.Execute(query).ok());
  const uint64_t before = PlansBuilt(session);
  ASSERT_TRUE(session.Execute("append to NOTE (name = 1)").ok());
  auto rs = session.Execute(query);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->At(0, 0).AsInt(), 0);
  EXPECT_EQ(PlansBuilt(session), before + 1);
}

TEST_F(PlanCacheTest, IndexDdlRebuildsButEraseEpochRefreshDoesNot) {
  Connection conn = Connection::Local(&db_);
  QuelSession& session = *conn.local_session();
  const std::string query =
      "range of n is NOTE retrieve (n.name) where n.name = 12";
  ASSERT_TRUE(session.Execute(query).ok());
  // Rewriting an indexed value erases a tree entry; the next publish
  // refreshes the index's erase epoch but not the catalog.
  const uint64_t catalog = db_.catalog_version();
  ASSERT_TRUE(session
                  .Execute("range of n is NOTE replace n (name = 12) "
                           "where n.name = 13")
                  .ok());
  EXPECT_EQ(db_.catalog_version(), catalog);
  const uint64_t planned = PlansBuilt(session);
  auto twice = session.Execute(query);
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(Ints(*twice), (std::vector<int64_t>{12, 12}));
  EXPECT_EQ(PlansBuilt(session), planned);

  ASSERT_TRUE(conn.Execute("destroy index note_name").ok());
  EXPECT_NE(db_.catalog_version(), catalog);
  auto scanned = session.Execute(query);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(Ints(*scanned), (std::vector<int64_t>{12, 12}));
  EXPECT_EQ(PlansBuilt(session), planned + 1);

  ASSERT_TRUE(conn.Execute("define index note_name2 on NOTE(name)").ok());
  auto probed = session.Execute(query);
  ASSERT_TRUE(probed.ok());
  EXPECT_EQ(Ints(*probed), (std::vector<int64_t>{12, 12}));
  EXPECT_EQ(PlansBuilt(session), planned + 2);

  // The ablation switch is not catalog state, but plans follow it too.
  db_.EnableAttrIndex(false);
  ASSERT_TRUE(session.Execute(query).ok());
  EXPECT_EQ(PlansBuilt(session), planned + 3);
  db_.EnableAttrIndex(true);
}

TEST_F(PlanCacheTest, ErrorsAreIdenticalOnHitAndMiss) {
  QuelSession cached(&db_);
  const std::vector<std::string> scripts = {
      "range of n is NOTE retrieve (n.name) where n.name = \"x\"",
      "range of n is NOTE retrieve (n.name) where n.nope = 1",
      "range of n is NOTE retrieve (n.name) where m.name = 1",
      "range of n is NOTE retrieve (n.name, k = count(n)) where n.name = 1",
      "range of n is NOTE retrieve (n.name) where n.name = 1 sort by q",
  };
  for (const std::string& script : scripts) {
    for (int call = 0; call < 3; ++call) {
      QuelSession fresh(&db_);
      auto want = fresh.Execute(script);
      auto got = cached.Execute(script);
      ASSERT_FALSE(want.ok()) << script;
      ASSERT_FALSE(got.ok()) << script;
      EXPECT_EQ(got.status().ToString(), want.status().ToString()) << script;
    }
  }
  // Parse errors are never cached.
  for (int call = 0; call < 2; ++call) {
    auto bad = cached.Execute("retrieve (n.name where n.name = 1");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kParseError);
  }
}

TEST_F(PlanCacheTest, ExplainAndNaiveRunUncached) {
  QuelSession session(&db_);
  for (int i = 0; i < 2; ++i) {
    auto rs = session.Execute(
        "range of n is NOTE explain retrieve (n.name) where n.name = " +
        std::to_string(10 + i));
    ASSERT_TRUE(rs.ok());
    EXPECT_NE(rs->explain.find("n.name = " + std::to_string(10 + i)),
              std::string::npos)
        << rs->explain;
    ASSERT_TRUE(session
                    .ExecuteNaive("range of n is NOTE retrieve (n.name) "
                                  "where n.name = 3")
                    .ok());
  }
  EXPECT_TRUE(session.PlanCacheEntries().empty());
  EXPECT_EQ(session.stats().plan_cache_hits, 0u);
}

// Two threads on one shared session run the same shape with different
// literals: each must always get its own literal's answer (a shared
// parameter vector would leak one thread's literal into the other's
// plan). Runs under the tsan preset with the rest of the quel label.
TEST_F(PlanCacheTest, SharedSessionThreadsKeepTheirOwnLiterals) {
  QuelSession shared(&db_);
  constexpr int kRuns = 300;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRuns; ++i) {
        const int chord = 1 + ((t + i) % 2);
        const int name = chord * 10 + (i % 4);
        auto rs = shared.Execute(
            "range of n is NOTE range of c is CHORD retrieve (n.name) "
            "where n under c in note_in_chord and c.name = " +
            std::to_string(chord) + " and n.name = " + std::to_string(name));
        if (!rs.ok() || rs->size() != 1 || rs->At(0, 0).AsInt() != name)
          wrong.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  ASSERT_EQ(shared.PlanCacheEntries().size(), 1u);
  EXPECT_EQ(shared.stats().plan_cache_hits, 2u * kRuns - 1);
}

// ----------------------------------------------------------------------
// PlanCacheEquivalenceFuzz: the fig-1 script templates (a copy of
// perfbench/ops.cc's kTemplates) with seeded random literals against
// three databases built alike. Each call runs through one long-lived
// session (its plan cache warm), a fresh session (parse and plan from
// scratch) and ExecuteNaive (no pushdown, no cache); results and error
// statuses must agree. Between calls the fuzz also changes a literal's
// type on an indexed attribute and destroys or re-defines an index the
// cached plans probe (under ASan a stale AttrIndex* would be a
// use-after-free).
// ----------------------------------------------------------------------

const char* const kTemplates[] = {
    // E1
    "range of v is MOVEMENT range of s is SCORE "
    "append to MEASURE (number = %d, meter_num = 4, meter_den = 4) "
    "under v in measure_in_movement "
    "where v under s in movement_in_score and s.title = \"%s\"",
    // E2 (append, count)
    "append to ANNOTATION (text = \"mark-%d-%d\", xpos = %d)",
    "range of a is ANNOTATION retrieve (c = count(a)) where a.xpos = %d",
    // E3
    "range of n is NOTE range of s is STAFF "
    "replace n (dynamic = \"%s\") where n under s in note_on_staff "
    "and s.number = %d and n.midi_key = %d",
    // A1
    "range of n1, n2 is NOTE range of s is STAFF "
    "retrieve (c = count(n1)) where n1 before n2 in note_on_staff "
    "and n2 under s in note_on_staff and s.number = %d "
    "and n2.midi_key = %d",
    // A2
    "range of n is NOTE range of s is STAFF "
    "retrieve (c = count(n)) where n under s in note_on_staff "
    "and s.number = %d",
    // A3
    "range of n is NOTE range of s is STAFF "
    "retrieve (c = count(n by n.degree)) where n under s in note_on_staff "
    "and s.number = %d",
    // A4
    "range of n is NOTE range of s is STAFF "
    "retrieve (lo = min(n.midi_key), hi = max(n.midi_key)) "
    "where n under s in note_on_staff and s.number = %d",
    // T1
    "range of n is NOTE range of s is STAFF "
    "retrieve (n.midi_key, n.degree) where n under s in note_on_staff "
    "and s.number = %d",
    // T2
    "range of m is MEASURE range of v is MOVEMENT range of s is SCORE "
    "retrieve (m.number) where m under v in measure_in_movement "
    "and v under s in movement_in_score and s.title = \"%s\"",
    // L1, L2 by number, L2 by title
    "range of e is CATALOG_ENTRY retrieve (e.number) "
    "where e.incipit = \"%s\"",
    "range of e is CATALOG_ENTRY retrieve (e.title) where e.number = \"%s\"",
    "range of e is CATALOG_ENTRY retrieve (e.title) where e.title = \"%s\"",
};
constexpr int kTemplateCount = sizeof(kTemplates) / sizeof(kTemplates[0]);

constexpr int kScores = 3;
constexpr int kStaffs = 4;

void BuildFig1Db(uint64_t seed, er::Database* db) {
  ASSERT_TRUE(ddl::ExecuteDdl(R"(
    define entity SCORE (title = string)
    define entity MOVEMENT (number = integer)
    define entity MEASURE (number = integer, meter_num = integer,
                           meter_den = integer)
    define entity STAFF (number = integer)
    define entity NOTE (midi_key = integer, degree = integer,
                        dynamic = string)
    define entity ANNOTATION (text = string, xpos = integer)
    define entity CATALOG_ENTRY (number = string, title = string,
                                 incipit = string)
    define ordering movement_in_score (MOVEMENT) under SCORE
    define ordering measure_in_movement (MEASURE) under MOVEMENT
    define ordering note_on_staff (NOTE) under STAFF
    define index pb_score_title on SCORE(title)
    define index pb_staff_number on STAFF(number)
    define index pb_note_midi_key on NOTE(midi_key)
    define index pb_entry_number on CATALOG_ENTRY(number)
    define index pb_entry_incipit on CATALOG_ENTRY(incipit)
    define index pb_annotation_xpos on ANNOTATION(xpos)
  )",
                              db)
                  .ok());
  Rng rng(seed);
  auto create = [&](const char* type,
                    std::vector<std::pair<const char*, Value>> attrs) {
    EntityId id = *db->CreateEntity(type);
    for (auto& [name, v] : attrs) EXPECT_TRUE(db->SetAttribute(id, name, v).ok());
    return id;
  };
  for (int s = 0; s < kScores; ++s) {
    const std::string title = "S" + std::to_string(s);
    EntityId score = create("SCORE", {{"title", Value::String(title)}});
    create("CATALOG_ENTRY", {{"number", Value::String("N" + std::to_string(s))},
                             {"title", Value::String(title)},
                             {"incipit", Value::String("I" + std::to_string(s % 2))}});
    for (int m = 0; m < 2; ++m) {
      EntityId mv = create("MOVEMENT", {{"number", Value::Int(m + 1)}});
      EXPECT_TRUE(db->AppendChild("movement_in_score", score, mv).ok());
      for (int k = 0, n = static_cast<int>(rng.Uniform(3)); k < n; ++k) {
        EntityId measure = create("MEASURE", {{"number", Value::Int(k + 1)},
                                              {"meter_num", Value::Int(4)},
                                              {"meter_den", Value::Int(4)}});
        EXPECT_TRUE(
            db->AppendChild("measure_in_movement", mv, measure).ok());
      }
    }
  }
  for (int s = 1; s <= kStaffs; ++s) {
    EntityId staff = create("STAFF", {{"number", Value::Int(s)}});
    for (int k = 0, n = 3 + static_cast<int>(rng.Uniform(5)); k < n; ++k) {
      EntityId note =
          create("NOTE", {{"midi_key", Value::Int(rng.Range(60, 66))},
                          {"degree", Value::Int(rng.Range(1, 7))},
                          {"dynamic", Value::String("mf")}});
      EXPECT_TRUE(db->AppendChild("note_on_staff", staff, note).ok());
    }
  }
  db->PublishSnapshot();
}

/// A call of template `t` with random literals, some matching nothing.
std::string RenderTemplate(int t, Rng* rng) {
  const int staff = static_cast<int>(rng->Range(0, kStaffs + 1));
  const int key = static_cast<int>(rng->Range(59, 67));
  const std::string score = "S" + std::to_string(rng->Range(0, kScores));
  const std::string entry = std::to_string(rng->Range(0, kScores));
  const int xpos = static_cast<int>(rng->Range(0, 4));
  const char* tpl = kTemplates[t];
  switch (t) {
    case 0: return StrFormat(tpl, static_cast<int>(rng->Range(1, 99)),
                             score.c_str());
    case 1: return StrFormat(tpl, staff, key, xpos);
    case 2: return StrFormat(tpl, xpos);
    case 3: {
      const char* marks[] = {"pp", "p", "f", "ff"};
      return StrFormat(tpl, marks[rng->Uniform(4)], staff, key);
    }
    case 4: return StrFormat(tpl, staff, key);
    case 9: return StrFormat(tpl, score.c_str());
    case 10: return StrFormat(tpl, ("I" + entry).c_str());
    case 11: return StrFormat(tpl, ("N" + entry).c_str());
    case 12: return StrFormat(tpl, ("S" + entry).c_str());
    default: return StrFormat(tpl, staff);
  }
}

/// Rows as sorted text (loop orders may differ between plans), with the
/// columns and affected count: everything a caller can observe.
std::string Canonical(const Result<ResultSet>& rs) {
  if (!rs.ok()) return "error: " + rs.status().ToString();
  std::vector<std::string> rows;
  for (const auto& row : rs->rows) {
    std::string line;
    for (const Value& v : row) line += v.ToString() + "|";
    rows.push_back(line);
  }
  std::sort(rows.begin(), rows.end());
  std::string out = "affected " + std::to_string(rs->affected) + "\n";
  for (const std::string& c : rs->columns) out += c + ",";
  out += "\n";
  for (const std::string& r : rows) out += r + "\n";
  return out;
}

class PlanCacheEquivalenceFuzz : public testing::TestWithParam<uint64_t> {};

TEST_P(PlanCacheEquivalenceFuzz, CachedFreshAndNaiveAgree) {
  const uint64_t seed = GetParam();
  er::Database dbs[3];  // cached, fresh, naive
  for (er::Database& db : dbs) BuildFig1Db(seed, &db);
  QuelSession cached(&dbs[0]);
  Rng rng(seed * 7919 + 1);
  bool staff_index = true;
  constexpr int kOps = 500;
  for (int op = 0; op < kOps; ++op) {
    SCOPED_TRACE(testing::Message() << "seed " << seed << " op " << op);
    const double dice = rng.NextDouble();
    std::string script;
    if (dice < 0.04) {
      // Drop or re-create the index A1-A4, T1 and E3 probe for s.number.
      const std::string ddl = staff_index
                                  ? "destroy index pb_staff_number"
                                  : "define index pb_staff_number on "
                                    "STAFF(number)";
      staff_index = !staff_index;
      for (er::Database& db : dbs) {
        Connection conn = Connection::Local(&db);
        ASSERT_TRUE(conn.Execute(ddl).ok()) << ddl;
      }
      continue;
    } else if (dice < 0.10) {
      // The same shape position with a literal of another type on an
      // indexed attribute: a string never probes, and every row raises
      // the same TypeError on a hit as on a miss.
      const char* kTyped[] = {"%d", "\"%d\"", "%d.0", "%d.5"};
      script = "range of s is STAFF retrieve (c = count(s)) where s.number = " +
               StrFormat(kTyped[rng.Uniform(4)],
                         static_cast<int>(rng.Range(1, kStaffs)));
    } else {
      script = RenderTemplate(static_cast<int>(rng.Uniform(kTemplateCount)),
                              &rng);
    }
    QuelSession fresh(&dbs[1]);
    QuelSession naive(&dbs[2]);
    const std::string got = Canonical(cached.Execute(script));
    ASSERT_EQ(got, Canonical(fresh.Execute(script))) << script;
    ASSERT_EQ(got, Canonical(naive.ExecuteNaive(script))) << script;
  }
  // Every template shape (plus the typed variants) is cached, and most
  // calls were hits.
  EXPECT_LE(cached.PlanCacheEntries().size(),
            static_cast<size_t>(kTemplateCount + 4));
  EXPECT_GT(cached.stats().plan_cache_hits, kOps / 2u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanCacheEquivalenceFuzz,
                         testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace mdm::quel
