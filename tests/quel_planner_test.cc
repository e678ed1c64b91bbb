// Planner, ordering-handle API, explain (+ analyze), and ExecStats
// coverage for the §5.6 execution layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <optional>
#include <map>
#include <regex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "ddl/parser.h"
#include "er/database.h"
#include "net/connection.h"
#include "quel/planner.h"
#include "quel/quel.h"

namespace mdm::quel {
namespace {

using er::EntityId;
using er::OrderingHandle;
using rel::Value;

/// The ordering every compiled ordering operator of `plan` was bound to,
/// in compile order.
std::vector<OrderingHandle> OrderHandles(const Plan& plan) {
  std::vector<OrderingHandle> out;
  for (const CompiledQual& q : plan.quals)
    if (q.kind == Qual::Kind::kOrder) out.push_back(q.ordering);
  return out;
}

/// Chords with named notes plus a recursive section tree:
///   section 1 > section 2 > notes 100, 200 (sec_tree)
///   chord 1: notes 10 < 20 < 30; chord 2: notes 40, 50 (note_in_chord)
class QuelPlannerTest : public testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(ddl::ExecuteDdl(R"(
      define entity CHORD (name = integer)
      define entity NOTE (name = integer)
      define entity SECTION (name = integer)
      define ordering note_in_chord (NOTE) under CHORD
      define ordering sec_tree (SECTION, NOTE) under SECTION
    )",
                                &db_)
                    .ok());
    chord1_ = Create("CHORD", 1);
    chord2_ = Create("CHORD", 2);
    for (int n : {10, 20, 30})
      notes_[n] = AddChild("note_in_chord", "NOTE", chord1_, n);
    for (int n : {40, 50})
      notes_[n] = AddChild("note_in_chord", "NOTE", chord2_, n);
    section1_ = Create("SECTION", 1);
    section2_ = AddChild("sec_tree", "SECTION", section1_, 2);
    for (int n : {100, 200})
      notes_[n] = AddChild("sec_tree", "NOTE", section2_, n);
  }

  EntityId Create(const std::string& type, int name) {
    auto id = db_.CreateEntity(type);
    EXPECT_TRUE(id.ok());
    EXPECT_TRUE(db_.SetAttribute(*id, "name", Value::Int(name)).ok());
    return *id;
  }

  EntityId AddChild(const std::string& ordering, const std::string& type,
                    EntityId parent, int name) {
    EntityId id = Create(type, name);
    EXPECT_TRUE(db_.AppendChild(ordering, parent, id).ok());
    return id;
  }

  std::vector<int64_t> Ints(const ResultSet& rs) {
    std::vector<int64_t> out;
    for (const auto& row : rs.rows) out.push_back(row[0].AsInt());
    std::sort(out.begin(), out.end());
    return out;
  }

  er::Database db_;
  EntityId chord1_, chord2_, section1_, section2_;
  std::map<int, EntityId> notes_;
};

// ----------------------------------------------------------------------
// Ordering-handle API.
// ----------------------------------------------------------------------

TEST_F(QuelPlannerTest, ResolveOrderingHandle) {
  auto h = db_.ResolveOrderingHandle("note_in_chord");
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(h->valid());
  EXPECT_EQ(db_.ordering_def(*h).name, "note_in_chord");
  // Resolution is case-insensitive, like every name lookup.
  auto upper = db_.ResolveOrderingHandle("NOTE_IN_CHORD");
  ASSERT_TRUE(upper.ok());
  EXPECT_EQ(*h, *upper);
  EXPECT_EQ(db_.ResolveOrderingHandle("ghost_order").status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(OrderingHandle().valid());
}

TEST_F(QuelPlannerTest, HandleOverloadsMatchStringOverloads) {
  auto h = db_.ResolveOrderingHandle("note_in_chord");
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(*db_.Children(*h, chord1_), *db_.Children("note_in_chord",
                                                      chord1_));
  EXPECT_EQ(*db_.ChildCount(*h, chord1_), 3u);
  EXPECT_EQ(*db_.ParentOf(*h, notes_[20]), chord1_);
  EXPECT_EQ(*db_.NthChild(*h, chord1_, 2), notes_[30]);
  EXPECT_EQ(*db_.PositionOf(*h, notes_[30]), 2u);
  EXPECT_TRUE(*db_.Before(*h, notes_[10], notes_[20]));
  EXPECT_TRUE(*db_.After(*h, notes_[30], notes_[10]));
  EXPECT_TRUE(*db_.Under(*h, notes_[10], chord1_));
}

// ----------------------------------------------------------------------
// Tri-state predicate contract (§5.6): error vs incomparable vs holds.
// ----------------------------------------------------------------------

TEST_F(QuelPlannerTest, BeforeAcrossParentsIsFalseNotError) {
  auto h = db_.ResolveOrderingHandle("note_in_chord");
  ASSERT_TRUE(h.ok());
  // Different parents: a legitimate "no", not an error.
  auto r = db_.Before(*h, notes_[10], notes_[40]);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
  r = db_.After(*h, notes_[40], notes_[10]);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
}

TEST_F(QuelPlannerTest, EntityAbsentFromOrderingIsFalseNotError) {
  // notes 100/200 exist but participate only in sec_tree.
  auto h = db_.ResolveOrderingHandle("note_in_chord");
  ASSERT_TRUE(h.ok());
  auto r = db_.Before(*h, notes_[100], notes_[10]);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
  r = db_.Under(*h, notes_[100], chord1_);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
}

TEST_F(QuelPlannerTest, NonexistentOperandIsAnError) {
  auto h = db_.ResolveOrderingHandle("note_in_chord");
  ASSERT_TRUE(h.ok());
  const EntityId ghost = 999999;
  EXPECT_EQ(db_.Before(*h, notes_[10], ghost).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.After(*h, ghost, notes_[10]).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.Under(*h, ghost, chord1_).status().code(),
            StatusCode::kNotFound);
}

// ----------------------------------------------------------------------
// Multi-level `under` (recursive orderings).
// ----------------------------------------------------------------------

TEST_F(QuelPlannerTest, UnderReachesAnyDepth) {
  auto h = db_.ResolveOrderingHandle("sec_tree");
  ASSERT_TRUE(h.ok());
  // Direct parent (depth 1) and grandparent (depth 2).
  EXPECT_TRUE(*db_.Under(*h, notes_[100], section2_));
  EXPECT_TRUE(*db_.Under(*h, notes_[100], section1_));
  EXPECT_TRUE(*db_.Under(*h, section2_, section1_));
  // Never reflexive, never upward.
  EXPECT_FALSE(*db_.Under(*h, section1_, section1_));
  EXPECT_FALSE(*db_.Under(*h, section1_, notes_[100]));
}

TEST_F(QuelPlannerTest, UnderIndexSurvivesMutation) {
  auto h = db_.ResolveOrderingHandle("sec_tree");
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(*db_.Under(*h, notes_[100], section1_));
  // Deepen the tree; answers follow the new P-edges at once.
  EntityId section3 = AddChild("sec_tree", "SECTION", section2_, 3);
  EntityId deep = AddChild("sec_tree", "NOTE", section3, 300);
  EXPECT_TRUE(*db_.Under(*h, deep, section1_));
  EXPECT_TRUE(*db_.Under(*h, deep, section3));
  // Detach and re-attach at the top: depth changes, answers follow.
  ASSERT_TRUE(db_.RemoveChild(*h, section3).ok());
  EXPECT_FALSE(*db_.Under(*h, section3, section1_));
  EXPECT_TRUE(*db_.Under(*h, deep, section3));
  ASSERT_TRUE(db_.AppendChild(*h, section1_, section3).ok());
  EXPECT_TRUE(*db_.Under(*h, deep, section1_));
  EXPECT_FALSE(*db_.Under(*h, deep, section2_));
}

TEST_F(QuelPlannerTest, QuelUnderIsMultiLevel) {
  Connection conn = Connection::Local(&db_);
  // section 1 is the root: both notes lie under it at depth 2.
  auto rs = conn.Execute(R"(
    range of n is NOTE
    range of s is SECTION
    retrieve (n.name) where n under s in sec_tree and s.name = 1
  )");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(Ints(*rs), (std::vector<int64_t>{100, 200}));
}

// ----------------------------------------------------------------------
// Planner.
// ----------------------------------------------------------------------

TEST_F(QuelPlannerTest, PlanOrdersBySelectivityThenCardinality) {
  auto stmts = ParseQuel(
      "retrieve (note.name) where note under chord in note_in_chord");
  ASSERT_TRUE(stmts.ok());
  auto plan = PlanQuery(&db_, {}, (*stmts)[0], /*pushdown=*/true);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->vars.size(), 2u);
  // Equal selectivity (one 2-ary conjunct): the smaller relation —
  // 2 chords vs 7 notes — loops first.
  EXPECT_EQ(plan->vars[0].name, "chord");
  EXPECT_EQ(plan->vars[0].cardinality, 2u);
  EXPECT_EQ(plan->vars[1].name, "note");
  EXPECT_EQ(plan->vars[1].cardinality, 7u);
  // The single conjunct drives the inner loop as an ordering slice under
  // the outer binding (so it leaves the filter list), with a handle
  // bound at plan time.
  EXPECT_TRUE(plan->conjuncts.empty());
  EXPECT_STREQ(AccessPathName(plan->vars[0]), "scan");
  EXPECT_STREQ(AccessPathName(plan->vars[1]), "ordering");
  EXPECT_EQ(plan->vars[1].slice_anchor, "chord");
  EXPECT_EQ(plan->vars[1].slice, er::OrderingSlice::kDescendants);
  const std::vector<er::OrderingHandle> handles = OrderHandles(*plan);
  ASSERT_EQ(handles.size(), 1u);
  EXPECT_EQ(plan->vars[1].slice_ordering, handles[0]);
  EXPECT_EQ(db_.ordering_def(handles[0]).name, "note_in_chord");
  EXPECT_EQ(plan->vars[1].slice_anchor_slot, 0u);
  // The naive plan keeps the scan and evaluates the conjunct innermost.
  auto naive = PlanQuery(&db_, {}, (*stmts)[0], /*pushdown=*/false);
  ASSERT_TRUE(naive.ok());
  ASSERT_EQ(naive->conjuncts.size(), 1u);
  EXPECT_EQ(naive->conjuncts[0].depth, 2u);
  EXPECT_STREQ(AccessPathName(naive->vars[1]), "scan");
}

TEST_F(QuelPlannerTest, OrderingSliceDrivesOnlyEligibleConjuncts) {
  std::map<std::string, std::string> ranges = {
      {"n1", "NOTE"}, {"n2", "NOTE"}, {"c", "CHORD"}};
  // Plans borrow the statement AST, so the statements outlive them.
  std::list<std::vector<Statement>> parsed;
  auto plan_for = [&](const std::string& qual, bool pushdown = true) {
    auto stmts = ParseQuel("retrieve (n1.name) where " + qual);
    EXPECT_TRUE(stmts.ok()) << qual;
    parsed.push_back(std::move(*stmts));
    auto plan = PlanQuery(&db_, ranges, parsed.back()[0], pushdown);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return std::move(*plan);
  };
  // Mirrored sibling conjunct: `n2 after n1` with n2 bound drives n1 as
  // the prefix of n2's sibling list.
  Plan mirrored = plan_for("n2.name = 30 and n2 after n1 in note_in_chord");
  ASSERT_EQ(mirrored.vars[1].name, "n1");
  EXPECT_EQ(mirrored.vars[1].slice, er::OrderingSlice::kBefore);
  EXPECT_EQ(mirrored.vars[1].slice_anchor, "n2");
  EXPECT_EQ(mirrored.conjuncts.size(), 1u);  // only n2.name = 30
  // Inside or/not, an ordering conjunct never drives.
  for (const char* qual :
       {"n2.name = 30 and (n1 before n2 in note_in_chord or n1.name = 1)",
        "n2.name = 30 and not (n1 before n2 in note_in_chord)"}) {
    Plan p = plan_for(qual);
    EXPECT_STREQ(AccessPathName(p.vars[1]), "scan") << qual;
  }
  // With n1 bound first, `n1 under c` would need an ancestor walk to
  // enumerate c, which is not an access path.
  Plan upward = plan_for("n1.name = 10 and n1 under c in note_in_chord");
  ASSERT_EQ(upward.vars[0].name, "n1");
  EXPECT_STREQ(AccessPathName(upward.vars[1]), "scan");
  // Self pairs never drive.
  Plan self = plan_for("n1 before n1 in note_in_chord");
  EXPECT_STREQ(AccessPathName(self.vars[0]), "scan");
  // The naive plan keeps the scan.
  Plan naive = plan_for("n2.name = 30 and n1 before n2 in note_in_chord",
                        /*pushdown=*/false);
  EXPECT_STREQ(AccessPathName(naive.vars[0]), "scan");
  EXPECT_STREQ(AccessPathName(naive.vars[1]), "scan");
}

TEST_F(QuelPlannerTest, PlanBindsOrderingInsideOrAndNot) {
  auto stmts = ParseQuel(
      "range of n1, n2 is NOTE\n"
      "retrieve (n1.name) where not (n1 before n2 in note_in_chord"
      " or n1 under chord in note_in_chord)");
  ASSERT_TRUE(stmts.ok());
  std::map<std::string, std::string> ranges = {{"n1", "NOTE"},
                                               {"n2", "NOTE"}};
  auto plan = PlanQuery(&db_, ranges, (*stmts)[1], /*pushdown=*/true);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(OrderHandles(*plan).size(), 2u);
}

TEST_F(QuelPlannerTest, PlanErrors) {
  Connection conn = Connection::Local(&db_);
  // Unknown ordering: rejected at plan time, before any row is read.
  EXPECT_EQ(conn
                .Execute("range of n1, n2 is NOTE\n"
                         "retrieve (n1.name) where n1 before n2 in ghost")
                .status()
                .code(),
            StatusCode::kNotFound);
  // No ordering relates two chords.
  EXPECT_EQ(conn
                .Execute("range of c1, c2 is CHORD\n"
                         "retrieve (c1.name) where c1 before c2")
                .status()
                .code(),
            StatusCode::kNotFound);
  // NOTE participates in two orderings: the operand types are ambiguous
  // without an `in` clause.
  EXPECT_EQ(conn
                .Execute("range of n1, n2 is NOTE\n"
                         "retrieve (n1.name) where n1 before n2")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(conn.Execute("retrieve (zzz.name)").status().code(),
            StatusCode::kNotFound);
}

// ----------------------------------------------------------------------
// explain.
// ----------------------------------------------------------------------

TEST_F(QuelPlannerTest, ExplainGolden) {
  Connection conn = Connection::Local(&db_);
  auto rs = conn.Execute(R"(
    range of n1, n2 is NOTE
    explain retrieve (n1.name)
      where n1 before n2 in note_in_chord and n2.name = 30
  )");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->ToString(),
            "plan: retrieve\n"
            "  pushdown: on\n"
            "  loop 1: n2 is NOTE (~7 rows)\n"
            "    filter: n2.name = 30\n"
            "  loop 2: n1 is NOTE (~7 rows)"
            " via ordering note_in_chord (before n2)\n"
            "  emit: n1.name\n");
  EXPECT_TRUE(rs->rows.empty());
}

TEST_F(QuelPlannerTest, ExplainUnderShowsOrderingSlice) {
  Connection conn = Connection::Local(&db_);
  const char* query =
      "range of n is NOTE\nrange of s is SECTION\n"
      "explain retrieve (c = count(n))"
      " where n under s in sec_tree and s.name = 1";
  auto rs = conn.Execute(query);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->ToString(),
            "plan: retrieve\n"
            "  pushdown: on\n"
            "  loop 1: s is SECTION (~2 rows)\n"
            "    filter: s.name = 1\n"
            "  loop 2: n is NOTE (~7 rows) via ordering sec_tree (under s)\n"
            "  emit: count(n)\n");
  // The naive plan restores the scan: the conjunct is a filter again.
  auto naive = conn.local_session()->ExecuteNaive(query);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive->ToString(),
            "plan: retrieve\n"
            "  pushdown: off\n"
            "  loop 1: n is NOTE (~7 rows)\n"
            "  loop 2: s is SECTION (~2 rows)\n"
            "    filter: n under s in sec_tree\n"
            "    filter: s.name = 1\n"
            "  emit: count(n)\n");
}

TEST_F(QuelPlannerTest, ExplainNeverExecutes) {
  Connection conn = Connection::Local(&db_);
  auto rs = conn.Execute(
      "range of n is NOTE\nexplain retrieve (n.name)");
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->rows.empty());
  EXPECT_FALSE(rs->explain.empty());
  // A plan-only run enumerates no bindings.
  EXPECT_EQ(conn.local_stats().rows_scanned, 0u);
  // And `explain` is retrieve-only.
  EXPECT_EQ(conn.Execute("explain delete n").status().code(),
            StatusCode::kParseError);
}

// ----------------------------------------------------------------------
// explain analyze.
// ----------------------------------------------------------------------

/// Replaces every nanosecond figure so the annotated plan goldens are
/// deterministic.
std::string ScrubTimes(const std::string& s) {
  return std::regex_replace(s, std::regex("[0-9]+ns"), "Xns");
}

/// Pulls the integer after `key=` (e.g. "join=" -> ns) out of an
/// explain-analyze rendering.
uint64_t ExtractNs(const std::string& text, const std::string& key) {
  std::smatch m;
  EXPECT_TRUE(
      std::regex_search(text, m, std::regex(key + "([0-9]+)ns")))
      << text;
  return m.empty() ? 0 : std::stoull(m[1]);
}

TEST_F(QuelPlannerTest, ExplainAnalyzeGolden) {
  Connection conn = Connection::Local(&db_);
  auto rs = conn.Execute(R"(
    range of n1, n2 is NOTE
    explain analyze retrieve (n1.name)
      where n1 before n2 in note_in_chord and n2.name = 30
  )");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  // n2 scans all 7 notes and n2.name = 30 passes once; n1 then
  // enumerates only the two notes (10, 20) preceding note 30 in its
  // chord, so the consumed `before` conjunct is no longer a filter.
  EXPECT_EQ(ScrubTimes(rs->ToString()),
            "plan: retrieve (analyze)\n"
            "  pushdown: on\n"
            "  loop 1: n2 is NOTE (~7 rows) [actual: in=7 out=1, "
            "self=Xns]\n"
            "    filter: n2.name = 30\n"
            "  loop 2: n1 is NOTE (~7 rows)"
            " via ordering note_in_chord (before n2) [actual: in=2 out=2, "
            "self=Xns]\n"
            "  emit: n1.name [actual: rows=2, time=Xns]\n"
            "  actual: join=Xns, statement=Xns\n");
  EXPECT_TRUE(rs->rows.empty());
}

TEST_F(QuelPlannerTest, ExplainAnalyzeExecutesForReal) {
  Connection conn = Connection::Local(&db_);
  auto rs = conn.Execute(
      "range of n is NOTE\nexplain analyze retrieve (n.name)");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_FALSE(rs->explain.empty());
  // Unlike plain explain, analyze enumerates every binding.
  EXPECT_EQ(conn.local_stats().rows_scanned, 7u);
}

TEST_F(QuelPlannerTest, ExplainAnalyzeTimesSumToStatement) {
  // A 10k-note score: 100 chords of 100 notes each.
  ASSERT_TRUE(ddl::ExecuteDdl(R"(
    define entity BIGCHORD (name = integer)
    define entity BIGNOTE (name = integer)
    define ordering big_note_in_chord (BIGNOTE) under BIGCHORD
  )",
                              &db_)
                  .ok());
  int note_name = 0;
  for (int c = 1; c <= 100; ++c) {
    EntityId chord = Create("BIGCHORD", c);
    for (int n = 0; n < 100; ++n)
      AddChild("big_note_in_chord", "BIGNOTE", chord, note_name++);
  }
  Connection conn = Connection::Local(&db_);
  auto rs = conn.Execute(R"(
    range of b1, b2 is BIGNOTE
    explain analyze retrieve (b1.name)
      where b1 before b2 in big_note_in_chord and b2.name = 50
  )");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  const std::string text = rs->ToString();
  // Per-loop actual row counts: b2 scans all 10k notes once; b1 walks
  // only the 50 siblings preceding note 50 in its chord.
  EXPECT_NE(text.find("in=10000 out=1,"), std::string::npos) << text;
  EXPECT_NE(text.find("in=50 out=50,"), std::string::npos) << text;
  // The per-loop self times plus the emit time reconstruct the join
  // total exactly, and the join dominates the reported statement
  // latency (within 10%) on a database this size.
  uint64_t self1 = ExtractNs(text, "self=");
  std::string rest = text.substr(text.find("self=") + 5);
  uint64_t self2 = ExtractNs(rest, "self=");
  uint64_t emit_ns = ExtractNs(text, "time=");
  uint64_t join_ns = ExtractNs(text, "join=");
  uint64_t statement_ns = ExtractNs(text, "statement=");
  EXPECT_EQ(self1 + self2 + emit_ns, join_ns) << text;
  EXPECT_LE(join_ns, statement_ns) << text;
  EXPECT_GE(join_ns * 10, statement_ns * 9) << text;
}

TEST_F(QuelPlannerTest, ExplainAnalyzeChargesFiltersToTheirLoop) {
  // Synthetic timings, so the attribution is exact: each depth's
  // filters run inside inclusive_ns of that depth, but explain prints
  // them under the loop that bound their variables, so that loop's self
  // time must include them.
  auto stmts = ParseQuel(
      "range of n1, n2 is NOTE\n"
      "explain analyze retrieve (n1.name) where n1.name = 10"
      " and n2.name = 30");
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
  const Statement& stmt = (*stmts)[1];
  auto plan = PlanQuery(&db_, {{"n1", "NOTE"}, {"n2", "NOTE"}}, stmt,
                        /*pushdown=*/true);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  AnalyzeStats actual;
  actual.Resize(3);
  actual.calls = {1, 7, 7};
  actual.passed = {1, 1, 1};
  actual.inclusive_ns = {1000, 700, 150};
  // 20ns of constant filters (none here, but the share stays in loop 1),
  // 100ns of loop 1's filter, 40ns of loop 2's.
  actual.filter_ns = {20, 100, 40};
  // loop 1: (1000) - (700 - 100) = 400 = 300 enumerating + its 100.
  // loop 2: (700 - 100) - (150 - 40) = 490 = 450 enumerating + its 40.
  // emit: 150 - 40 = 110. And 400 + 490 + 110 = 1000 = join.
  EXPECT_EQ(ExplainAnalyzePlan(db_, stmt, *plan, actual, 1234),
            "plan: retrieve (analyze)\n"
            "  pushdown: on\n"
            "  loop 1: n1 is NOTE (~7 rows) [actual: in=7 out=1, "
            "self=400ns]\n"
            "    filter: n1.name = 10\n"
            "  loop 2: n2 is NOTE (~7 rows) [actual: in=7 out=1, "
            "self=490ns]\n"
            "    filter: n2.name = 30\n"
            "  emit: n1.name [actual: rows=1, time=110ns]\n"
            "  actual: join=1000ns, statement=1234ns\n");
}

// ----------------------------------------------------------------------
// ResultSet consumption API.
// ----------------------------------------------------------------------

TEST_F(QuelPlannerTest, ResultSetAccessors) {
  Connection conn = Connection::Local(&db_);
  auto rs = conn.Execute(
      "range of n is NOTE\n"
      "retrieve (n.name) where n under chord in note_in_chord"
      " sort by n.name");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->size(), 5u);
  EXPECT_FALSE(rs->empty());
  EXPECT_EQ(rs->ColumnIndex("n.name"), std::optional<size_t>(0));
  EXPECT_EQ(rs->ColumnIndex("N.NAME"), std::optional<size_t>(0));
  EXPECT_EQ(rs->ColumnIndex("nope"), std::nullopt);
  EXPECT_EQ(rs->At(0, 0).AsInt(), 10);
  EXPECT_TRUE(rs->At(0, 7).is_null());   // column out of range
  EXPECT_TRUE(rs->At(99, 0).is_null());  // row out of range
  int64_t expect = 10;
  size_t seen = 0;
  for (ResultSet::RowRef row : *rs) {
    EXPECT_EQ(row[0].AsInt(), expect);
    EXPECT_EQ(row["n.name"].AsInt(), expect);
    EXPECT_TRUE(row["nope"].is_null());
    EXPECT_EQ(row.size(), 1u);
    EXPECT_EQ(row.row_index(), seen);
    expect += 10;
    ++seen;
  }
  EXPECT_EQ(seen, rs->size());
}

// ----------------------------------------------------------------------
// ExecStats and the statement cache.
// ----------------------------------------------------------------------

TEST_F(QuelPlannerTest, ExecStatsAndParseCache) {
  Connection conn = Connection::Local(&db_);
  const std::string query =
      "range of n1, n2 is NOTE\n"
      "retrieve (n1.name)"
      " where n1 before n2 in note_in_chord and n2.name = 30";
  auto first = conn.Execute(query);
  ASSERT_TRUE(first.ok());
  const ExecStats after_first = conn.local_stats();
  EXPECT_EQ(after_first.statements, 2u);  // range + retrieve
  EXPECT_EQ(after_first.plan_cache_hits, 0u);
  // n2 loops over all 7 notes; n1 enumerates only the two notes that
  // precede the surviving binding in its chord.
  EXPECT_EQ(after_first.rows_scanned, 9u);
  EXPECT_GT(after_first.conjuncts_evaluated, 0u);

  auto second = conn.Execute(query);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(Ints(*second), Ints(*first));
  const ExecStats& after_second = conn.local_stats();
  EXPECT_EQ(after_second.statements, 4u);
  EXPECT_EQ(after_second.plan_cache_hits, 1u);

  conn.local_session()->ResetStats();
  EXPECT_EQ(conn.local_stats().statements, 0u);
  EXPECT_EQ(conn.local_stats().ToString(),
            "statements: 0\nrows scanned: 0\nconjuncts evaluated: 0\n"
            "plan cache hits: 0\n");
}

TEST_F(QuelPlannerTest, ResetStatsKeepsParseCache) {
  Connection conn = Connection::Local(&db_);
  const std::string query = "range of n is NOTE\nretrieve (n.name)";
  ASSERT_TRUE(conn.Execute(query).ok());
  conn.local_session()->ResetStats();
  EXPECT_EQ(conn.local_stats().plan_cache_hits, 0u);
  // The cache survived the reset: the re-run skips the parser and the
  // hit counter starts counting again from zero.
  ASSERT_TRUE(conn.Execute(query).ok());
  EXPECT_EQ(conn.local_stats().plan_cache_hits, 1u);
  EXPECT_EQ(conn.local_stats().statements, 2u);
}

TEST_F(QuelPlannerTest, ClearParseCacheForcesReparseWithoutTouchingStats) {
  Connection conn = Connection::Local(&db_);
  const std::string query = "range of n is NOTE\nretrieve (n.name)";
  ASSERT_TRUE(conn.Execute(query).ok());
  ASSERT_TRUE(conn.Execute(query).ok());
  EXPECT_EQ(conn.local_stats().plan_cache_hits, 1u);
  conn.local_session()->ClearParseCache();
  // Counters are untouched; the next run re-parses, so no new hit.
  EXPECT_EQ(conn.local_stats().plan_cache_hits, 1u);
  ASSERT_TRUE(conn.Execute(query).ok());
  EXPECT_EQ(conn.local_stats().plan_cache_hits, 1u);
  // And the re-parsed script is cached again.
  ASSERT_TRUE(conn.Execute(query).ok());
  EXPECT_EQ(conn.local_stats().plan_cache_hits, 2u);
}

TEST_F(QuelPlannerTest, NaiveAndPlannedAgreeOnRecursiveUnder) {
  Connection conn = Connection::Local(&db_);
  const char* query =
      "range of n is NOTE\nrange of s is SECTION\n"
      "retrieve (n.name) where n under s in sec_tree and s.name = 1";
  auto planned = conn.Execute(query);
  ASSERT_TRUE(planned.ok());
  auto naive = conn.local_session()->ExecuteNaive(query);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(Ints(*planned), Ints(*naive));
}

// ----------------------------------------------------------------------
// Index-ablation equivalence property: a database with an attribute
// index on NOTE(name) and one without receive the SAME seeded random
// sequence of mutations and queries, and every answer must match. The
// ordering predicates must also agree with positions read off
// Children()/ParentOf(), and each QUEL query runs planned on the
// indexed database (ordering slice + index probe) and through the naive
// plan on the other. 600 ops per seed; a failure prints the seed and op
// number for replay.
// ----------------------------------------------------------------------

class IndexAblationFuzz : public testing::TestWithParam<uint64_t> {};

TEST_P(IndexAblationFuzz, IndexedAndUnindexedDatabasesStayEquivalent) {
  const uint64_t seed = GetParam();
  er::Database indexed;
  er::Database plain;
  for (er::Database* db : {&indexed, &plain}) {
    ASSERT_TRUE(ddl::ExecuteDdl(R"(
      define entity CHORD (name = integer)
      define entity NOTE (name = integer)
      define ordering note_in_chord (NOTE) under CHORD
    )",
                                db)
                    .ok());
  }
  ASSERT_TRUE(indexed.DefineIndex({"note_name", "NOTE", "name"}).ok());

  // Parallel id vectors: slot i refers to the same logical entity in
  // both databases (ids may differ; slots keep them aligned).
  std::vector<std::pair<EntityId, EntityId>> chords;
  std::vector<std::pair<EntityId, EntityId>> notes;
  int next_name = 0;
  Rng rng(seed);

  auto create = [&](const std::string& type,
                    std::vector<std::pair<EntityId, EntityId>>* out) {
    int name = next_name++;
    auto a = indexed.CreateEntity(type);
    auto b = plain.CreateEntity(type);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(indexed.SetAttribute(*a, "name", Value::Int(name)).ok());
    ASSERT_TRUE(plain.SetAttribute(*b, "name", Value::Int(name)).ok());
    out->emplace_back(*a, *b);
  };
  for (int i = 0; i < 3; ++i) create("CHORD", &chords);
  for (int i = 0; i < 8; ++i) create("NOTE", &notes);

  auto h_indexed = *indexed.ResolveOrderingHandle("note_in_chord");
  auto h_plain = *plain.ResolveOrderingHandle("note_in_chord");
  // Reference position of a note from the navigation API: its offset
  // in Children(ParentOf(note)), or nullopt when it is not ordered.
  auto ref_position = [&](EntityId note) -> std::optional<size_t> {
    const EntityId parent = *indexed.ParentOf(h_indexed, note);
    if (parent == er::kInvalidEntityId) return std::nullopt;
    const std::vector<EntityId> kids = *indexed.Children(h_indexed, parent);
    return static_cast<size_t>(std::find(kids.begin(), kids.end(), note) -
                               kids.begin());
  };
  Connection c_indexed = Connection::Local(&indexed);
  Connection c_plain = Connection::Local(&plain);

  constexpr int kOps = 600;
  for (int op = 0; op < kOps; ++op) {
    SCOPED_TRACE(testing::Message() << "seed " << seed << " op " << op);
    const double dice = rng.NextDouble();
    if (dice < 0.12 && !notes.empty()) {
      // Append a random note under a random chord. Legal iff the note
      // is currently unordered; both databases must agree either way.
      auto [na, nb] = notes[rng.Uniform(notes.size())];
      auto [ca, cb] = chords[rng.Uniform(chords.size())];
      Status a = indexed.AppendChild(h_indexed, ca, na);
      Status b = plain.AppendChild(h_plain, cb, nb);
      ASSERT_EQ(a.code(), b.code()) << a.ToString() << " vs " << b.ToString();
    } else if (dice < 0.22 && !notes.empty()) {
      // Insert at a random position.
      auto [na, nb] = notes[rng.Uniform(notes.size())];
      auto [ca, cb] = chords[rng.Uniform(chords.size())];
      size_t at = rng.Uniform(4);
      Status a = indexed.InsertChildAt(h_indexed, ca, na, at);
      Status b = plain.InsertChildAt(h_plain, cb, nb, at);
      ASSERT_EQ(a.code(), b.code());
    } else if (dice < 0.30 && !notes.empty()) {
      auto [na, nb] = notes[rng.Uniform(notes.size())];
      Status a = indexed.RemoveChild(h_indexed, na);
      Status b = plain.RemoveChild(h_plain, nb);
      ASSERT_EQ(a.code(), b.code());
    } else if (dice < 0.36) {
      if (rng.Bernoulli(0.7) || notes.size() < 4) {
        create("NOTE", &notes);
      } else {
        // Delete an entity outright (detaches it from the ordering).
        size_t slot = rng.Uniform(notes.size());
        Status a = indexed.DeleteEntity(notes[slot].first);
        Status b = plain.DeleteEntity(notes[slot].second);
        ASSERT_EQ(a.code(), b.code());
        notes.erase(notes.begin() + slot);
      }
    } else if (dice < 0.55 && notes.size() >= 2) {
      // Pairwise predicates: Before/After must agree ok-ness and value.
      auto [xa, xb] = notes[rng.Uniform(notes.size())];
      auto [ya, yb] = notes[rng.Uniform(notes.size())];
      auto before_a = indexed.Before(h_indexed, xa, ya);
      auto before_b = plain.Before(h_plain, xb, yb);
      ASSERT_EQ(before_a.ok(), before_b.ok());
      if (before_a.ok()) {
        ASSERT_EQ(*before_a, *before_b);
        const std::optional<size_t> px = ref_position(xa);
        const std::optional<size_t> py = ref_position(ya);
        ASSERT_EQ(*before_a, px && py &&
                                 *indexed.ParentOf(h_indexed, xa) ==
                                     *indexed.ParentOf(h_indexed, ya) &&
                                 *px < *py);
      }
      auto after_a = indexed.After(h_indexed, xa, ya);
      auto after_b = plain.After(h_plain, xb, yb);
      ASSERT_EQ(after_a.ok(), after_b.ok());
      if (after_a.ok()) {
        ASSERT_EQ(*after_a, *after_b);
      }
    } else if (dice < 0.70 && !notes.empty()) {
      auto [na, nb] = notes[rng.Uniform(notes.size())];
      auto [ca, cb] = chords[rng.Uniform(chords.size())];
      auto under_a = indexed.Under(h_indexed, na, ca);
      auto under_b = plain.Under(h_plain, nb, cb);
      ASSERT_EQ(under_a.ok(), under_b.ok());
      if (under_a.ok()) {
        ASSERT_EQ(*under_a, *under_b);
        ASSERT_EQ(*under_a, *indexed.ParentOf(h_indexed, na) == ca);
      }
      auto pos_a = indexed.PositionOf(h_indexed, na);
      auto pos_b = plain.PositionOf(h_plain, nb);
      ASSERT_EQ(pos_a.ok(), pos_b.ok());
      ASSERT_EQ(pos_a.ok(), ref_position(na).has_value());
      if (pos_a.ok()) {
        ASSERT_EQ(*pos_a, *pos_b);
        ASSERT_EQ(*pos_a, *ref_position(na));
      }
    } else if (dice < 0.85 && !chords.empty()) {
      // Child lists must agree element-by-element (mapped via slots).
      auto [ca, cb] = chords[rng.Uniform(chords.size())];
      auto kids_a = indexed.Children(h_indexed, ca);
      auto kids_b = plain.Children(h_plain, cb);
      ASSERT_EQ(kids_a.ok(), kids_b.ok());
      if (!kids_a.ok()) continue;
      ASSERT_EQ(kids_a->size(), kids_b->size());
      for (size_t i = 0; i < kids_a->size(); ++i) {
        auto slot = std::find_if(
            notes.begin(), notes.end(),
            [&](const auto& p) { return p.first == (*kids_a)[i]; });
        ASSERT_NE(slot, notes.end());
        ASSERT_EQ(slot->second, (*kids_b)[i]);
      }
    } else {
      // The same QUEL ordering query against both databases.
      const std::string query =
          "range of n1, n2 is NOTE\n"
          "retrieve (n1.name) where n1 " +
          std::string(rng.Bernoulli(0.5) ? "before" : "after") +
          " n2 in note_in_chord and n2.name = " +
          std::to_string(rng.Uniform(static_cast<uint64_t>(next_name)));
      auto rs_a = c_indexed.Execute(query);
      auto rs_b = c_plain.local_session()->ExecuteNaive(query);
      ASSERT_EQ(rs_a.ok(), rs_b.ok());
      if (rs_a.ok()) {
        std::vector<int64_t> va, vb;
        for (const auto& row : rs_a->rows) va.push_back(row[0].AsInt());
        for (const auto& row : rs_b->rows) vb.push_back(row[0].AsInt());
        std::sort(va.begin(), va.end());
        std::sort(vb.begin(), vb.end());
        ASSERT_EQ(va, vb);
      }
    }
  }
  // The planned side's slices and probes enumerated strictly fewer
  // bindings than the naive cross product.
  EXPECT_LT(c_indexed.local_stats().rows_scanned,
            c_plain.local_stats().rows_scanned);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexAblationFuzz,
                         testing::Values(1u, 2u, 3u));

// ----------------------------------------------------------------------
// CompiledEvaluatorFuzz: the compiled evaluator (slot-resolved
// expressions over a frame of bound records) against a reference built
// from the direct API — GetAttribute for every attribute, role_refs for
// roles, Before/Under for the ordering operators, ForEachEntity /
// ForEachRelationship for enumeration. Seeded data mixes null, int,
// float, string and ref attributes; the query shapes cover comparisons
// under or/not, `is`, relationship roles and attributes, ordering
// operators inside and outside or, grouped and plain aggregates, and
// type errors, which must surface exactly when a row reaches them
// (never over an empty extent). Every query runs planned and naive;
// rows are compared as multisets.
// ----------------------------------------------------------------------

class CompiledEvaluatorFuzz : public testing::TestWithParam<uint64_t> {};

TEST_P(CompiledEvaluatorFuzz, CompiledMatchesDirectApiReference) {
  const uint64_t seed = GetParam();
  er::Database db;
  ASSERT_TRUE(ddl::ExecuteDdl(R"(
    define entity GRP (g = integer)
    define entity PART (n = integer, f = float, s = string, r = GRP)
    define entity EMPTY (x = string)
    define ordering part_in_grp (PART) under GRP
    define relationship LINK (src = PART, dst = PART, w = integer)
  )",
                              &db)
                  .ok());
  Rng rng(seed);
  auto ok = [](const Status& s) { ASSERT_TRUE(s.ok()) << s.ToString(); };
  std::vector<EntityId> grps, parts;
  const int n_grps = 3 + static_cast<int>(rng.Uniform(3));
  for (int i = 0; i < n_grps; ++i) {
    EntityId g = *db.CreateEntity("GRP");
    if (i != 0) ok(db.SetAttribute(g, "g", Value::Int(i)));
    grps.push_back(g);
  }
  const double floats[] = {-1.5, 0.0, 2.0, 2.5, 3.0};
  const int n_parts = 15 + static_cast<int>(rng.Uniform(20));
  for (int i = 0; i < n_parts; ++i) {
    EntityId p = *db.CreateEntity("PART");
    if (rng.Bernoulli(0.85))
      ok(db.SetAttribute(p, "n", Value::Int(rng.Range(-3, 3))));
    if (rng.Bernoulli(0.85))
      ok(db.SetAttribute(p, "f", Value::Float(floats[rng.Uniform(5)])));
    if (rng.Bernoulli(0.85))
      ok(db.SetAttribute(
          p, "s", Value::String(StrFormat("s%d", (int)rng.Uniform(4)))));
    if (rng.Bernoulli(0.8))
      ok(db.SetAttribute(p, "r", Value::Ref(grps[rng.Uniform(grps.size())])));
    if (rng.Bernoulli(0.7))
      ok(db.AppendChild("part_in_grp", grps[rng.Uniform(grps.size())], p));
    parts.push_back(p);
  }
  for (int i = 0; i < 12; ++i) {
    auto l = db.Connect("LINK", {{"src", parts[rng.Uniform(parts.size())]},
                                 {"dst", parts[rng.Uniform(parts.size())]}});
    ASSERT_TRUE(l.ok());
    if (rng.Bernoulli(0.8))
      ok(db.SetRelationshipAttribute(*l, "w", Value::Int(rng.Range(0, 4))));
  }
  const er::OrderingHandle h = *db.ResolveOrderingHandle("part_in_grp");

  // Direct-API reference helpers.
  auto attr = [&](EntityId id, const char* name) {
    return *db.GetAttribute(id, name);
  };
  // Value::Compare folded to a predicate; nullopt is a type error.
  auto holds = [](const Value& a, CompareOp op,
                  const Value& b) -> std::optional<bool> {
    Result<int> c = a.Compare(b);
    if (!c.ok()) return std::nullopt;
    switch (op) {
      case CompareOp::kEq: return *c == 0;
      case CompareOp::kNe: return *c != 0;
      case CompareOp::kLt: return *c < 0;
      case CompareOp::kLe: return *c <= 0;
      case CompareOp::kGt: return *c > 0;
      case CompareOp::kGe: return *c >= 0;
    }
    return std::nullopt;
  };
  auto is = [](const Value& a, const Value& b) {
    return !a.is_null() && !b.is_null() && a.AsRef() == b.AsRef();
  };
  struct Link {
    EntityId src, dst;
    Value w;
  };
  std::vector<Link> links;
  ASSERT_TRUE(db.ForEachRelationship("LINK", [&](const er::RelationshipInstance&
                                                     ri) {
                  links.push_back({ri.role_refs[0], ri.role_refs[1],
                                   ri.attrs[0]});
                  return true;
                }).ok());
  // Rows as a sorted multiset of encodings.
  using Rows = std::vector<std::vector<Value>>;
  auto canon = [](const Rows& rows) {
    std::vector<std::string> out;
    for (const auto& row : rows) {
      ByteWriter w;
      for (const Value& v : row) v.Encode(&w);
      out.emplace_back(w.data().begin(), w.data().end());
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  // Reference accumulator for one aggregate: rows seen, the best (min
  // or max) non-null value, and the integer sum.
  struct Agg {
    int64_t count = 0;
    bool any = false;
    Value best;
    int64_t isum = 0;
  };

  Connection conn = Connection::Local(&db);
  const char* kOps[] = {"=", "!=", "<", "<=", ">", ">="};
  const CompareOp kCmp[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                            CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  int errors_seen = 0;
  int nonempty = 0;
  constexpr int kQueries = 120;
  for (int qi = 0; qi < kQueries; ++qi) {
    const int64_t k = rng.Range(-3, 3);
    const size_t oi = rng.Uniform(6);
    const double x = floats[rng.Uniform(5)];
    const std::string sv = StrFormat("s%d", (int)rng.Uniform(4));
    std::string query;
    Rows expect;
    bool expect_error = false;
    switch (rng.Uniform(9)) {
      case 0: {
        // Comparisons under or/not over int, float (vs int too), string.
        query = StrFormat(
            "range of p is PART retrieve (p.n, p.f, p.s, p.r) "
            "where (p.n %s %lld or not (p.f >= %s)) and p.s != \"%s\" "
            "and p.f %s %lld",
            kOps[oi], (long long)k, StrFormat("%.1f", x).c_str(),
            sv.c_str(), kOps[(oi + 3) % 6], (long long)k);
        for (EntityId p : parts) {
          bool a = *holds(attr(p, "n"), kCmp[oi], Value::Int(k)) ||
                   !*holds(attr(p, "f"), CompareOp::kGe, Value::Float(x));
          if (a && *holds(attr(p, "s"), CompareOp::kNe, Value::String(sv)) &&
              *holds(attr(p, "f"), kCmp[(oi + 3) % 6], Value::Int(k)))
            expect.push_back(
                {attr(p, "n"), attr(p, "f"), attr(p, "s"), attr(p, "r")});
        }
        break;
      }
      case 1: {
        // `is` between a ref attribute and an entity variable.
        query = StrFormat(
            "range of p is PART range of g is GRP retrieve (p.n, g.g, g) "
            "where p.r is g and (g.g %s %lld or p.s = \"%s\")",
            kOps[oi], (long long)k, sv.c_str());
        for (EntityId p : parts)
          for (EntityId g : grps)
            if (is(attr(p, "r"), Value::Ref(g)) &&
                (*holds(attr(g, "g"), kCmp[oi], Value::Int(k)) ||
                 *holds(attr(p, "s"), CompareOp::kEq, Value::String(sv))))
              expect.push_back({attr(p, "n"), attr(g, "g"), Value::Ref(g)});
        break;
      }
      case 2: {
        // Ordering operators: a sliced `before`, or two inside `or`.
        const bool sliced = rng.Bernoulli(0.5);
        query = StrFormat(
            sliced ? "range of p, q is PART retrieve (p.n, q.n) where p "
                     "before q in part_in_grp and q.n = %lld"
                   : "range of p, q is PART retrieve (p.n, q.n) where q.n = "
                     "%lld and (p before q in part_in_grp or p after q in "
                     "part_in_grp)",
            (long long)k);
        for (EntityId p : parts)
          for (EntityId q : parts)
            if ((*db.Before(h, p, q) || (!sliced && *db.After(h, p, q))) &&
                *holds(attr(q, "n"), CompareOp::kEq, Value::Int(k)))
              expect.push_back({attr(p, "n"), attr(q, "n")});
        break;
      }
      case 3: {
        // `under` as a slice, and `not under` as a filter.
        const bool negate = rng.Bernoulli(0.5);
        query = StrFormat(
            "range of p is PART range of g is GRP retrieve (p.s, g.g) "
            "where %s(p under g in part_in_grp) and g.g %s %lld",
            negate ? "not " : "", kOps[oi], (long long)k);
        for (EntityId g : grps)
          for (EntityId p : parts)
            if (*db.Under(h, p, g) != negate &&
                *holds(attr(g, "g"), kCmp[oi], Value::Int(k)))
              expect.push_back({attr(p, "s"), attr(g, "g")});
        break;
      }
      case 4: {
        // Relationship roles and attributes.
        query = StrFormat(
            "range of l is LINK range of a is PART retrieve (l.w, l.dst, a.n) "
            "where l.src is a and (l.w %s %lld or not (a.n = %lld))",
            kOps[oi], (long long)k, (long long)k);
        for (const Link& l : links)
          for (EntityId a : parts)
            if (l.src == a && (*holds(l.w, kCmp[oi], Value::Int(k)) ||
                               !*holds(attr(a, "n"), CompareOp::kEq,
                                       Value::Int(k))))
              expect.push_back({l.w, Value::Ref(l.dst), attr(a, "n")});
        break;
      }
      case 5: {
        // Grouped aggregates: by string, by ref, by role.
        const int which = static_cast<int>(rng.Uniform(3));
        std::map<std::string, std::pair<std::vector<Value>, Agg>> groups;
        auto feed = [&](std::vector<Value> key, const Value& v, bool maxv) {
          ByteWriter w;
          for (const Value& kv : key) kv.Encode(&w);
          auto& [by, agg] =
              groups[std::string(w.data().begin(), w.data().end())];
          by = std::move(key);
          ++agg.count;
          if (v.is_null()) return;
          if (v.type() == rel::ValueType::kInt) agg.isum += v.AsInt();
          if (!agg.any || (maxv ? *v.Compare(agg.best) > 0
                                : *v.Compare(agg.best) < 0))
            agg.best = v;
          agg.any = true;
        };
        if (which == 0) {
          query = StrFormat(
              "range of p is PART retrieve (c = count(p by p.s)) "
              "where p.n %s %lld",
              kOps[oi], (long long)k);
          for (EntityId p : parts)
            if (*holds(attr(p, "n"), kCmp[oi], Value::Int(k)))
              feed({attr(p, "s")}, Value::Null(), true);
          for (auto& [key, g] : groups)
            expect.push_back({g.first[0], Value::Int(g.second.count)});
        } else if (which == 1) {
          query = "range of p is PART retrieve (m = max(p.f by p.r, p.s))";
          for (EntityId p : parts)
            feed({attr(p, "r"), attr(p, "s")}, attr(p, "f"), true);
          for (auto& [key, g] : groups)
            expect.push_back({g.first[0], g.first[1], g.second.best});
        } else {
          query = StrFormat(
              "range of l is LINK retrieve (t = sum(l.w by l.dst)) "
              "where l.w != %lld",
              (long long)k);
          for (const Link& l : links)
            if (*holds(l.w, CompareOp::kNe, Value::Int(k)))
              feed({Value::Ref(l.dst)}, l.w, true);
          for (auto& [key, g] : groups)
            expect.push_back({g.first[0], Value::Int(g.second.isum)});
        }
        break;
      }
      case 6: {
        // Plain aggregates over a filtered extent.
        query = StrFormat(
            "range of p is PART retrieve (c = count(p), lo = min(p.f), "
            "hi = max(p.n), t = sum(p.n)) where p.s %s \"%s\"",
            kOps[oi], sv.c_str());
        Agg c, lo, hi;
        for (EntityId p : parts) {
          if (!*holds(attr(p, "s"), kCmp[oi], Value::String(sv))) continue;
          ++c.count;
          for (auto [agg, v, maxv] :
               {std::tuple<Agg*, Value, bool>{&lo, attr(p, "f"), false},
                std::tuple<Agg*, Value, bool>{&hi, attr(p, "n"), true}}) {
            if (v.is_null()) continue;
            if (v.type() == rel::ValueType::kInt) agg->isum += v.AsInt();
            if (!agg->any || (maxv ? *v.Compare(agg->best) > 0
                                   : *v.Compare(agg->best) < 0))
              agg->best = v;
            agg->any = true;
          }
        }
        expect.push_back({Value::Int(c.count), lo.best, hi.best,
                          Value::Int(hi.isum)});
        break;
      }
      case 7: {
        // Type errors surface per row: a string compared with an int, a
        // relationship variable used as a value. Over an empty extent
        // the same statement succeeds with no rows.
        const int which = static_cast<int>(rng.Uniform(3));
        if (which == 0) {
          query = StrFormat(
              "range of p is PART retrieve (p.n) where p.s < %lld",
              (long long)k);
          for (EntityId p : parts) {
            std::optional<bool> r =
                holds(attr(p, "s"), CompareOp::kLt, Value::Int(k));
            if (!r) expect_error = true;
            else if (*r) expect.push_back({attr(p, "n")});
          }
        } else if (which == 1) {
          query = "range of l is LINK retrieve (l, l.w)";
          expect_error = !links.empty();
        } else {
          query = StrFormat(
              "range of e is EMPTY retrieve (e.x) where e.x < %lld",
              (long long)k);
        }
        break;
      }
      default: {
        // `is` between two entity variables, and null refs never match.
        query = StrFormat(
            "range of p, q is PART retrieve (p.n, q.n) where p.r is q.r "
            "and p.n %s q.n",
            kOps[oi]);
        for (EntityId p : parts)
          for (EntityId q : parts)
            if (is(attr(p, "r"), attr(q, "r")) &&
                *holds(attr(p, "n"), kCmp[oi], attr(q, "n")))
              expect.push_back({attr(p, "n"), attr(q, "n")});
        break;
      }
    }
    SCOPED_TRACE(testing::Message() << "seed " << seed << " query " << qi
                                    << ": " << query);
    if (!expect.empty()) ++nonempty;
    for (bool naive : {false, true}) {
      auto rs = naive ? conn.local_session()->ExecuteNaive(query)
                      : conn.Execute(query);
      if (expect_error) {
        ASSERT_FALSE(rs.ok()) << (naive ? "naive" : "planned");
        EXPECT_EQ(rs.status().code(), StatusCode::kTypeError)
            << rs.status().ToString();
        ++errors_seen;
        continue;
      }
      ASSERT_TRUE(rs.ok()) << (naive ? "naive: " : "planned: ")
                           << rs.status().ToString();
      ASSERT_EQ(canon(rs->rows), canon(expect))
          << (naive ? "naive" : "planned");
    }
  }
  EXPECT_GT(errors_seen, 0);
  EXPECT_GT(nonempty, kQueries / 2);  // the comparisons are not vacuous
  // Name errors are plan-time: an unknown attribute or role fails even
  // over an empty extent, with the per-row lookup's old message.
  auto bad_attr = conn.Execute("range of e is EMPTY retrieve (e.nope)");
  ASSERT_FALSE(bad_attr.ok());
  EXPECT_EQ(bad_attr.status().code(), StatusCode::kNotFound);
  EXPECT_NE(bad_attr.status().message().find(
                "entity type EMPTY has no attribute nope"),
            std::string::npos)
      << bad_attr.status().ToString();
  auto bad_role = conn.Execute("range of l is LINK retrieve (l.nope)");
  ASSERT_FALSE(bad_role.ok());
  EXPECT_NE(bad_role.status().message().find(
                "relationship LINK has no role or attribute nope"),
            std::string::npos)
      << bad_role.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledEvaluatorFuzz,
                         testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace mdm::quel
