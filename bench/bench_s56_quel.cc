// §5.6: the four ordering queries, run verbatim through QUEL. Measures
// latency against chord size and database size, and two DESIGN.md
// evaluation-strategy ablations: conjunct push-down versus the naive
// full cross product, the ordering index (sibling ranks + Euler
// intervals) versus the unindexed linear-scan/parent-walk path, and the
// ordering access paths (loops driven from S-edges) versus the extent
// scan as the corpus grows.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/strings.h"
#include "quel/quel.h"

namespace {

using mdm::bench::MakeChordDb;
using mdm::er::Database;

constexpr const char* kBeforeQuery = R"(
  range of n1, n2 is NOTE
  retrieve (n1.name)
    where n1 before n2 in note_in_chord and n2.name = 2
)";

constexpr const char* kUnderQuery = R"(
  range of n1 is NOTE
  range of c1 is CHORD
  retrieve (n1.name)
    where n1 under c1 in note_in_chord and c1.name = 1
)";

constexpr const char* kParentQuery = R"(
  range of n1 is NOTE
  range of c1 is CHORD
  retrieve (c1.name)
    where n1 under c1 in note_in_chord and n1.name = 0
)";

void BM_BeforeQuery(benchmark::State& state) {
  Database db = MakeChordDb(static_cast<int>(state.range(0)), 4);
  mdm::quel::QuelSession session(&db);
  for (auto _ : state) {
    auto rs = session.Execute(kBeforeQuery);
    if (!rs.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(rs->rows.size());
  }
}
BENCHMARK(BM_BeforeQuery)->Arg(4)->Arg(16)->Arg(64);

void BM_UnderQuery(benchmark::State& state) {
  Database db = MakeChordDb(static_cast<int>(state.range(0)), 4);
  mdm::quel::QuelSession session(&db);
  for (auto _ : state) {
    auto rs = session.Execute(kUnderQuery);
    if (!rs.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(rs->rows.size());
  }
}
BENCHMARK(BM_UnderQuery)->Arg(4)->Arg(16)->Arg(64);

void BM_ParentQuery(benchmark::State& state) {
  Database db = MakeChordDb(static_cast<int>(state.range(0)), 4);
  mdm::quel::QuelSession session(&db);
  for (auto _ : state) {
    auto rs = session.Execute(kParentQuery);
    if (!rs.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(rs->rows.size());
  }
}
BENCHMARK(BM_ParentQuery)->Arg(4)->Arg(16)->Arg(64);

// Ablation: the same before-query with conjunct push-down disabled —
// the executor enumerates the full NOTE x NOTE cross product.
void BM_BeforeQueryNaive(benchmark::State& state) {
  Database db = MakeChordDb(static_cast<int>(state.range(0)), 4);
  mdm::quel::QuelSession session(&db);
  for (auto _ : state) {
    auto rs = session.ExecuteNaive(kBeforeQuery);
    if (!rs.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(rs->rows.size());
  }
}
BENCHMARK(BM_BeforeQueryNaive)->Arg(4)->Arg(16)->Arg(64);

// Ablation: the same queries with the ordering index disabled — every
// `before` falls back to a linear sibling scan and every `under` to a
// parent-chain walk.
void BM_BeforeQueryUnindexed(benchmark::State& state) {
  Database db = MakeChordDb(static_cast<int>(state.range(0)), 4);
  db.EnableOrderingIndex(false);
  mdm::quel::QuelSession session(&db);
  for (auto _ : state) {
    auto rs = session.Execute(kBeforeQuery);
    if (!rs.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(rs->rows.size());
  }
}
BENCHMARK(BM_BeforeQueryUnindexed)->Arg(4)->Arg(16)->Arg(64);

void BM_UnderQueryUnindexed(benchmark::State& state) {
  Database db = MakeChordDb(static_cast<int>(state.range(0)), 4);
  db.EnableOrderingIndex(false);
  mdm::quel::QuelSession session(&db);
  for (auto _ : state) {
    auto rs = session.Execute(kUnderQuery);
    if (!rs.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(rs->rows.size());
  }
}
BENCHMARK(BM_UnderQueryUnindexed)->Arg(4)->Arg(16)->Arg(64);

// Direct ordering-API equivalents (what a C++ client pays without the
// query language).
void BM_BeforeDirectApi(benchmark::State& state) {
  Database db = MakeChordDb(static_cast<int>(state.range(0)), 4);
  // Find note named 2 and its chord, then list earlier siblings.
  mdm::er::EntityId target = 0;
  (void)db.ForEachEntity("NOTE", [&](mdm::er::EntityId id) {
    auto v = db.GetAttribute(id, "name");
    if (v.ok() && !v->is_null() && v->AsInt() == 2) {
      target = id;
      return false;
    }
    return true;
  });
  for (auto _ : state) {
    auto parent = db.ParentOf("note_in_chord", target);
    auto kids = db.Children("note_in_chord", *parent);
    size_t earlier = 0;
    for (mdm::er::EntityId kid : *kids) {
      if (kid == target) break;
      ++earlier;
    }
    benchmark::DoNotOptimize(earlier);
  }
}
BENCHMARK(BM_BeforeDirectApi)->Arg(4)->Arg(16)->Arg(64);

// Wall-clock nanoseconds per call of `f`, averaged over `iters` calls.
template <typename F>
double NsPerOp(F&& f, int iters) {
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) f();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / iters;
}

// A chain of `depth` SECTIONs under a recursive ordering; `under` on the
// (leaf, root) pair costs O(depth) without the interval index.
Database MakeDeepSectionDb(int depth, mdm::er::EntityId* root,
                           mdm::er::EntityId* leaf) {
  Database db;
  auto ddl = mdm::ddl::ExecuteDdl(R"(
    define entity SECTION (name = integer)
    define ordering sec_tree (SECTION) under SECTION
  )",
                                  &db);
  if (!ddl.ok()) std::abort();
  mdm::er::EntityId parent = *db.CreateEntity("SECTION");
  *root = parent;
  for (int i = 1; i < depth; ++i) {
    mdm::er::EntityId next = *db.CreateEntity("SECTION");
    (void)db.AppendChild("sec_tree", parent, next);
    parent = next;
  }
  *leaf = parent;
  return db;
}

// A staff-shaped corpus like the fig-1 scores: `staves` staves of
// `per_staff` notes in note_on_staff, with STAFF(number) indexed so the
// staff lookup itself stays flat as the corpus grows.
Database MakeStaffDb(int staves, int per_staff) {
  Database db;
  auto ddl = mdm::ddl::ExecuteDdl(R"(
    define entity STAFF (number = integer)
    define entity NOTE (midi_key = integer, degree = integer)
    define ordering note_on_staff (NOTE) under STAFF
    define index staff_number on STAFF(number)
  )",
                                  &db);
  if (!ddl.ok()) std::abort();
  auto h = *db.ResolveOrderingHandle("note_on_staff");
  for (int s = 1; s <= staves; ++s) {
    mdm::er::EntityId staff = *db.CreateEntity("STAFF");
    (void)db.SetAttribute(staff, "number", mdm::rel::Value::Int(s));
    for (int n = 0; n < per_staff; ++n) {
      mdm::er::EntityId note = *db.CreateEntity("NOTE");
      (void)db.SetAttribute(note, "midi_key",
                            mdm::rel::Value::Int(48 + (n * 7) % 36));
      (void)db.SetAttribute(note, "degree", mdm::rel::Value::Int(n % 7));
      (void)db.AppendChild(h, staff, note);
    }
  }
  return db;
}

// The analyzer (A2) and typesetter (T1) shapes of the fig-1 mix.
constexpr const char* kA2Query =
    "range of n is NOTE range of s is STAFF "
    "retrieve (c = count(n)) where n under s in note_on_staff "
    "and s.number = 2";
constexpr const char* kT1Query =
    "range of n is NOTE range of s is STAFF "
    "retrieve (n.midi_key, n.degree) where n under s in note_on_staff "
    "and s.number = 2";

// Ordering access paths vs the extent scan they replace: p50 latency and
// bindings enumerated per A2/T1 query as the corpus grows at a fixed
// fan-out of 400 notes per staff. With access paths on, both should
// stay flat; with EnableOrderingIndex(false) they grow with the corpus.
std::string OrderingAccessRow(bool smoke) {
  constexpr int kPerStaff = 400;
  // Staff counts: 10^4 and 10^5 notes (smoke: 1200 and 10^4).
  const std::vector<int> staff_counts =
      smoke ? std::vector<int>{3, 25} : std::vector<int>{25, 250};
  const int iters = smoke ? 5 : 21;
  std::string cases;
  for (int staves : staff_counts) {
    const int notes = staves * kPerStaff;
    Database db = MakeStaffDb(staves, kPerStaff);
    for (bool on : {true, false}) {
      db.EnableOrderingIndex(on);
      for (const auto& [shape, query] :
           {std::pair<const char*, const char*>{"A2", kA2Query},
            std::pair<const char*, const char*>{"T1", kT1Query}}) {
        mdm::quel::QuelSession session(&db);
        (void)session.Execute(query);  // warm: parse cache, lazy indexes
        session.ResetStats();
        std::vector<double> us;
        for (int i = 0; i < iters; ++i)
          us.push_back(NsPerOp(
                           [&] {
                             benchmark::DoNotOptimize(
                                 session.Execute(query)->size());
                           },
                           1) /
                       1000.0);
        std::sort(us.begin(), us.end());
        if (!cases.empty()) cases += ", ";
        cases += mdm::StrFormat(
            "{\"shape\": \"%s\", \"notes\": %d, \"access\": \"%s\", "
            "\"p50_us\": %.1f, \"rows_scanned\": %llu}",
            shape, notes, on ? "ordering" : "scan", us[us.size() / 2],
            (unsigned long long)(session.stats().rows_scanned / iters));
      }
    }
  }
  return "{\"op\": \"ordering_access\", \"per_staff\": " +
         std::to_string(kPerStaff) + ", \"cases\": [" + cases + "]}";
}

// The acceptance comparison for the §5.6 structural indexes, emitted as
// one JSON object so runs can be diffed: before/under predicate latency
// on a 10k-note database, indexed versus the EnableOrderingIndex(false)
// ablation, plus query-level and push-down numbers for context.
void EmitBeforeAfterJson(bool smoke) {
  constexpr int kPredIters = 20000;
  constexpr int kQueryIters = 10;
  // Registry deltas over the timed sections below (ordering-index hit
  // rates, rows scanned, parse-cache hits) ride along in the JSON.
  mdm::bench::MetricsSection metrics;

  // `before` on the last two of 10000 siblings (a 10k-note score as one
  // maximally wide chord): rank lookup vs a scan of the sibling list.
  Database wide = MakeChordDb(1, 10000);
  auto h = *wide.ResolveOrderingHandle("note_in_chord");
  mdm::er::EntityId last_chord = 0;
  (void)wide.ForEachEntity("CHORD", [&](mdm::er::EntityId id) {
    last_chord = id;
    return true;
  });
  std::vector<mdm::er::EntityId> kids = *wide.Children(h, last_chord);
  mdm::er::EntityId a = kids[kids.size() - 2], b = kids.back();
  (void)wide.Before(h, a, b);  // warm the rank index
  double before_idx =
      NsPerOp([&] { benchmark::DoNotOptimize(*wide.Before(h, a, b)); },
              kPredIters);
  wide.EnableOrderingIndex(false);
  double before_scan =
      NsPerOp([&] { benchmark::DoNotOptimize(*wide.Before(h, a, b)); },
              kPredIters);
  wide.EnableOrderingIndex(true);

  // `under` on a 10k-deep recursive chain: interval test vs parent walk.
  mdm::er::EntityId root = 0, leaf = 0;
  Database deep = MakeDeepSectionDb(10000, &root, &leaf);
  auto hs = *deep.ResolveOrderingHandle("sec_tree");
  (void)deep.Under(hs, leaf, root);  // warm the interval index
  double under_idx =
      NsPerOp([&] { benchmark::DoNotOptimize(*deep.Under(hs, leaf, root)); },
              kPredIters);
  deep.EnableOrderingIndex(false);
  double under_walk =
      NsPerOp([&] { benchmark::DoNotOptimize(*deep.Under(hs, leaf, root)); },
              kPredIters);
  deep.EnableOrderingIndex(true);

  // Query-level view of the same ablation: 10k notes as 100 chords of
  // 100 (binding enumeration and attribute filters dilute the gap).
  Database grid = MakeChordDb(100, 100);
  mdm::quel::QuelSession session(&grid);
  double q_before_idx = NsPerOp(
      [&] { benchmark::DoNotOptimize(session.Execute(kBeforeQuery)->size()); },
      kQueryIters);
  grid.EnableOrderingIndex(false);
  double q_before_scan = NsPerOp(
      [&] { benchmark::DoNotOptimize(session.Execute(kBeforeQuery)->size()); },
      kQueryIters);
  grid.EnableOrderingIndex(true);

  // Push-down vs the naive cross product (small db: naive is quadratic).
  Database small = MakeChordDb(16, 4);
  mdm::quel::QuelSession planned(&small);
  double q_planned = NsPerOp(
      [&] { benchmark::DoNotOptimize(planned.Execute(kBeforeQuery)->size()); },
      kQueryIters);
  double q_naive = NsPerOp(
      [&] {
        benchmark::DoNotOptimize(planned.ExecuteNaive(kBeforeQuery)->size());
      },
      kQueryIters);

  std::printf(
      "BENCH_JSON {\"bench\": \"s56_quel_ordering_index\", "
      "\"scale\": {\"notes\": 10000, \"chord_width\": 10000, "
      "\"under_depth\": 10000}, \"results\": ["
      "{\"op\": \"before_predicate\", \"indexed_ns\": %.1f, "
      "\"unindexed_ns\": %.1f, \"speedup\": %.1f}, "
      "{\"op\": \"under_predicate\", \"indexed_ns\": %.1f, "
      "\"unindexed_ns\": %.1f, \"speedup\": %.1f}, "
      "{\"op\": \"before_query\", \"indexed_ns\": %.0f, "
      "\"unindexed_ns\": %.0f, \"speedup\": %.2f}, "
      "{\"op\": \"pushdown_vs_naive\", \"planned_ns\": %.0f, "
      "\"naive_ns\": %.0f, \"speedup\": %.1f}, %s], "
      "\"metrics\": {%s}}\n",
      before_idx, before_scan, before_scan / before_idx, under_idx, under_walk,
      under_walk / under_idx, q_before_idx, q_before_scan,
      q_before_scan / q_before_idx, q_planned, q_naive, q_naive / q_planned,
      OrderingAccessRow(smoke).c_str(), metrics.DeltaJson().c_str());
  std::printf("acceptance (>=10x on indexed before/under predicates): "
              "before %.1fx, under %.1fx\n\n",
              before_scan / before_idx, under_walk / under_idx);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = mdm::bench::ConsumeSmokeFlag(&argc, argv);
  mdm::bench::PrintHeader(
      "§5.6 — manipulation of ordered entities",
      "the paper's retrieve queries over before/after/under in "
      "note_in_chord");
  Database db = MakeChordDb(2, 4);
  mdm::quel::QuelSession session(&db);
  auto rs = session.Execute(kBeforeQuery);
  std::printf("notes prior to note 2 in its chord:\n%s\n",
              rs->ToString().c_str());
  rs = session.Execute(kUnderQuery);
  std::printf("notes under chord 1:\n%s\n", rs->ToString().c_str());
  std::printf("expect: push-down ~linear in notes; naive cross product\n"
              "quadratic (the gap widens with database size).\n\n");
  EmitBeforeAfterJson(smoke);
  benchmark::Initialize(&argc, argv);
  if (!smoke) benchmark::RunSpecifiedBenchmarks();
  return 0;
}
