// §5.6: the four ordering queries, run verbatim through QUEL. Measures
// latency against chord size and database size; the DESIGN.md
// evaluation-strategy ablation (conjunct push-down and the ordering
// access paths versus the naive full cross product) as the corpus
// grows; the per-row cost of the fig-1 shapes that read every note they
// enumerate; and the fig-1 analyzer/typesetter ops under a stream of
// note inserts, which must not slow the ordering predicates down.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <span>
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

// Wall-clock microseconds of one call of `f`.
template <typename F>
double UsOf(F&& f) {
  return NsPerOp(f, 1) / 1000.0;
}

// The `q`-quantile of `samples` (sorted in place).
double Quantile(std::vector<double>* samples, double q) {
  std::sort(samples->begin(), samples->end());
  return (*samples)[static_cast<size_t>(q * (samples->size() - 1))];
}

void AppendNote(Database* db, mdm::er::OrderingHandle h,
                mdm::er::EntityId staff, int key, int degree) {
  mdm::er::EntityId note = *db->CreateEntity("NOTE");
  (void)db->SetAttribute(note, "midi_key", mdm::rel::Value::Int(key));
  (void)db->SetAttribute(note, "degree", mdm::rel::Value::Int(degree));
  (void)db->AppendChild(h, staff, note);
}

// Occurs once per staff, as fig-1's A1 keys are rare.
constexpr int kRareKey = 100;

// A staff-shaped corpus like the fig-1 scores: `staves` staves of
// `per_staff` notes in note_on_staff, with STAFF(number) indexed so the
// staff lookup itself stays flat as the corpus grows. Each staff's last
// note carries kRareKey.
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
  mdm::er::WriteTxn txn(&db);
  for (int s = 1; s <= staves; ++s) {
    mdm::er::EntityId staff = *db.CreateEntity("STAFF");
    (void)db.SetAttribute(staff, "number", mdm::rel::Value::Int(s));
    for (int n = 0; n < per_staff; ++n)
      AppendNote(&db, h, staff,
                 n + 1 == per_staff ? kRareKey : 48 + (n * 7) % 36, n % 7);
  }
  if (!txn.Commit().ok()) std::abort();
  return db;
}

// The analyzer (A1, A2) and typesetter (T1) shapes of the fig-1 mix.
const std::string kA1Query = mdm::StrFormat(
    "range of n1, n2 is NOTE range of s is STAFF "
    "retrieve (c = count(n1)) where n1 before n2 in note_on_staff "
    "and n2 under s in note_on_staff and s.number = 2 "
    "and n2.midi_key = %d",
    kRareKey);
constexpr const char* kA2Query =
    "range of n is NOTE range of s is STAFF "
    "retrieve (c = count(n)) where n under s in note_on_staff "
    "and s.number = 2";
constexpr const char* kA3Query =
    "range of n is NOTE range of s is STAFF "
    "retrieve (c = count(n by n.degree)) where n under s in note_on_staff "
    "and s.number = 2";
constexpr const char* kA4Query =
    "range of n is NOTE range of s is STAFF "
    "retrieve (lo = min(n.midi_key), hi = max(n.midi_key)) "
    "where n under s in note_on_staff and s.number = 2";
constexpr const char* kT1Query =
    "range of n is NOTE range of s is STAFF "
    "retrieve (n.midi_key, n.degree) where n under s in note_on_staff "
    "and s.number = 2";

constexpr int kPerStaff = 400;

// Corpus sizes for the two rows: 10^4 and 10^5 notes (smoke: 1200 and
// 10^4), as staff counts at kPerStaff notes per staff.
std::vector<int> StaffCounts(bool smoke) {
  return smoke ? std::vector<int>{3, 25} : std::vector<int>{25, 250};
}

// Ordering access paths vs the naive plan's cross-product scan: p50
// latency and bindings enumerated per A2/T1 query as the corpus grows
// at a fixed fan-out of kPerStaff notes per staff. The access paths
// should stay flat. The naive plan enumerates NOTE x STAFF, so it runs
// on the smaller corpus only.
std::string OrderingAccessRow(bool smoke) {
  const std::vector<int> staff_counts = StaffCounts(smoke);
  const int iters = smoke ? 5 : 21;
  const int naive_iters = smoke ? 1 : 5;
  std::string cases;
  for (int staves : staff_counts) {
    const int notes = staves * kPerStaff;
    Database db = MakeStaffDb(staves, kPerStaff);
    for (bool naive : {false, true}) {
      if (naive && staves != staff_counts.front()) continue;
      for (const auto& [shape, query] :
           {std::pair<const char*, const char*>{"A2", kA2Query},
            std::pair<const char*, const char*>{"T1", kT1Query}}) {
        mdm::quel::QuelSession session(&db);
        auto run = [&, query = query] {
          auto rs = naive ? session.ExecuteNaive(query)
                          : session.Execute(query);
          benchmark::DoNotOptimize(rs->size());
        };
        run();  // warm the plan cache
        session.ResetStats();
        const int n = naive ? naive_iters : iters;
        std::vector<double> us;
        for (int i = 0; i < n; ++i) us.push_back(UsOf(run));
        if (!cases.empty()) cases += ", ";
        cases += mdm::StrFormat(
            "{\"shape\": \"%s\", \"notes\": %d, \"access\": \"%s\", "
            "\"p50_us\": %.1f, \"rows_scanned\": %llu}",
            shape, notes, naive ? "scan" : "ordering", Quantile(&us, 0.5),
            (unsigned long long)(session.stats().rows_scanned / n));
      }
    }
  }
  return "{\"op\": \"ordering_access\", \"per_staff\": " +
         std::to_string(kPerStaff) + ", \"cases\": [" + cases + "]}";
}

// The direct-API floor of the fig-1 shapes A3, A4 and T1: the same
// answer computed without the query language, by the calls the plan
// makes — pin the published snapshot, probe STAFF(number) and re-check
// the candidate, walk the staff's note_on_staff subtree, fetch the
// notes' records in batches (Database::FindEntities) and read the
// attributes by slot. What QUEL costs above this is the layer's own
// per-row and per-statement work.
class DirectShapes {
 public:
  explicit DirectShapes(const Database* db) : db_(db) {
    const mdm::er::ErSchema& schema = db->schema();
    for (size_t i = 0; i < schema.entity_types().size(); ++i)
      if (schema.entity_types()[i].name == "NOTE")
        note_type_ = static_cast<uint32_t>(i);
    const mdm::er::EntityTypeDef* note = schema.FindEntityType("NOTE");
    midi_key_ = *note->AttributeIndex("midi_key");
    degree_ = *note->AttributeIndex("degree");
    number_ = *schema.FindEntityType("STAFF")->AttributeIndex("number");
    h_ = *db->ResolveOrderingHandle("note_on_staff");
    staff_number_ = db->FindAttrIndex("STAFF", "number");
    if (staff_number_ == nullptr) std::abort();
  }

  /// Runs `shape` ("A3", "A4" or "T1") on staff 2; returns its row count.
  size_t Run(const std::string& shape) const {
    mdm::er::SnapshotReadScope scope(db_, db_->PinSnapshot());
    const mdm::rel::Value two = mdm::rel::Value::Int(2);
    size_t out = 0;
    for (mdm::er::EntityId staff : db_->IndexLookup(*staff_number_, two)) {
      const mdm::er::EntityRecord* rec = nullptr;
      db_->FindEntities(&staff, 1, &rec);
      if (rec == nullptr || !rec->attrs()[number_].Equals(two)) continue;
      std::vector<mdm::er::EntityId> ids;
      (void)db_->ForEachInOrderingSlice(
          h_, mdm::er::OrderingSlice::kDescendants, staff, note_type_,
          [&](mdm::er::EntityId id) {
            ids.push_back(id);
            return true;
          });
      out += Rows(shape, ids);
    }
    return out;
  }

 private:
  size_t Rows(const std::string& shape,
              const std::vector<mdm::er::EntityId>& ids) const {
    constexpr size_t kBatch = 16;
    const mdm::er::EntityRecord* recs[kBatch];
    std::map<int64_t, int64_t> by_degree;             // A3
    const mdm::rel::Value* lo = nullptr;              // A4
    const mdm::rel::Value* hi = nullptr;
    std::vector<std::vector<mdm::rel::Value>> rows;   // T1
    for (size_t base = 0; base < ids.size(); base += kBatch) {
      const size_t n = std::min(kBatch, ids.size() - base);
      db_->FindEntities(ids.data() + base, n, recs);
      for (size_t i = 0; i < n; ++i) {
        std::span<const mdm::rel::Value> attrs = recs[i]->attrs();
        if (shape == "A3") {
          ++by_degree[attrs[degree_].AsInt()];
        } else if (shape == "A4") {
          const mdm::rel::Value& key = attrs[midi_key_];
          if (lo == nullptr || key.TryCompare(*lo) < 0) lo = &key;
          if (hi == nullptr || key.TryCompare(*hi) > 0) hi = &key;
        } else {
          rows.push_back({attrs[midi_key_], attrs[degree_]});
        }
      }
    }
    if (shape == "A3") return by_degree.size();
    if (shape == "A4") return lo != nullptr ? 1 : 0;
    return rows.size();
  }

  const Database* db_;
  uint32_t note_type_ = 0;
  size_t midi_key_ = 0, degree_ = 0, number_ = 0;
  mdm::er::OrderingHandle h_;
  const mdm::er::AttrIndex* staff_number_ = nullptr;
};

// The per-row cost of the fig-1 shapes that read attributes of every
// note they enumerate (A1 reads one per n2 row, A3 groups by one, A4
// aggregates one, T1 emits two): p50 latency divided by the bindings
// the statement enumerates (rows_scanned), at 10^4 and 10^5 notes
// (smoke: 1200 and 10^4) of kPerStaff notes per staff. The slice that
// finds the notes is flat in the corpus size, so a flat ns_per_row
// means reading a row costs the same at any size.
//
// For A3, A4 and T1 each iteration also times the direct-API floor
// (DirectShapes) right after the statement, so both see the same cache
// and host state: `ratio_to_floor` is the statement's p50 over the
// floor's, a per-row layer cost that host speed and noise largely
// cancel out of, where ns_per_row moves with both.
std::string NsPerRowRow(bool smoke) {
  const int iters = smoke ? 5 : 101;
  std::string cases;
  for (int staves : StaffCounts(smoke)) {
    const int notes = staves * kPerStaff;
    Database db = MakeStaffDb(staves, kPerStaff);
    const DirectShapes direct(&db);
    for (const auto& [shape, query] :
         {std::pair<const char*, const char*>{"A1", kA1Query.c_str()},
          std::pair<const char*, const char*>{"A3", kA3Query},
          std::pair<const char*, const char*>{"A4", kA4Query},
          std::pair<const char*, const char*>{"T1", kT1Query}}) {
      mdm::quel::QuelSession session(&db);
      const bool floored = std::string(shape) != "A1";
      size_t want_rows = 0;
      auto run = [&, query = query] {
        want_rows = session.Execute(query)->size();
      };
      auto run_direct = [&, shape = shape] {
        if (direct.Run(shape) != want_rows) std::abort();
      };
      run();  // warm the plan cache
      if (floored) run_direct();
      session.ResetStats();
      std::vector<double> us, floor_us;
      for (int i = 0; i < iters; ++i) {
        us.push_back(UsOf(run));
        if (floored) floor_us.push_back(UsOf(run_direct));
      }
      const double rows =
          static_cast<double>(session.stats().rows_scanned) / iters;
      const double p50 = Quantile(&us, 0.5);
      if (!cases.empty()) cases += ", ";
      cases += mdm::StrFormat(
          "{\"shape\": \"%s\", \"notes\": %d, \"rows\": %.0f, "
          "\"p50_us\": %.1f, \"ns_per_row\": %.1f",
          shape, notes, rows, p50, p50 * 1000.0 / rows);
      if (floored) {
        const double floor_p50 = Quantile(&floor_us, 0.5);
        cases += mdm::StrFormat(
            ", \"direct_api_p50_us\": %.1f, \"ratio_to_floor\": %.2f",
            floor_p50, p50 / floor_p50);
      }
      cases += "}";
    }
  }
  return "{\"op\": \"ns_per_row\", \"per_staff\": " +
         std::to_string(kPerStaff) + ", \"cases\": [" + cases + "]}";
}

// A1 and T1 with and without insert churn: with churn, every round
// first appends one note to the last staff (an editor's write, one
// WriteTxn), then times one A1 and one T1 on staff 2. The
// ordering predicates read the snapshot's own edges, so a write
// anywhere must not make the next read slower. Returns the row; writes
// A1's p99-with-churn / p50-without ratio per corpus size to `ratios`.
std::string InsertChurnRow(bool smoke, std::vector<double>* ratios) {
  const int rounds = smoke ? 20 : 200;
  std::string cases;
  for (int staves : StaffCounts(smoke)) {
    const int notes = staves * kPerStaff;
    Database db = MakeStaffDb(staves, kPerStaff);
    auto h = *db.ResolveOrderingHandle("note_on_staff");
    mdm::er::EntityId last_staff = 0;
    (void)db.ForEachEntity("STAFF", [&](mdm::er::EntityId id) {
      last_staff = id;
      return true;
    });
    mdm::quel::QuelSession session(&db);
    double a1_p50_quiet = 0;
    for (bool churn : {false, true}) {
      std::vector<double> a1_us, t1_us;
      for (int r = 0; r < rounds; ++r) {
        if (churn) {
          mdm::er::WriteTxn txn(&db);
          AppendNote(&db, h, last_staff, 48 + r % 36, r % 7);
          if (!txn.Commit().ok()) std::abort();
        }
        a1_us.push_back(UsOf([&] {
          benchmark::DoNotOptimize(session.Execute(kA1Query)->size());
        }));
        t1_us.push_back(UsOf([&] {
          benchmark::DoNotOptimize(session.Execute(kT1Query)->size());
        }));
      }
      for (const auto& [shape, us] :
           {std::pair<const char*, std::vector<double>*>{"A1", &a1_us},
            std::pair<const char*, std::vector<double>*>{"T1", &t1_us}}) {
        const double p50 = Quantile(us, 0.5);
        const double p99 = Quantile(us, 0.99);
        if (!cases.empty()) cases += ", ";
        cases += mdm::StrFormat(
            "{\"shape\": \"%s\", \"notes\": %d, \"churn\": %s, "
            "\"p50_us\": %.1f, \"p99_us\": %.1f}",
            shape, notes, churn ? "true" : "false", p50, p99);
        if (std::string(shape) == "A1") {
          if (!churn) a1_p50_quiet = p50;
          else ratios->push_back(p99 / a1_p50_quiet);
        }
      }
    }
  }
  return "{\"op\": \"insert_churn\", \"per_staff\": " +
         std::to_string(kPerStaff) + ", \"rounds\": " +
         std::to_string(rounds) + ", \"cases\": [" + cases + "]}";
}

// The §5.6 dashboard line, one JSON object so runs can be diffed:
// push-down vs the naive plan, the ordering access paths as the corpus
// grows, the per-row cost, and the insert-churn row.
void EmitJson(bool smoke) {
  constexpr int kQueryIters = 10;
  // Registry deltas over the timed sections below (rows scanned,
  // parse-cache hits) ride along in the JSON.
  mdm::bench::MetricsSection metrics;

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

  std::vector<double> ratios;
  const std::string access = OrderingAccessRow(smoke);
  const std::string per_row = NsPerRowRow(smoke);
  const std::string churn = InsertChurnRow(smoke, &ratios);
  std::printf(
      "BENCH_JSON {\"bench\": \"s56_quel\", \"results\": ["
      "{\"op\": \"pushdown_vs_naive\", \"planned_ns\": %.0f, "
      "\"naive_ns\": %.0f, \"speedup\": %.1f}, %s, %s, %s], "
      "\"metrics\": {%s}}\n",
      q_planned, q_naive, q_naive / q_planned, access.c_str(),
      per_row.c_str(), churn.c_str(), metrics.DeltaJson().c_str());
  std::printf("acceptance (A1 p99 with churn <= 2x its churn-free p50):");
  for (double r : ratios) std::printf(" %.2fx", r);
  std::printf("\n\n");
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
  EmitJson(smoke);
  benchmark::Initialize(&argc, argv);
  if (!smoke) benchmark::RunSpecifiedBenchmarks();
  return 0;
}
