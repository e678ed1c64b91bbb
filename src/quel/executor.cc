#include <algorithm>
#include <chrono>
#include <mutex>
#include <set>

#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "obs/span.h"
#include "quel/planner.h"
#include "quel/quel.h"

namespace mdm::quel {

using er::Database;
using er::EntityId;
using er::RelationshipInstance;
using rel::Value;
using rel::ValueType;

namespace {

/// Script shapes cached per session; cleared wholesale on overflow.
constexpr size_t kPlanCacheCapacity = 128;

/// Process-wide mirrors of the per-session ExecStats counters.
struct QuelCounters {
  obs::Counter* statements;
  obs::Counter* rows_scanned;
  obs::Counter* conjuncts;
  obs::Counter* parse_cache_hits;
  static const QuelCounters& Get() {
    static QuelCounters c = {
        obs::Registry::Global()->GetCounter(
            "mdm_quel_statements_total", "QUEL statements executed"),
        obs::Registry::Global()->GetCounter(
            "mdm_quel_rows_scanned_total",
            "Range-variable bindings enumerated by nested-loop joins"),
        obs::Registry::Global()->GetCounter(
            "mdm_quel_conjuncts_total",
            "Pushed-down conjunct tests evaluated"),
        obs::Registry::Global()->GetCounter(
            "mdm_quel_parse_cache_hits_total",
            "Scripts answered from the session plan cache")};
    return c;
  }
};

/// How each statement acquired (or avoided) the database latch — the
/// observable half of the snapshot-read contract: a read-heavy workload
/// should show snapshot_reads rising while exclusive stays flat.
struct LatchCounters {
  obs::Counter* exclusive;
  obs::Counter* snapshot_reads;
  static const LatchCounters& Get() {
    static LatchCounters c = {
        obs::Registry::Global()->GetCounter(
            "mdm_quel_exclusive_latch_total",
            "Statements executed under the exclusive db latch"),
        obs::Registry::Global()->GetCounter(
            "mdm_quel_snapshot_reads_total",
            "Read statements served from a pinned snapshot (no latch)")};
    return c;
  }
};

/// Pre-resolved metrics for the per-statement span, so the hot Execute
/// path skips the registry lookup.
obs::Histogram* StatementDuration() {
  static obs::Histogram* h = obs::Registry::Global()->GetHistogram(
      "mdm_span_duration_ns{span=\"quel.statement\"}",
      "Inclusive span latency in nanoseconds");
  return h;
}

obs::Counter* StatementSelf() {
  static obs::Counter* c = obs::Registry::Global()->GetCounter(
      "mdm_span_self_ns_total{span=\"quel.statement\"}",
      "Span latency excluding child spans");
  return c;
}

/// Pre-resolved metrics for the per-probe span on index-backed loops.
obs::Histogram* IndexProbeDuration() {
  static obs::Histogram* h = obs::Registry::Global()->GetHistogram(
      "mdm_span_duration_ns{span=\"quel.index_probe\"}",
      "Inclusive span latency in nanoseconds");
  return h;
}

obs::Counter* IndexProbeSelf() {
  static obs::Counter* c = obs::Registry::Global()->GetCounter(
      "mdm_span_self_ns_total{span=\"quel.index_probe\"}",
      "Span latency excluding child spans");
  return c;
}

/// What one plan slot is bound to while its loop runs: the entity id
/// and, when the plan reads its attributes, the record the scan, probe
/// or slice fetched for the current row, once; or the relationship
/// instance.
struct Bound {
  EntityId id = er::kInvalidEntityId;
  const er::EntityRecord* entity = nullptr;
  const RelationshipInstance* rel = nullptr;
};

/// The one evaluator of compiled plans (planner.h CompiledExpr /
/// CompiledQual) over a frame of bound records: an attribute is
/// `attrs[index]` of the record in its slot, read by reference. The hot
/// path reports errors through `*err` instead of building a Result per
/// node; only type errors (which depend on the values) arise here, name
/// errors were raised by the planner.
class Evaluator {
 public:
  Evaluator(const Database* db, const Plan* plan, const Bound* frame,
            const Value* params)
      : db_(db), plan_(plan), frame_(frame), params_(params) {}

  /// The value of `e` under the frame: a reference into a bound record
  /// or the call's parameters, or into `*scratch` for computed refs.
  /// nullptr on error, with `*err` set.
  const Value* Eval(const CompiledExpr& e, Value* scratch,
                    Status* err) const {
    switch (e.kind) {
      case CompiledExpr::Kind::kLiteral:
        return &params_[e.index];
      case CompiledExpr::Kind::kEntity:
        *scratch = Value::Ref(frame_[e.slot].id);
        return scratch;
      case CompiledExpr::Kind::kAttr:
        return &frame_[e.slot].entity->attrs()[e.index];
      case CompiledExpr::Kind::kRole:
        *scratch = Value::Ref(frame_[e.slot].rel->role_refs[e.index]);
        return scratch;
      case CompiledExpr::Kind::kRelAttr:
        return &frame_[e.slot].rel->attrs[e.index];
      case CompiledExpr::Kind::kRelValue:
        *err = TypeError("relationship variable " + e.src->var +
                         " used as a value");
        return nullptr;
    }
    *err = Internal("unreachable expr kind");
    return nullptr;
  }

  /// Tests compiled qualification node `node`: 1 holds, 0 does not, -1
  /// error (with `*err` set).
  int Test(uint32_t node, Status* err) const {
    const CompiledQual& q = plan_->quals[node];
    switch (q.kind) {
      case Qual::Kind::kCompare: {
        Value ls, rs;
        const Value* lhs = Eval(q.lhs, &ls, err);
        if (lhs == nullptr) return -1;
        const Value* rhs = Eval(q.rhs, &rs, err);
        if (rhs == nullptr) return -1;
        std::optional<int> c = lhs->TryCompare(*rhs);
        if (!c.has_value()) {
          *err = lhs->Compare(*rhs).status();
          return -1;
        }
        switch (q.cmp) {
          case CompareOp::kEq: return *c == 0;
          case CompareOp::kNe: return *c != 0;
          case CompareOp::kLt: return *c < 0;
          case CompareOp::kLe: return *c <= 0;
          case CompareOp::kGt: return *c > 0;
          case CompareOp::kGe: return *c >= 0;
        }
        *err = Internal("unreachable compare op");
        return -1;
      }
      case Qual::Kind::kIs: {
        Value ls, rs;
        const Value* lhs = Eval(q.lhs, &ls, err);
        if (lhs == nullptr) return -1;
        const Value* rhs = Eval(q.rhs, &rs, err);
        if (rhs == nullptr) return -1;
        // A null operand designates no entity, so `is` is simply false
        // — NOT a TypeError. This must agree with the index-probe path
        // (planner.h), which never enumerates null-valued rows: were
        // null an error here, an index probe would mask it and ablation
        // equivalence would break.
        if (lhs->is_null() || rhs->is_null()) return 0;
        if (lhs->type() != ValueType::kRef || rhs->type() != ValueType::kRef) {
          *err = TypeError("'is' compares entities, not values");
          return -1;
        }
        return lhs->AsRef() == rhs->AsRef();
      }
      case Qual::Kind::kOrder: {
        const EntityId a = frame_[q.slot1].id;
        const EntityId b = frame_[q.slot2].id;
        Result<bool> r = q.order_op == OrderOp::kBefore
                             ? db_->Before(q.ordering, a, b)
                         : q.order_op == OrderOp::kAfter
                             ? db_->After(q.ordering, a, b)
                             : db_->Under(q.ordering, a, b);
        if (!r.ok()) {
          *err = r.status();
          return -1;
        }
        return *r;
      }
      case Qual::Kind::kAnd: {
        int a = Test(q.a, err);
        return a == 1 ? Test(q.b, err) : a;
      }
      case Qual::Kind::kOr: {
        int a = Test(q.a, err);
        return a == 0 ? Test(q.b, err) : a;
      }
      case Qual::Kind::kNot: {
        int a = Test(q.a, err);
        return a < 0 ? a : 1 - a;
      }
    }
    *err = Internal("unreachable qual kind");
    return -1;
  }

  const Bound& bound(uint32_t slot) const { return frame_[slot]; }

 private:
  const Database* db_;
  const Plan* plan_;
  const Bound* frame_;
  const Value* params_;
};

/// Enumerates bindings for the plan's variables as nested loops, binding
/// loop k's record into frame slot k and evaluating each conjunct at its
/// planned depth. Calls `emit` for every qualifying full binding. Rows
/// and conjunct tests are counted locally (rows_scanned(),
/// conjuncts_evaluated()) for the caller to publish once per statement.
/// `actual` (optional, `explain analyze`) records per-depth call/pass
/// counts and inclusive timings — when null the join pays no timing
/// overhead.
class NestedLoopJoin {
 public:
  NestedLoopJoin(const Database* db, const Plan* plan, const Value* params,
                 AnalyzeStats* actual)
      : db_(db),
        plan_(plan),
        actual_(actual),
        frame_(plan->vars.size()),
        eval_(db, plan, frame_.data(), params),
        filters_begin_(plan->vars.size() + 2, 0) {
    batches_.resize(plan->vars.size());
    // plan->conjuncts is sorted by depth: depth k's filters are
    // [filters_begin_[k], filters_begin_[k + 1]).
    for (const PlannedConjunct& c : plan->conjuncts)
      ++filters_begin_[c.depth + 1];
    for (size_t k = 1; k < filters_begin_.size(); ++k)
      filters_begin_[k] += filters_begin_[k - 1];
  }

  const Evaluator& eval() const { return eval_; }
  uint64_t rows_scanned() const { return rows_scanned_; }
  uint64_t conjuncts_evaluated() const { return conjuncts_evaluated_; }

  Status Run(const std::function<Status()>& emit) {
    emit_ = &emit;
    Descend(0);
    return std::move(err_);
  }

 private:
  // Each returns false once err_ is set, unwinding every loop.
  bool Descend(size_t depth) {
    if (actual_ == nullptr) return DescendImpl(depth);
    ++actual_->calls[depth];
    auto t0 = std::chrono::steady_clock::now();
    bool ok = DescendImpl(depth);
    actual_->inclusive_ns[depth] += NsSince(t0);
    return ok;
  }

  static uint64_t NsSince(std::chrono::steady_clock::time_point t0) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }

  // Evaluates the conjuncts that became fully bound at this depth: 1
  // all pass, 0 one fails, -1 error.
  int PassesFilters(size_t depth) {
    for (uint32_t i = filters_begin_[depth]; i < filters_begin_[depth + 1];
         ++i) {
      ++conjuncts_evaluated_;
      int pass = eval_.Test(plan_->conjuncts[i].root, &err_);
      if (pass != 1) return pass;
    }
    return 1;
  }

  bool DescendImpl(size_t depth) {
    // Filters are timed on their own: explain prints them under loop
    // `depth`, so the renderer charges their time to it.
    std::chrono::steady_clock::time_point t0;
    if (actual_ != nullptr) t0 = std::chrono::steady_clock::now();
    int pass = PassesFilters(depth);
    if (actual_ != nullptr) actual_->filter_ns[depth] += NsSince(t0);
    if (pass < 0) return false;
    if (pass == 0) return true;
    if (actual_ != nullptr) ++actual_->passed[depth];
    if (depth == plan_->vars.size()) {
      err_ = (*emit_)();
      return err_.ok();
    }
    const PlannedVar& var = plan_->vars[depth];
    Bound& slot = frame_[depth];
    Status s;
    if (var.is_relationship) {
      s = db_->ForEachRelationship(
          var.type, [&](const RelationshipInstance& ri) {
            ++rows_scanned_;
            slot.rel = &ri;
            return Descend(depth + 1);
          });
    } else {
      // A loop that reads its records binds ids in batches: the batch's
      // record lookups overlap in memory (Database::FindEntities) before
      // its rows run in order. On a cold cache each row would otherwise
      // wait on its lookup's chain of loads in turn.
      std::vector<EntityId>& batch = batches_[depth];
      auto flush = [&] {
        const er::EntityRecord* recs[kBatch];
        db_->FindEntities(batch.data(), batch.size(), recs);
        bool ok = true;
        for (size_t i = 0; ok && i < batch.size(); ++i) {
          slot.id = batch[i];
          slot.entity = recs[i];
          if (slot.entity == nullptr) {
            err_ = NotFound(
                StrFormat("no entity #%llu", (unsigned long long)batch[i]));
            ok = false;
          } else {
            ok = Descend(depth + 1);
          }
        }
        batch.clear();
        return ok;
      };
      auto visit = [&](EntityId id) {
        ++rows_scanned_;
        if (!var.reads_record) {
          slot.id = id;
          return Descend(depth + 1);
        }
        batch.push_back(id);
        return batch.size() < kBatch || flush();
      };
      bool driven = false;
      if (var.slice_qual != nullptr) {
        // Ordering access path: the anchor is bound by an outer loop,
        // and the slice yields exactly the entities its conjunct admits.
        driven = true;
        s = db_->ForEachInOrderingSlice(
            var.slice_ordering, var.slice,
            frame_[var.slice_anchor_slot].id, var.type_index, visit);
      } else if (var.index != nullptr) {
        // Index-backed loop: evaluate the key over the outer bindings
        // and enumerate only matching candidates. A null key falls
        // through to the scan (nulls are never indexed, but
        // Value::Compare treats null = null as a match, so only the
        // scan path sees those rows).
        Value scratch;
        const Value* probe_key = eval_.Eval(var.index_key, &scratch, &err_);
        if (probe_key == nullptr) return false;
        if (!probe_key->is_null()) {
          driven = true;
          std::vector<EntityId> candidates;
          {
            obs::Span span("quel.index_probe", IndexProbeDuration(),
                           IndexProbeSelf());
            candidates = db_->IndexLookup(*var.index, *probe_key);
          }
          for (EntityId id : candidates)
            if (!visit(id)) break;
        }
      }
      if (!driven) s = db_->ForEachEntity(var.type, visit);
      if (!batch.empty() && err_.ok()) flush();
      batch.clear();
    }
    if (!s.ok() && err_.ok()) err_ = std::move(s);
    return err_.ok();
  }

  const Database* db_;
  const Plan* plan_;
  AnalyzeStats* actual_;
  static constexpr size_t kBatch = 16;

  std::vector<Bound> frame_;
  std::vector<std::vector<EntityId>> batches_;  // per depth, reused
  Evaluator eval_;
  std::vector<uint32_t> filters_begin_;
  uint64_t rows_scanned_ = 0;
  uint64_t conjuncts_evaluated_ = 0;
  Status err_;
  const std::function<Status()>* emit_ = nullptr;
};

/// Aggregate accumulator for one target.
struct AggState {
  uint64_t count = 0;
  double sum = 0;
  bool all_int = true;
  int64_t isum = 0;
  Value min_v;
  Value max_v;

  Status Feed(const Value& v) {
    ++count;
    if (v.is_null()) return Status::OK();
    if (v.type() == ValueType::kInt) {
      isum += v.AsInt();
      sum += static_cast<double>(v.AsInt());
    } else if (v.type() == ValueType::kFloat) {
      all_int = false;
      sum += v.AsFloat();
    }
    if (min_v.is_null()) {
      min_v = v;
      max_v = v;
    } else {
      std::optional<int> cmin = v.TryCompare(min_v);
      if (!cmin.has_value()) return v.Compare(min_v).status();
      if (*cmin < 0) min_v = v;
      std::optional<int> cmax = v.TryCompare(max_v);
      if (!cmax.has_value()) return v.Compare(max_v).status();
      if (*cmax > 0) max_v = v;
    }
    return Status::OK();
  }

  Value Finish(AggFn fn) const {
    switch (fn) {
      case AggFn::kCount: return Value::Int(static_cast<int64_t>(count));
      case AggFn::kSum:
        return all_int ? Value::Int(isum) : Value::Float(sum);
      case AggFn::kAvg:
        return Value::Float(count == 0 ? 0.0 : sum / count);
      case AggFn::kMin: return min_v;
      case AggFn::kMax: return max_v;
      case AggFn::kNone: break;
    }
    return Value::Null();
  }
};

/// Deep copy of a qualification tree, for the parent query of an
/// `append ... under`: Qual holds unique_ptr children and is not
/// copyable.
std::unique_ptr<Qual> CloneQual(const Qual& q) {
  auto out = std::make_unique<Qual>();
  out->kind = q.kind;
  out->lhs = q.lhs;
  out->rhs = q.rhs;
  out->cmp = q.cmp;
  out->order_op = q.order_op;
  out->order_var1 = q.order_var1;
  out->order_var2 = q.order_var2;
  out->ordering = q.ordering;
  if (q.a != nullptr) out->a = CloneQual(*q.a);
  if (q.b != nullptr) out->b = CloneQual(*q.b);
  return out;
}

/// The retrieve `append to X (a = e, ...) under v in O [where qual]`
/// runs to bind v: target 0 is v itself, then one target per
/// assignment, so the assignments are evaluated over the parent (`a =
/// v.b` copies from it).
std::unique_ptr<Statement> ParentQuery(const Statement& stmt) {
  auto query = std::make_unique<Statement>();
  query->kind = Statement::Kind::kRetrieve;
  Target parent_target;
  parent_target.label = "parent";
  parent_target.expr = Expr::VarRef(stmt.append_parent_var);
  query->targets.push_back(std::move(parent_target));
  for (const auto& [attr, expr] : stmt.assignments) {
    Target t;
    t.label = attr;
    t.expr = expr;
    query->targets.push_back(std::move(t));
  }
  if (stmt.qual != nullptr) query->qual = CloneQual(*stmt.qual);
  return query;
}

/// Whether FindAttrIndex can return an index at all.
bool IndexesUsable(const Database& db) {
  return db.attr_index_enabled() && !db.bulk_index_load_active();
}

}  // namespace

/// One statement's plan and what it was planned against.
struct CachedPlan {
  Plan plan;
  uint64_t catalog_version = 0;
  bool indexes_usable = true;
};

/// A parsed script and its statements' plans: a plan-cache entry, or
/// the one-off twin an uncached call builds. The statements never
/// change once parsed; `plans`, `hits` and `plans_built` are guarded by
/// the session mutex.
struct CachedScript {
  explicit CachedScript(ParsedScript p) : parsed(std::move(p)) {
    const size_t n = parsed.statements.size();
    parent_queries.resize(n);
    plans.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const Statement& stmt = parsed.statements[i];
      if (stmt.kind == Statement::Kind::kAppend &&
          !stmt.append_parent_var.empty())
        parent_queries[i] = ParentQuery(stmt);
    }
  }

  ParsedScript parsed;
  // Per statement: the parent query of an `append ... under`, else
  // null. Its plan takes the statement's slot in `plans`.
  std::vector<std::unique_ptr<Statement>> parent_queries;
  std::vector<std::shared_ptr<const CachedPlan>> plans;
  uint64_t hits = 0;
  uint64_t plans_built = 0;
};

namespace {

/// Whether a cached plan still fits this call: the same catalog and
/// index switch in the tables being read, the same type behind every
/// range variable, and no loop extent doubled or halved since the loop
/// order was chosen for it.
bool PlanStillValid(const Database& db, const CachedPlan& cached,
                    const std::map<std::string, std::string>& ranges) {
  if (cached.catalog_version != db.catalog_version() ||
      cached.indexes_usable != IndexesUsable(db))
    return false;
  for (const PlannedVar& var : cached.plan.vars) {
    auto it = ranges.find(var.name);
    if ((it != ranges.end() ? it->second : var.name) != var.type)
      return false;
    Result<uint64_t> extent = var.is_relationship
                                  ? db.CountRelationships(var.type)
                                  : db.CountEntities(var.type);
    if (!extent.ok() || *extent > 2 * var.cardinality ||
        2 * *extent < var.cardinality)
      return false;
  }
  return true;
}

}  // namespace

// Defined at the bottom of this file.
Result<ResultSet> RunQueryImpl(Database* db, const Statement& stmt,
                               const Plan& plan,
                               const std::vector<Value>& params,
                               ExecCounters* stats,
                               StatementActuals* actuals_out,
                               std::chrono::steady_clock::time_point start);

std::optional<size_t> ResultSet::ColumnIndex(std::string_view name) const {
  for (size_t i = 0; i < columns.size(); ++i)
    if (EqualsIgnoreCase(columns[i], name)) return i;
  return std::nullopt;
}

const Value& ResultSet::At(size_t row, size_t col) const {
  static const Value kNull = Value::Null();
  if (row >= rows.size() || col >= rows[row].size()) return kNull;
  return rows[row][col];
}

const Value& ResultSet::RowRef::operator[](std::string_view col) const {
  std::optional<size_t> idx = rs_->ColumnIndex(col);
  return rs_->At(row_, idx.value_or(SIZE_MAX));
}

std::string ExecStats::ToString() const {
  return StrFormat(
      "statements: %llu\n"
      "rows scanned: %llu\n"
      "conjuncts evaluated: %llu\n"
      "plan cache hits: %llu\n",
      (unsigned long long)statements, (unsigned long long)rows_scanned,
      (unsigned long long)conjuncts_evaluated,
      (unsigned long long)plan_cache_hits);
}

std::string ResultSet::ToString() const {
  if (!explain.empty()) return explain;
  std::vector<size_t> widths(columns.size());
  std::vector<std::vector<std::string>> cells;
  for (size_t i = 0; i < columns.size(); ++i)
    widths[i] = columns[i].size();
  for (const auto& row : rows) {
    std::vector<std::string> line;
    for (size_t i = 0; i < row.size(); ++i) {
      line.push_back(row[i].ToString());
      if (i < widths.size()) widths[i] = std::max(widths[i], line[i].size());
    }
    cells.push_back(std::move(line));
  }
  std::string out;
  auto pad = [](const std::string& s, size_t w) {
    return s + std::string(w > s.size() ? w - s.size() : 0, ' ');
  };
  out += "|";
  for (size_t i = 0; i < columns.size(); ++i)
    out += " " + pad(columns[i], widths[i]) + " |";
  out += "\n|";
  for (size_t i = 0; i < columns.size(); ++i)
    out += std::string(widths[i] + 2, '-') + "|";
  out += "\n";
  for (const auto& line : cells) {
    out += "|";
    for (size_t i = 0; i < line.size(); ++i)
      out += " " + pad(line[i], widths[i]) + " |";
    out += "\n";
  }
  if (columns.empty())
    out = StrFormat("(%llu rows affected)\n", (unsigned long long)affected);
  return out;
}

Result<ResultSet> QuelSession::Execute(const std::string& script) {
  return Run(script, /*pushdown=*/true);
}

Result<ResultSet> QuelSession::ExecuteNaive(const std::string& script) {
  return Run(script, /*pushdown=*/false);
}

Result<ResultSet> QuelSession::ExecutePreLocked(const std::string& script) {
  return Run(script, /*pushdown=*/true, LatchMode::kPreLocked);
}

void QuelSession::ClearParseCache() {
  std::lock_guard<std::mutex> lock(mu_);
  plan_cache_.clear();
}

std::vector<PlanCacheEntry> QuelSession::PlanCacheEntries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PlanCacheEntry> out;
  for (const auto& [shape, entry] : plan_cache_)
    out.push_back({shape, obs::Fnv1a64(shape), entry->hits,
                   entry->plans_built});
  return out;
}

Result<ResultSet> QuelSession::Run(const std::string& script, bool pushdown,
                                   LatchMode mode) {
  // Plan cache, keyed by the script's shape: clients send a few shapes
  // over and over with only the literals changed, so a hit binds this
  // call's literals as parameters and skips the lexer, the parser and
  // (while its plans hold, PlanFor) the planner. Parsing is pure (no
  // database access), so doing it under the session mutex keeps one
  // parse per shape for concurrent callers of one shared session.
  ScriptShape shape;
  const bool cacheable =
      pushdown && ScanScriptShape(script, &shape) && !shape.explain;
  std::shared_ptr<CachedScript> entry;
  std::vector<Value> params;
  Ranges ranges;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (cacheable) {
      auto cached = plan_cache_.find(shape.text);
      if (cached != plan_cache_.end()) {
        entry = cached->second;
        ++entry->hits;
        stats_.plan_cache_hits.fetch_add(1, std::memory_order_relaxed);
        QuelCounters::Get().parse_cache_hits->Inc();
        // The scanned literals, then the ones the shape itself fixes.
        params = std::move(shape.params);
        params.insert(params.end(),
                      entry->parsed.params.begin() + entry->parsed.scanned,
                      entry->parsed.params.end());
      }
    }
    if (entry == nullptr) {
      MDM_ASSIGN_OR_RETURN(ParsedScript parsed, ParseQuelScript(script));
      params = parsed.params;
      entry = std::make_shared<CachedScript>(std::move(parsed));
      if (cacheable && entry->parsed.scanned == shape.params.size()) {
        if (plan_cache_.size() >= kPlanCacheCapacity) plan_cache_.clear();
        plan_cache_.emplace(std::move(shape.text), entry);
      }
    }
    ranges = ranges_;
  }

  ResultSet last;
  for (size_t i = 0; i < entry->parsed.statements.size(); ++i) {
    const Statement& stmt = entry->parsed.statements[i];
    obs::Span span("quel.statement", StatementDuration(), StatementSelf());
    stats_.statements.fetch_add(1, std::memory_order_relaxed);
    QuelCounters::Get().statements->Inc();
    const bool mutates = stmt.kind == Statement::Kind::kAppend ||
                         stmt.kind == Statement::Kind::kReplace ||
                         stmt.kind == Statement::Kind::kDelete;
    if (mode == LatchMode::kPreLocked) {
      // Batch path: the caller holds a WriteTxn around the whole batch.
      MDM_RETURN_IF_ERROR(
          RunStatement(*entry, i, params, pushdown, &ranges, &last));
    } else if (mutates) {
      // One statement = one WriteTxn = one WAL transaction: crash-atomic,
      // published before the latch drops, and the group-commit fsync
      // wait happens OUTSIDE the latch so concurrent committers batch
      // into one fsync instead of serializing on it. On error the
      // dropped txn still ends the group: the logged prefix commits
      // (redo-only WAL — applied effects cannot be unapplied) and is
      // published, keeping state and journal agreed.
      er::WriteTxn txn(db_);
      LatchCounters::Get().exclusive->Inc();
      MDM_RETURN_IF_ERROR(
          RunStatement(*entry, i, params, pushdown, &ranges, &last));
      MDM_RETURN_IF_ERROR(txn.Commit());
    } else {
      // Read-only statement: served from a pinned snapshot, no db latch.
      LatchCounters::Get().snapshot_reads->Inc();
      er::SnapshotReadScope scope(db_, db_->PinSnapshot());
      MDM_RETURN_IF_ERROR(
          RunStatement(*entry, i, params, pushdown, &ranges, &last));
    }
  }
  return last;
}

Status QuelSession::RunStatement(CachedScript& script, size_t i,
                                 const std::vector<Value>& params,
                                 bool pushdown, Ranges* ranges,
                                 ResultSet* out) {
  const Statement& stmt = script.parsed.statements[i];
  ResultSet& last = *out;
  switch (stmt.kind) {
      case Statement::Kind::kRange: {
        // `range of v1, v2 is TYPE`
        bool is_rel =
            db_->schema().FindRelationship(stmt.range_type) != nullptr;
        if (!is_rel &&
            db_->schema().FindEntityType(stmt.range_type) == nullptr)
          return NotFound("no entity type or relationship named " +
                          stmt.range_type);
        std::lock_guard<std::mutex> lock(mu_);
        for (const std::string& v : stmt.range_vars) {
          ranges_[AsciiLower(v)] = stmt.range_type;
          (*ranges)[AsciiLower(v)] = stmt.range_type;
        }
        last = ResultSet{};
        break;
      }
      case Statement::Kind::kAppend: {
        // An assignment reads literals only, or (with `under v`) the
        // parent v; any other variable has no binding.
        for (const auto& [attr, expr] : stmt.assignments) {
          if (expr.kind != Expr::Kind::kLiteral &&
              (stmt.append_parent_var.empty() ||
               !EqualsIgnoreCase(expr.var, stmt.append_parent_var)))
            return NotFound("unbound range variable " + expr.var);
        }
        if (const Statement* query = script.parent_queries[i].get()) {
          // `append ... under v in ordering [where qual]`: bind v, and
          // evaluate the assignments over it, via the parent query (the
          // exclusive latch is already held; RunQueryImpl takes none
          // itself), then create one entity per distinct parent and
          // append it as the last child. Duplicate parent bindings from
          // a join collapse to one append each.
          MDM_ASSIGN_OR_RETURN(std::shared_ptr<const CachedPlan> plan,
                               PlanFor(script, i, *query, *ranges, pushdown));
          MDM_ASSIGN_OR_RETURN(
              ResultSet parent_rows,
              RunQueryImpl(db_, *query, plan->plan, params, &stats_, nullptr,
                           {}));
          std::set<EntityId> seen;
          std::vector<const std::vector<Value>*> parents;
          for (const auto& row : parent_rows.rows) {
            if (row.empty() || row[0].type() != ValueType::kRef)
              return TypeError("append-under parent must be an entity");
            if (seen.insert(row[0].AsRef()).second) parents.push_back(&row);
          }
          MDM_ASSIGN_OR_RETURN(
              er::OrderingHandle h,
              db_->ResolveOrderingHandle(stmt.append_ordering));
          for (const std::vector<Value>* row : parents) {
            MDM_ASSIGN_OR_RETURN(EntityId id,
                                 db_->CreateEntity(stmt.append_type));
            for (size_t k = 0; k < stmt.assignments.size(); ++k)
              MDM_RETURN_IF_ERROR(db_->SetAttribute(
                  id, stmt.assignments[k].first, (*row)[k + 1]));
            MDM_RETURN_IF_ERROR(db_->AppendChild(h, (*row)[0].AsRef(), id));
          }
          last = ResultSet{};
          last.affected = parents.size();
          break;
        }
        MDM_ASSIGN_OR_RETURN(EntityId id,
                             db_->CreateEntity(stmt.append_type));
        for (const auto& [attr, expr] : stmt.assignments)
          MDM_RETURN_IF_ERROR(
              db_->SetAttribute(id, attr, params[expr.param]));
        last = ResultSet{};
        last.affected = 1;
        break;
      }
      case Statement::Kind::kRetrieve:
      case Statement::Kind::kReplace:
      case Statement::Kind::kDelete: {
        MDM_ASSIGN_OR_RETURN(last,
                             RunQuery(script, i, params, pushdown, *ranges));
        break;
      }
  }
  return Status::OK();
}

Result<std::shared_ptr<const CachedPlan>> QuelSession::PlanFor(
    CachedScript& script, size_t i, const Statement& stmt,
    const Ranges& ranges, bool pushdown) {
  std::shared_ptr<const CachedPlan> cached;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cached = script.plans[i];
  }
  if (cached != nullptr && PlanStillValid(*db_, *cached, ranges))
    return cached;
  auto fresh = std::make_shared<CachedPlan>();
  fresh->catalog_version = db_->catalog_version();
  fresh->indexes_usable = IndexesUsable(*db_);
  MDM_ASSIGN_OR_RETURN(fresh->plan, PlanQuery(db_, ranges, stmt, pushdown));
  std::lock_guard<std::mutex> lock(mu_);
  script.plans[i] = fresh;
  ++script.plans_built;
  return std::shared_ptr<const CachedPlan>(std::move(fresh));
}

Result<ResultSet> QuelSession::RunQuery(CachedScript& script, size_t i,
                                        const std::vector<Value>& params,
                                        bool pushdown, const Ranges& ranges) {
  const Statement& stmt = script.parsed.statements[i];
  // `explain analyze` times the whole statement, planning included.
  std::chrono::steady_clock::time_point start;
  if (stmt.explain && stmt.analyze) start = std::chrono::steady_clock::now();
  MDM_ASSIGN_OR_RETURN(std::shared_ptr<const CachedPlan> plan,
                       PlanFor(script, i, stmt, ranges, pushdown));
  if (!collect_actuals())
    return RunQueryImpl(db_, stmt, plan->plan, params, &stats_, nullptr,
                        start);
  StatementActuals actuals;
  Result<ResultSet> rs = RunQueryImpl(db_, stmt, plan->plan, params, &stats_,
                                      &actuals, start);
  std::lock_guard<std::mutex> lock(mu_);
  last_actuals_ = std::move(actuals);
  return rs;
}

// `actuals_out`, when non-null, receives the per-loop actual row counts
// even outside `explain analyze` (the slow-query-log path). `start` is
// when an `explain analyze` statement began.
Result<ResultSet> RunQueryImpl(Database* db, const Statement& stmt,
                               const Plan& plan,
                               const std::vector<Value>& params,
                               ExecCounters* stats,
                               StatementActuals* actuals_out,
                               std::chrono::steady_clock::time_point start) {
  const bool analyze = stmt.explain && stmt.analyze;
  if (stmt.explain && !analyze) {
    // Plan-only: render without touching a single row.
    ResultSet rs;
    rs.explain = ExplainPlan(*db, stmt, plan);
    return rs;
  }
  const bool collect = analyze || actuals_out != nullptr;
  AnalyzeStats actual;
  if (collect) actual.Resize(plan.vars.size() + 1);

  ResultSet rs;
  bool has_agg = false;
  bool has_plain = false;
  bool has_by = false;
  for (const Target& t : stmt.targets) {
    (t.agg != AggFn::kNone ? has_agg : has_plain) = true;
    if (!t.by.empty()) has_by = true;
    rs.columns.push_back(t.label);
  }
  if (has_agg && has_plain)
    return InvalidArgument(
        "mixed aggregate and non-aggregate targets are not supported");
  if (has_by && stmt.targets.size() != 1)
    return InvalidArgument(
        "a grouped aggregate (aggfn(x by y)) must be the only target");
  if (has_by) {
    // Columns: one per by-expression, then the aggregate.
    rs.columns.clear();
    for (const Expr& by_expr : stmt.targets[0].by) {
      rs.columns.push_back(by_expr.kind == Expr::Kind::kAttrRef
                               ? by_expr.var + "." + by_expr.attr
                               : (by_expr.kind == Expr::Kind::kVarRef
                                      ? by_expr.var
                                      : "by"));
    }
    rs.columns.push_back(stmt.targets[0].label);
  }

  std::vector<AggState> agg_states(stmt.targets.size());
  // Grouped-aggregate accumulation, keyed by the encoded by-values. The
  // key is encoded into one reused buffer per row; a group's by-values
  // are copied out only when the group is first seen.
  struct Group {
    std::vector<Value> by_values;
    AggState state;
  };
  std::map<std::string, Group, std::less<>> groups;
  std::vector<Group*> group_order;
  ByteWriter group_key;
  std::vector<Value> by_scratch(plan.by.size());
  std::vector<const Value*> by_ptrs(plan.by.size());
  // Deferred mutations (applied after enumeration so iteration order is
  // never invalidated).
  std::vector<std::pair<EntityId, std::vector<Value>>> replacements;
  std::set<EntityId> deletions;

  NestedLoopJoin join(db, &plan, params.data(),
                      collect ? &actual : nullptr);
  const Evaluator& eval = join.eval();
  Status err;
  Value scratch;
  Status run = join.Run([&]() -> Status {
    switch (stmt.kind) {
      case Statement::Kind::kRetrieve: {
        if (has_by) {
          group_key.Clear();
          for (size_t i = 0; i < plan.by.size(); ++i) {
            by_ptrs[i] = eval.Eval(plan.by[i], &by_scratch[i], &err);
            if (by_ptrs[i] == nullptr) return err;
            by_ptrs[i]->Encode(&group_key);
          }
          std::string_view key(
              reinterpret_cast<const char*>(group_key.data().data()),
              group_key.size());
          auto it = groups.find(key);
          if (it == groups.end()) {
            Group g;
            for (const Value* v : by_ptrs) g.by_values.push_back(*v);
            it = groups.emplace(std::string(key), std::move(g)).first;
            group_order.push_back(&it->second);
          }
          AggState& state = it->second.state;
          if (stmt.targets[0].agg == AggFn::kCount &&
              stmt.targets[0].expr.kind == Expr::Kind::kVarRef) {
            ++state.count;  // count(var) counts rows
            return Status::OK();
          }
          const Value* v = eval.Eval(plan.targets[0], &scratch, &err);
          if (v == nullptr) return err;
          return state.Feed(*v);
        }
        if (has_agg) {
          for (size_t i = 0; i < plan.targets.size(); ++i) {
            if (stmt.targets[i].agg == AggFn::kCount &&
                stmt.targets[i].expr.kind == Expr::Kind::kVarRef) {
              ++agg_states[i].count;  // count(var) counts rows
              continue;
            }
            const Value* v = eval.Eval(plan.targets[i], &scratch, &err);
            if (v == nullptr) return err;
            MDM_RETURN_IF_ERROR(agg_states[i].Feed(*v));
          }
        } else {
          std::vector<Value> row;
          row.reserve(plan.targets.size());
          for (const CompiledExpr& t : plan.targets) {
            const Value* v = eval.Eval(t, &scratch, &err);
            if (v == nullptr) return err;
            row.push_back(*v);
          }
          rs.rows.push_back(std::move(row));
        }
        return Status::OK();
      }
      case Statement::Kind::kReplace: {
        if (plan.vars[plan.update_slot].is_relationship)
          return InvalidArgument("replace target must be an entity "
                                 "range variable");
        std::vector<Value> sets;
        sets.reserve(plan.assignments.size());
        for (const CompiledExpr& a : plan.assignments) {
          const Value* v = eval.Eval(a, &scratch, &err);
          if (v == nullptr) return err;
          sets.push_back(*v);
        }
        replacements.emplace_back(eval.bound(plan.update_slot).id,
                                  std::move(sets));
        return Status::OK();
      }
      case Statement::Kind::kDelete: {
        if (plan.vars[plan.update_slot].is_relationship)
          return InvalidArgument("delete target must be an entity "
                                 "range variable");
        deletions.insert(eval.bound(plan.update_slot).id);
        return Status::OK();
      }
      default:
        return Internal("unexpected statement kind in query runner");
    }
  });
  // Counters are published once per statement, error or not, with the
  // totals a per-row count would reach.
  if (stats != nullptr) {
    stats->rows_scanned.fetch_add(join.rows_scanned(),
                                  std::memory_order_relaxed);
    stats->conjuncts_evaluated.fetch_add(join.conjuncts_evaluated(),
                                         std::memory_order_relaxed);
    QuelCounters::Get().rows_scanned->Inc(join.rows_scanned());
    QuelCounters::Get().conjuncts->Inc(join.conjuncts_evaluated());
  }
  MDM_RETURN_IF_ERROR(run);

  if (actuals_out != nullptr) {
    // Depth k >= 1 is entered once per binding enumerated by loop k
    // (planner.h AnalyzeStats), so loop i's in/out counts live at
    // depth i+1.
    actuals_out->loops.clear();
    actuals_out->loops.reserve(plan.vars.size());
    for (size_t i = 0; i < plan.vars.size(); ++i) {
      StatementActuals::Loop loop;
      loop.var = plan.vars[i].name;
      loop.access = AccessPathName(plan.vars[i]);
      loop.rows_in = actual.calls[i + 1];
      loop.rows_out = actual.passed[i + 1];
      actuals_out->loops.push_back(std::move(loop));
    }
  }

  if (stmt.kind == Statement::Kind::kRetrieve && stmt.unique) {
    // `retrieve unique`: drop duplicate rows, preserving first-seen
    // order. Rows are compared by serialized form.
    std::set<std::string> seen;
    std::vector<std::vector<Value>> deduped;
    for (auto& row : rs.rows) {
      ByteWriter key;
      for (const Value& v : row) v.Encode(&key);
      std::string encoded(reinterpret_cast<const char*>(key.data().data()),
                          key.size());
      if (seen.insert(encoded).second) deduped.push_back(std::move(row));
    }
    rs.rows = std::move(deduped);
  }
  if (stmt.kind == Statement::Kind::kRetrieve && has_by) {
    for (Group* g : group_order) {
      std::vector<Value> row = std::move(g->by_values);
      row.push_back(g->state.Finish(stmt.targets[0].agg));
      rs.rows.push_back(std::move(row));
    }
  } else if (stmt.kind == Statement::Kind::kRetrieve && has_agg) {
    std::vector<Value> row;
    for (size_t i = 0; i < stmt.targets.size(); ++i)
      row.push_back(agg_states[i].Finish(stmt.targets[i].agg));
    rs.rows.push_back(std::move(row));
  }
  if (stmt.kind == Statement::Kind::kRetrieve && !stmt.sort_keys.empty()) {
    // Resolve sort labels to column indexes up front.
    std::vector<std::pair<size_t, bool>> order;  // (column, descending)
    for (const SortKey& key : stmt.sort_keys) {
      size_t col = rs.columns.size();
      for (size_t i = 0; i < rs.columns.size(); ++i)
        if (EqualsIgnoreCase(rs.columns[i], key.label)) col = i;
      if (col == rs.columns.size())
        return NotFound("sort by references no target named " + key.label);
      order.emplace_back(col, key.descending);
    }
    std::stable_sort(
        rs.rows.begin(), rs.rows.end(),
        [&order](const std::vector<Value>& a, const std::vector<Value>& b) {
          for (const auto& [col, desc] : order) {
            Result<int> c = a[col].Compare(b[col]);
            int cmp = c.ok() ? *c : 0;  // incomparable: treat as equal
            if (cmp != 0) return desc ? cmp > 0 : cmp < 0;
          }
          return false;
        });
  }
  for (const auto& [id, sets] : replacements) {
    for (size_t i = 0; i < sets.size(); ++i)
      MDM_RETURN_IF_ERROR(
          db->SetAttribute(id, stmt.assignments[i].first, sets[i]));
  }
  for (EntityId id : deletions) MDM_RETURN_IF_ERROR(db->DeleteEntity(id));
  if (stmt.kind == Statement::Kind::kReplace)
    rs.affected = replacements.size();
  if (stmt.kind == Statement::Kind::kDelete) rs.affected = deletions.size();
  if (analyze) {
    // The statement ran for real; the result is the annotated plan.
    uint64_t statement_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    ResultSet out;
    out.explain = ExplainAnalyzePlan(*db, stmt, plan, actual, statement_ns);
    return out;
  }
  return rs;
}

}  // namespace mdm::quel
