#include <algorithm>
#include <chrono>
#include <mutex>
#include <set>
#include <shared_mutex>

#include "common/strings.h"
#include "obs/metrics.h"
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

/// Scripts cached per session; cleared wholesale on overflow.
constexpr size_t kParseCacheCapacity = 128;

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
            "Scripts answered from the session parse cache")};
    return c;
  }
};

/// How each statement acquired (or avoided) the database latch — the
/// observable half of the snapshot-read contract: a read-heavy workload
/// should show snapshot_reads rising while exclusive stays flat.
struct LatchCounters {
  obs::Counter* exclusive;
  obs::Counter* shared;
  obs::Counter* snapshot_reads;
  static const LatchCounters& Get() {
    static LatchCounters c = {
        obs::Registry::Global()->GetCounter(
            "mdm_quel_exclusive_latch_total",
            "Statements executed under the exclusive db latch"),
        obs::Registry::Global()->GetCounter(
            "mdm_quel_shared_latch_total",
            "Read statements that fell back to the shared db latch"),
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

/// What a range variable is bound to during evaluation.
struct Binding {
  bool is_relationship = false;
  EntityId entity = er::kInvalidEntityId;
  const RelationshipInstance* rel = nullptr;
};

class Evaluator {
 public:
  Evaluator(Database* db, const std::map<std::string, Binding>* bindings,
            const std::map<const Qual*, er::OrderingHandle>* order_handles =
                nullptr)
      : db_(db), bindings_(bindings), order_handles_(order_handles) {}

  Result<Value> Eval(const Expr& e) const {
    switch (e.kind) {
      case Expr::Kind::kLiteral:
        return e.literal;
      case Expr::Kind::kVarRef: {
        MDM_ASSIGN_OR_RETURN(const Binding* b, Lookup(e.var));
        if (b->is_relationship)
          return TypeError("relationship variable " + e.var +
                           " used as a value");
        return Value::Ref(b->entity);
      }
      case Expr::Kind::kAttrRef: {
        MDM_ASSIGN_OR_RETURN(const Binding* b, Lookup(e.var));
        if (!b->is_relationship)
          return db_->GetAttribute(b->entity, e.attr);
        // Relationship variable: role access yields the bound entity,
        // otherwise a relationship attribute.
        const er::RelationshipDef& def =
            db_->schema().relationships()[b->rel->rel_index];
        auto role = def.RoleIndex(e.attr);
        if (role.has_value()) return Value::Ref(b->rel->role_refs[*role]);
        auto attr = def.AttributeIndex(e.attr);
        if (attr.has_value()) return b->rel->attrs[*attr];
        return NotFound(StrFormat("relationship %s has no role or "
                                  "attribute %s",
                                  def.name.c_str(), e.attr.c_str()));
      }
    }
    return Internal("unreachable expr kind");
  }

  Result<bool> Test(const Qual& q) const {
    switch (q.kind) {
      case Qual::Kind::kCompare: {
        MDM_ASSIGN_OR_RETURN(Value lhs, Eval(q.lhs));
        MDM_ASSIGN_OR_RETURN(Value rhs, Eval(q.rhs));
        MDM_ASSIGN_OR_RETURN(int c, lhs.Compare(rhs));
        switch (q.cmp) {
          case CompareOp::kEq: return c == 0;
          case CompareOp::kNe: return c != 0;
          case CompareOp::kLt: return c < 0;
          case CompareOp::kLe: return c <= 0;
          case CompareOp::kGt: return c > 0;
          case CompareOp::kGe: return c >= 0;
        }
        return Internal("unreachable compare op");
      }
      case Qual::Kind::kIs: {
        MDM_ASSIGN_OR_RETURN(Value lhs, Eval(q.lhs));
        MDM_ASSIGN_OR_RETURN(Value rhs, Eval(q.rhs));
        // A null operand designates no entity, so `is` is simply false
        // — NOT a TypeError. This must agree with the index-probe path
        // (planner.h), which never enumerates null-valued rows: were
        // null an error here, an index probe would mask it and ablation
        // equivalence would break.
        if (lhs.is_null() || rhs.is_null()) return false;
        if (lhs.type() != ValueType::kRef || rhs.type() != ValueType::kRef)
          return TypeError("'is' compares entities, not values");
        return lhs.AsRef() == rhs.AsRef();
      }
      case Qual::Kind::kOrder: {
        MDM_ASSIGN_OR_RETURN(const Binding* b1, Lookup(q.order_var1));
        MDM_ASSIGN_OR_RETURN(const Binding* b2, Lookup(q.order_var2));
        if (b1->is_relationship || b2->is_relationship)
          return TypeError("ordering operators apply to entities");
        // Planned statements carry a pre-resolved handle; the slow
        // per-row name resolution remains only for un-planned callers.
        if (order_handles_ != nullptr) {
          auto it = order_handles_->find(&q);
          if (it != order_handles_->end())
            return TestOrder(q.order_op, it->second, b1->entity, b2->entity);
        }
        MDM_ASSIGN_OR_RETURN(std::string name,
                             ResolveOrderingName(q, *b1, *b2));
        MDM_ASSIGN_OR_RETURN(er::OrderingHandle h,
                             db_->ResolveOrderingHandle(name));
        return TestOrder(q.order_op, h, b1->entity, b2->entity);
      }
      case Qual::Kind::kAnd: {
        MDM_ASSIGN_OR_RETURN(bool a, Test(*q.a));
        if (!a) return false;
        return Test(*q.b);
      }
      case Qual::Kind::kOr: {
        MDM_ASSIGN_OR_RETURN(bool a, Test(*q.a));
        if (a) return true;
        return Test(*q.b);
      }
      case Qual::Kind::kNot: {
        MDM_ASSIGN_OR_RETURN(bool a, Test(*q.a));
        return !a;
      }
    }
    return Internal("unreachable qual kind");
  }

 private:
  Result<const Binding*> Lookup(const std::string& var) const {
    auto it = bindings_->find(AsciiLower(var));
    if (it == bindings_->end())
      return NotFound("unbound range variable " + var);
    return &it->second;
  }

  Result<bool> TestOrder(OrderOp op, er::OrderingHandle h, EntityId a,
                         EntityId b) const {
    switch (op) {
      case OrderOp::kBefore: return db_->Before(h, a, b);
      case OrderOp::kAfter: return db_->After(h, a, b);
      case OrderOp::kUnder: return db_->Under(h, a, b);
    }
    return Internal("unreachable order op");
  }

  // `in ordering` may be omitted when exactly one ordering applies to
  // the operand types.
  Result<std::string> ResolveOrderingName(const Qual& q, const Binding& b1,
                                          const Binding& b2) const {
    if (!q.ordering.empty()) return q.ordering;
    MDM_ASSIGN_OR_RETURN(std::string t1, db_->TypeOf(b1.entity));
    MDM_ASSIGN_OR_RETURN(std::string t2, db_->TypeOf(b2.entity));
    std::vector<std::string> candidates;
    for (const er::OrderingDef& o : db_->schema().orderings()) {
      bool match =
          q.order_op == OrderOp::kUnder
              ? o.HasChildType(t1) && EqualsIgnoreCase(o.parent_type, t2)
              : o.HasChildType(t1) && o.HasChildType(t2);
      if (match) candidates.push_back(o.name);
    }
    if (candidates.empty())
      return NotFound(StrFormat("no ordering relates %s and %s",
                                t1.c_str(), t2.c_str()));
    if (candidates.size() > 1)
      return InvalidArgument(StrFormat(
          "ambiguous ordering between %s and %s; use 'in <name>'",
          t1.c_str(), t2.c_str()));
    return candidates[0];
  }

  Database* db_;
  const std::map<std::string, Binding>* bindings_;
  const std::map<const Qual*, er::OrderingHandle>* order_handles_;
};

/// Enumerates bindings for the plan's variables as nested loops,
/// evaluating each conjunct at its planned depth. Calls `emit` for every
/// qualifying full binding. `stats` (optional) accumulates row/conjunct
/// counters; `actual` (optional, `explain analyze`) records per-depth
/// call/pass counts and inclusive timings — when null the join pays no
/// timing overhead.
class NestedLoopJoin {
 public:
  NestedLoopJoin(Database* db, const Plan* plan, ExecCounters* stats,
                 AnalyzeStats* actual = nullptr)
      : db_(db), plan_(plan), stats_(stats), actual_(actual) {}

  Status Run(const std::function<Status(
                 const std::map<std::string, Binding>&)>& emit) {
    emit_ = &emit;
    return Descend(0);
  }

 private:
  Status Descend(size_t depth) {
    if (actual_ == nullptr) return DescendImpl(depth);
    ++actual_->calls[depth];
    auto t0 = std::chrono::steady_clock::now();
    Status s = DescendImpl(depth);
    actual_->inclusive_ns[depth] += NsSince(t0);
    return s;
  }

  static uint64_t NsSince(std::chrono::steady_clock::time_point t0) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }

  // Evaluates the conjuncts that became fully bound at this depth.
  Result<bool> PassesFilters(size_t depth, const Evaluator& eval) {
    for (const PlannedConjunct& c : plan_->conjuncts) {
      if (c.depth != depth) continue;
      if (stats_ != nullptr) {
        stats_->conjuncts_evaluated.fetch_add(1, std::memory_order_relaxed);
        QuelCounters::Get().conjuncts->Inc();
      }
      MDM_ASSIGN_OR_RETURN(bool pass, eval.Test(*c.qual));
      if (!pass) return false;
    }
    return true;
  }

  Status DescendImpl(size_t depth) {
    Evaluator eval(db_, &bindings_, &plan_->order_handles);
    // Filters are timed on their own: explain prints them under loop
    // `depth`, so the renderer charges their time to it.
    std::chrono::steady_clock::time_point t0;
    if (actual_ != nullptr) t0 = std::chrono::steady_clock::now();
    Result<bool> pass = PassesFilters(depth, eval);
    if (actual_ != nullptr) actual_->filter_ns[depth] += NsSince(t0);
    MDM_RETURN_IF_ERROR(pass.status());
    if (!*pass) return Status::OK();
    if (actual_ != nullptr) ++actual_->passed[depth];
    if (depth == plan_->vars.size()) return (*emit_)(bindings_);
    const PlannedVar& var = plan_->vars[depth];
    const std::string& key = var.name;  // already lowercased by the planner
    Status inner;
    if (var.is_relationship) {
      MDM_RETURN_IF_ERROR(db_->ForEachRelationship(
          var.type, [&](const RelationshipInstance& ri) {
            if (stats_ != nullptr) {
              stats_->rows_scanned.fetch_add(1, std::memory_order_relaxed);
              QuelCounters::Get().rows_scanned->Inc();
            }
            Binding b;
            b.is_relationship = true;
            b.rel = &ri;
            bindings_[key] = b;
            inner = Descend(depth + 1);
            return inner.ok();
          }));
    } else {
      auto visit = [&](EntityId id) {
        if (stats_ != nullptr) {
          stats_->rows_scanned.fetch_add(1, std::memory_order_relaxed);
          QuelCounters::Get().rows_scanned->Inc();
        }
        Binding b;
        b.entity = id;
        bindings_[key] = b;
        inner = Descend(depth + 1);
        return inner.ok();
      };
      bool driven = false;
      if (var.slice_qual != nullptr) {
        // Ordering access path: the anchor is bound by an outer loop,
        // and the slice yields exactly the entities its conjunct admits.
        driven = true;
        const EntityId anchor = bindings_.at(var.slice_anchor).entity;
        MDM_RETURN_IF_ERROR(db_->ForEachInOrderingSlice(
            var.slice_ordering, var.slice, anchor, var.type_index, visit));
      } else if (var.index != nullptr) {
        // Index-backed loop: evaluate the key over the outer bindings
        // and enumerate only matching candidates. A null key falls
        // through to the scan (nulls are never indexed, but
        // Value::Compare treats null = null as a match, so only the
        // scan path sees those rows).
        MDM_ASSIGN_OR_RETURN(Value probe_key, eval.Eval(*var.index_key));
        if (!probe_key.is_null()) {
          driven = true;
          std::vector<EntityId> candidates;
          {
            obs::Span span("quel.index_probe", IndexProbeDuration(),
                           IndexProbeSelf());
            candidates = db_->IndexLookup(*var.index, probe_key);
          }
          for (EntityId id : candidates)
            if (!visit(id)) break;
        }
      }
      if (!driven)
        MDM_RETURN_IF_ERROR(db_->ForEachEntity(var.type, visit));
    }
    bindings_.erase(key);
    return inner;
  }

  Database* db_;
  const Plan* plan_;
  ExecCounters* stats_;
  AnalyzeStats* actual_;
  std::map<std::string, Binding> bindings_;
  const std::function<Status(const std::map<std::string, Binding>&)>* emit_ =
      nullptr;
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
      MDM_ASSIGN_OR_RETURN(int cmin, v.Compare(min_v));
      if (cmin < 0) min_v = v;
      MDM_ASSIGN_OR_RETURN(int cmax, v.Compare(max_v));
      if (cmax > 0) max_v = v;
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

/// Deep copy of a qualification tree. Needed when a statement from the
/// (shared, immutable) parse cache contributes its qual to a synthetic
/// statement: Qual holds unique_ptr children and is not copyable.
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

}  // namespace

// Defined at the bottom of this file; the append-under path runs a
// synthetic retrieve through it to bind its parent variable.
Result<ResultSet> RunQueryImpl(Database* db,
                               const std::map<std::string, std::string>&
                                   session_ranges,
                               const Statement& stmt, bool pushdown,
                               ExecCounters* stats,
                               StatementActuals* actuals_out);

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

Result<ResultSet> QuelSession::Run(const std::string& script, bool pushdown,
                                   LatchMode mode) {
  // Statement cache: scripts are re-run verbatim by interactive sessions
  // and benchmarks, so a text-keyed cache skips the lexer and parser.
  // Parsing is pure (no database access), so doing it under the session
  // mutex keeps concurrent callers of one shared session correct.
  std::shared_ptr<const std::vector<Statement>> stmts;
  std::map<std::string, std::string> ranges;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto cached = parse_cache_.find(script);
    if (cached != parse_cache_.end()) {
      stmts = cached->second;
      stats_.plan_cache_hits.fetch_add(1, std::memory_order_relaxed);
      QuelCounters::Get().parse_cache_hits->Inc();
    } else {
      MDM_ASSIGN_OR_RETURN(std::vector<Statement> parsed, ParseQuel(script));
      stmts =
          std::make_shared<const std::vector<Statement>>(std::move(parsed));
      if (parse_cache_.size() >= kParseCacheCapacity) parse_cache_.clear();
      parse_cache_.emplace(script, stmts);
    }
    ranges = ranges_;
  }

  ResultSet last;
  for (const Statement& stmt : *stmts) {
    obs::Span span("quel.statement", StatementDuration(), StatementSelf());
    stats_.statements.fetch_add(1, std::memory_order_relaxed);
    QuelCounters::Get().statements->Inc();
    const bool mutates = stmt.kind == Statement::Kind::kAppend ||
                         stmt.kind == Statement::Kind::kReplace ||
                         stmt.kind == Statement::Kind::kDelete;
    if (mode == LatchMode::kPreLocked) {
      // Batch path: the caller holds the exclusive latch and an open
      // statement group around the whole batch.
      MDM_RETURN_IF_ERROR(RunStatement(stmt, pushdown, &ranges, &last));
    } else if (mutates) {
      // One statement = one statement group = one WAL transaction:
      // crash-atomic, published before the latch drops, and the
      // group-commit fsync wait happens OUTSIDE the latch so concurrent
      // committers batch into one fsync instead of serializing on it.
      Status run;
      Result<uint64_t> commit_lsn = 0;
      {
        std::unique_lock<std::shared_mutex> write_latch(db_->latch());
        LatchCounters::Get().exclusive->Inc();
        db_->BeginStatementGroup();
        run = RunStatement(stmt, pushdown, &ranges, &last);
        // On error the group still ends: the logged prefix commits
        // (redo-only WAL — applied effects cannot be unapplied) and the
        // snapshot is published, keeping state and journal agreed.
        commit_lsn = db_->EndStatementGroup();
      }
      MDM_RETURN_IF_ERROR(run);
      MDM_RETURN_IF_ERROR(commit_lsn.status());
      MDM_RETURN_IF_ERROR(db_->WaitDurable(*commit_lsn));
    } else {
      // Read-only statement: serve from a pinned snapshot with no db
      // latch when possible, else fall back to the shared latch.
      std::shared_ptr<const er::Tables> snap = db_->TryPinSnapshot();
      if (snap != nullptr) {
        LatchCounters::Get().snapshot_reads->Inc();
        er::SnapshotReadScope scope(db_, std::move(snap));
        MDM_RETURN_IF_ERROR(RunStatement(stmt, pushdown, &ranges, &last));
      } else {
        std::shared_lock<std::shared_mutex> read_latch(db_->latch());
        LatchCounters::Get().shared->Inc();
        MDM_RETURN_IF_ERROR(RunStatement(stmt, pushdown, &ranges, &last));
      }
    }
  }
  return last;
}

Status QuelSession::RunStatement(const Statement& stmt, bool pushdown,
                                 std::map<std::string, std::string>* ranges,
                                 ResultSet* out) {
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
        if (!stmt.append_parent_var.empty()) {
          // `append ... under v in ordering [where qual]`: bind v via a
          // synthetic retrieve (the exclusive latch is already held;
          // RunQueryImpl takes none itself), then create one entity per
          // distinct parent and append it as the last child. Duplicate
          // parent bindings from a join collapse to one append each.
          Statement query;
          query.kind = Statement::Kind::kRetrieve;
          Target t;
          t.label = "parent";
          t.expr = Expr::VarRef(stmt.append_parent_var);
          query.targets.push_back(std::move(t));
          if (stmt.qual != nullptr) query.qual = CloneQual(*stmt.qual);
          MDM_ASSIGN_OR_RETURN(
              ResultSet parent_rows,
              RunQueryImpl(db_, *ranges, query, pushdown, &stats_, nullptr));
          std::set<EntityId> seen;
          std::vector<EntityId> parents;
          for (const auto& row : parent_rows.rows) {
            if (row.empty() || row[0].type() != ValueType::kRef)
              return TypeError("append-under parent must be an entity");
            if (seen.insert(row[0].AsRef()).second)
              parents.push_back(row[0].AsRef());
          }
          MDM_ASSIGN_OR_RETURN(
              er::OrderingHandle h,
              db_->ResolveOrderingHandle(stmt.append_ordering));
          for (EntityId parent : parents) {
            // The parent variable stays bound during assignment
            // evaluation, so `append to X (a = v.b) under v ...` copies
            // from the parent.
            std::map<std::string, Binding> binds;
            Binding pb;
            pb.entity = parent;
            binds[AsciiLower(stmt.append_parent_var)] = pb;
            Evaluator eval(db_, &binds);
            MDM_ASSIGN_OR_RETURN(EntityId id,
                                 db_->CreateEntity(stmt.append_type));
            for (const auto& [attr, expr] : stmt.assignments) {
              MDM_ASSIGN_OR_RETURN(Value v, eval.Eval(expr));
              MDM_RETURN_IF_ERROR(db_->SetAttribute(id, attr, std::move(v)));
            }
            MDM_RETURN_IF_ERROR(db_->AppendChild(h, parent, id));
          }
          last = ResultSet{};
          last.affected = parents.size();
          break;
        }
        MDM_ASSIGN_OR_RETURN(EntityId id,
                             db_->CreateEntity(stmt.append_type));
        std::map<std::string, Binding> empty;
        Evaluator eval(db_, &empty);
        for (const auto& [attr, expr] : stmt.assignments) {
          MDM_ASSIGN_OR_RETURN(Value v, eval.Eval(expr));
          MDM_RETURN_IF_ERROR(db_->SetAttribute(id, attr, std::move(v)));
        }
        last = ResultSet{};
        last.affected = 1;
        break;
      }
      case Statement::Kind::kRetrieve:
      case Statement::Kind::kReplace:
      case Statement::Kind::kDelete: {
        MDM_ASSIGN_OR_RETURN(last, RunQuery(stmt, pushdown, *ranges));
        break;
      }
  }
  return Status::OK();
}

// Defined out of line to keep Run readable. `actuals_out`, when
// non-null, receives the per-loop actual row counts even outside
// `explain analyze` (the slow-query-log path).
Result<ResultSet> RunQueryImpl(Database* db,
                               const std::map<std::string, std::string>&
                                   session_ranges,
                               const Statement& stmt, bool pushdown,
                               ExecCounters* stats,
                               StatementActuals* actuals_out);

Result<ResultSet> QuelSession::RunQuery(
    const Statement& stmt, bool pushdown,
    const std::map<std::string, std::string>& ranges) {
  if (!collect_actuals())
    return RunQueryImpl(db_, ranges, stmt, pushdown, &stats_, nullptr);
  StatementActuals actuals;
  Result<ResultSet> rs =
      RunQueryImpl(db_, ranges, stmt, pushdown, &stats_, &actuals);
  std::lock_guard<std::mutex> lock(mu_);
  last_actuals_ = std::move(actuals);
  return rs;
}

Result<ResultSet> RunQueryImpl(
    Database* db, const std::map<std::string, std::string>& session_ranges,
    const Statement& stmt, bool pushdown, ExecCounters* stats,
    StatementActuals* actuals_out) {
  const bool analyze = stmt.explain && stmt.analyze;
  std::chrono::steady_clock::time_point analyze_start;
  if (analyze) analyze_start = std::chrono::steady_clock::now();
  MDM_ASSIGN_OR_RETURN(Plan plan,
                       PlanQuery(db, session_ranges, stmt, pushdown));
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
  // Grouped-aggregate accumulation, keyed by encoded by-values.
  std::vector<std::string> group_order;
  std::map<std::string, std::pair<std::vector<Value>, AggState>> groups;
  // Deferred mutations (applied after enumeration so iteration order is
  // never invalidated).
  std::vector<std::pair<EntityId, std::vector<std::pair<std::string, Value>>>>
      replacements;
  std::set<EntityId> deletions;

  NestedLoopJoin join(db, &plan, stats, collect ? &actual : nullptr);
  MDM_RETURN_IF_ERROR(join.Run([&](const std::map<std::string, Binding>&
                                       bindings) -> Status {
    Evaluator eval(db, &bindings, &plan.order_handles);
    switch (stmt.kind) {
      case Statement::Kind::kRetrieve: {
        if (has_by) {
          const Target& t = stmt.targets[0];
          std::vector<Value> by_values;
          ByteWriter key;
          for (const Expr& by_expr : t.by) {
            MDM_ASSIGN_OR_RETURN(Value v, eval.Eval(by_expr));
            v.Encode(&key);
            by_values.push_back(std::move(v));
          }
          std::string encoded(
              reinterpret_cast<const char*>(key.data().data()), key.size());
          auto [it, inserted] = groups.try_emplace(
              encoded, std::move(by_values), AggState{});
          if (inserted) group_order.push_back(encoded);
          if (t.agg == AggFn::kCount && t.expr.kind == Expr::Kind::kVarRef) {
            ++it->second.second.count;
          } else {
            MDM_ASSIGN_OR_RETURN(Value v, eval.Eval(t.expr));
            MDM_RETURN_IF_ERROR(it->second.second.Feed(v));
          }
          return Status::OK();
        }
        if (has_agg) {
          for (size_t i = 0; i < stmt.targets.size(); ++i) {
            const Target& t = stmt.targets[i];
            if (t.agg == AggFn::kCount &&
                t.expr.kind == Expr::Kind::kVarRef) {
              ++agg_states[i].count;  // count(var) counts rows
              continue;
            }
            MDM_ASSIGN_OR_RETURN(Value v, eval.Eval(t.expr));
            MDM_RETURN_IF_ERROR(agg_states[i].Feed(v));
          }
        } else {
          std::vector<Value> row;
          for (const Target& t : stmt.targets) {
            MDM_ASSIGN_OR_RETURN(Value v, eval.Eval(t.expr));
            row.push_back(std::move(v));
          }
          rs.rows.push_back(std::move(row));
        }
        return Status::OK();
      }
      case Statement::Kind::kReplace: {
        auto it = bindings.find(AsciiLower(stmt.update_var));
        if (it == bindings.end() || it->second.is_relationship)
          return InvalidArgument("replace target must be an entity "
                                 "range variable");
        std::vector<std::pair<std::string, Value>> sets;
        for (const auto& [attr, expr] : stmt.assignments) {
          MDM_ASSIGN_OR_RETURN(Value v, eval.Eval(expr));
          sets.emplace_back(attr, std::move(v));
        }
        replacements.emplace_back(it->second.entity, std::move(sets));
        return Status::OK();
      }
      case Statement::Kind::kDelete: {
        auto it = bindings.find(AsciiLower(stmt.update_var));
        if (it == bindings.end() || it->second.is_relationship)
          return InvalidArgument("delete target must be an entity "
                                 "range variable");
        deletions.insert(it->second.entity);
        return Status::OK();
      }
      default:
        return Internal("unexpected statement kind in query runner");
    }
  }));

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
    for (const std::string& key : group_order) {
      auto& [by_values, state] = groups.at(key);
      std::vector<Value> row = by_values;
      row.push_back(state.Finish(stmt.targets[0].agg));
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
    for (const auto& [attr, v] : sets)
      MDM_RETURN_IF_ERROR(db->SetAttribute(id, attr, v));
  }
  for (EntityId id : deletions) MDM_RETURN_IF_ERROR(db->DeleteEntity(id));
  if (stmt.kind == Statement::Kind::kReplace)
    rs.affected = replacements.size();
  if (stmt.kind == Statement::Kind::kDelete) rs.affected = deletions.size();
  if (analyze) {
    // The statement ran for real; the result is the annotated plan.
    uint64_t statement_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - analyze_start)
            .count());
    ResultSet out;
    out.explain = ExplainAnalyzePlan(*db, stmt, plan, actual, statement_ns);
    return out;
  }
  return rs;
}

}  // namespace mdm::quel
