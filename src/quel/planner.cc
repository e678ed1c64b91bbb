#include "quel/planner.h"

#include <algorithm>
#include <optional>

#include "common/strings.h"

namespace mdm::quel {

using er::Database;

void CollectExprVars(const Expr& e, std::set<std::string>* out) {
  if (e.kind != Expr::Kind::kLiteral) out->insert(AsciiLower(e.var));
}

void CollectQualVars(const Qual& q, std::set<std::string>* out) {
  switch (q.kind) {
    case Qual::Kind::kCompare:
    case Qual::Kind::kIs:
      CollectExprVars(q.lhs, out);
      CollectExprVars(q.rhs, out);
      break;
    case Qual::Kind::kOrder:
      out->insert(AsciiLower(q.order_var1));
      out->insert(AsciiLower(q.order_var2));
      break;
    case Qual::Kind::kAnd:
    case Qual::Kind::kOr:
      CollectQualVars(*q.a, out);
      CollectQualVars(*q.b, out);
      break;
    case Qual::Kind::kNot:
      CollectQualVars(*q.a, out);
      break;
  }
}

namespace {

/// Splits a qualification into top-level AND conjuncts.
void SplitConjuncts(const Qual* q, std::vector<const Qual*>* out) {
  if (q == nullptr) return;
  if (q->kind == Qual::Kind::kAnd) {
    SplitConjuncts(q->a.get(), out);
    SplitConjuncts(q->b.get(), out);
  } else {
    out->push_back(q);
  }
}

const char* CompareOpText(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "!=";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
  }
  return "?";
}

const char* OrderOpText(OrderOp op) {
  switch (op) {
    case OrderOp::kBefore: return "before";
    case OrderOp::kAfter: return "after";
    case OrderOp::kUnder: return "under";
  }
  return "?";
}

/// Binds every kOrder node in `q` (at any nesting depth) to a resolved
/// handle. `types` maps lowercased variable name -> (type, is_rel).
Status BindOrderHandles(Database* db,
                        const std::map<std::string,
                                       std::pair<std::string, bool>>& types,
                        const Qual& q, Plan* plan) {
  switch (q.kind) {
    case Qual::Kind::kCompare:
    case Qual::Kind::kIs:
      return Status::OK();
    case Qual::Kind::kAnd:
    case Qual::Kind::kOr:
      MDM_RETURN_IF_ERROR(BindOrderHandles(db, types, *q.a, plan));
      return BindOrderHandles(db, types, *q.b, plan);
    case Qual::Kind::kNot:
      return BindOrderHandles(db, types, *q.a, plan);
    case Qual::Kind::kOrder:
      break;
  }
  const auto& t1 = types.at(AsciiLower(q.order_var1));
  const auto& t2 = types.at(AsciiLower(q.order_var2));
  if (t1.second || t2.second)
    return TypeError("ordering operators apply to entities");
  if (!q.ordering.empty()) {
    MDM_ASSIGN_OR_RETURN(er::OrderingHandle h,
                         db->ResolveOrderingHandle(q.ordering));
    plan->order_handles[&q] = h;
    return Status::OK();
  }
  // `in ordering` omitted: exactly one ordering must apply to the static
  // operand types. The types come from the range declarations, so this
  // is decidable at plan time — no per-row TypeOf calls.
  std::vector<er::OrderingHandle> candidates;
  const std::vector<er::OrderingDef>& defs = db->schema().orderings();
  for (size_t i = 0; i < defs.size(); ++i) {
    const er::OrderingDef& o = defs[i];
    bool match = q.order_op == OrderOp::kUnder
                     ? o.HasChildType(t1.first) &&
                           EqualsIgnoreCase(o.parent_type, t2.first)
                     : o.HasChildType(t1.first) && o.HasChildType(t2.first);
    if (match) candidates.push_back(er::OrderingHandle::FromIndex(i));
  }
  if (candidates.empty())
    return NotFound(StrFormat("no ordering relates %s and %s",
                              t1.first.c_str(), t2.first.c_str()));
  if (candidates.size() > 1)
    return InvalidArgument(
        StrFormat("ambiguous ordering between %s and %s; use 'in <name>'",
                  t1.first.c_str(), t2.first.c_str()));
  plan->order_handles[&q] = candidates[0];
  return Status::OK();
}

/// Declared rel::ValueType of an expression over the planned range
/// variables, or nullopt when it cannot be typed statically
/// (relationship variables, unknown attributes). Used to gate index
/// probes: a probe may only replace a scan when the key side is
/// statically comparable with the indexed attribute, so type errors
/// the scan path would raise are never masked by an empty probe.
std::optional<rel::ValueType> StaticExprType(
    const Database* db,
    const std::map<std::string, std::pair<std::string, bool>>& types,
    const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return e.literal.type();
    case Expr::Kind::kVarRef: {
      auto it = types.find(AsciiLower(e.var));
      if (it == types.end() || it->second.second) return std::nullopt;
      return rel::ValueType::kRef;
    }
    case Expr::Kind::kAttrRef: {
      auto it = types.find(AsciiLower(e.var));
      if (it == types.end() || it->second.second) return std::nullopt;
      const er::EntityTypeDef* tdef =
          db->schema().FindEntityType(it->second.first);
      if (tdef == nullptr) return std::nullopt;
      std::optional<size_t> slot = tdef->AttributeIndex(e.attr);
      if (!slot) return std::nullopt;
      return tdef->attributes[*slot].type;
    }
  }
  return std::nullopt;
}

/// Whether an equality between two statically-typed operands can be
/// answered by an index keyed on one of them. Same type always; int and
/// float mix because Value::Compare is numeric across the pair (and
/// AttrKeyFor canonicalizes integral floats onto the int encoding).
bool IndexKeyTypesComparable(rel::ValueType a, rel::ValueType b) {
  if (a == b) return true;
  auto numeric = [](rel::ValueType t) {
    return t == rel::ValueType::kInt || t == rel::ValueType::kFloat;
  };
  return numeric(a) && numeric(b);
}

/// Picks an index probe for entity loop `var`, if any conjunct has the
/// shape `var.attr = <key>` / `<key> = var.attr` (or `is` over refs)
/// with every key-side variable bound by an outer loop and a live index
/// on (var.type, attr). First eligible conjunct wins; the conjunct is
/// NOT removed from the filter list — hashed key encodings may collide
/// and a runtime null key falls back to the scan, so re-checking keeps
/// probe plans row-for-row equivalent to scan plans. A query naming the
/// wrong key attribute (footnote 3) simply finds no index here and
/// keeps the scan.
void SelectIndexProbe(
    Database* db,
    const std::map<std::string, std::pair<std::string, bool>>& types,
    const std::vector<const Qual*>& conjuncts,
    const std::set<std::string>& bound, PlannedVar* var) {
  for (const Qual* c : conjuncts) {
    bool eq_shape =
        (c->kind == Qual::Kind::kCompare && c->cmp == CompareOp::kEq) ||
        c->kind == Qual::Kind::kIs;
    if (!eq_shape) continue;
    for (int flip = 0; flip < 2; ++flip) {
      const Expr& attr_side = flip == 0 ? c->lhs : c->rhs;
      const Expr& key_side = flip == 0 ? c->rhs : c->lhs;
      if (attr_side.kind != Expr::Kind::kAttrRef) continue;
      if (AsciiLower(attr_side.var) != var->name) continue;
      std::set<std::string> key_vars;
      CollectExprVars(key_side, &key_vars);
      bool all_bound = true;
      for (const std::string& kv : key_vars)
        if (bound.count(kv) == 0) all_bound = false;
      if (!all_bound) continue;
      const er::AttrIndex* ix = db->FindAttrIndex(var->type, attr_side.attr);
      if (ix == nullptr) continue;
      std::optional<rel::ValueType> at = StaticExprType(db, types, attr_side);
      std::optional<rel::ValueType> kt = StaticExprType(db, types, key_side);
      if (!at || !kt || !IndexKeyTypesComparable(*at, *kt)) continue;
      // `is` compares entity references; guard against `is` over scalars
      // which the evaluator rejects at runtime.
      if (c->kind == Qual::Kind::kIs && *at != rel::ValueType::kRef) continue;
      var->index = ix;
      var->index_key = &key_side;
      return;
    }
  }
}

/// Picks an ordering access path for entity loop `var` (PlannedVar):
/// the first top-level ordering conjunct relating `var` to a distinct
/// variable bound by an outer loop, in a direction the slice can
/// enumerate — descendants for `var under w`, sibling prefix/suffix for
/// `var before/after w` and their mirrors. `w under var` (an ancestor
/// walk) does not drive. Returns the consumed conjunct, or nullptr.
/// Relationship operands never get here: BindOrderHandles rejects them.
const Qual* SelectOrderingSlice(const Database* db,
                                const std::vector<const Qual*>& conjuncts,
                                const std::set<std::string>& bound,
                                const Plan& plan, PlannedVar* var) {
  for (const Qual* c : conjuncts) {
    if (c->kind != Qual::Kind::kOrder) continue;
    const std::string v1 = AsciiLower(c->order_var1);
    const std::string v2 = AsciiLower(c->order_var2);
    if (v1 == v2) continue;
    er::OrderingSlice slice;
    if (v1 == var->name && bound.count(v2) != 0) {
      var->slice_anchor = v2;
      slice = c->order_op == OrderOp::kUnder    ? er::OrderingSlice::kDescendants
              : c->order_op == OrderOp::kBefore ? er::OrderingSlice::kBefore
                                                : er::OrderingSlice::kAfter;
    } else if (v2 == var->name && bound.count(v1) != 0 &&
               c->order_op != OrderOp::kUnder) {
      // `w before var` is `var after w`, and vice versa.
      var->slice_anchor = v1;
      slice = c->order_op == OrderOp::kBefore ? er::OrderingSlice::kAfter
                                              : er::OrderingSlice::kBefore;
    } else {
      continue;
    }
    const er::EntityTypeDef* tdef = db->schema().FindEntityType(var->type);
    var->slice_qual = c;
    var->slice_ordering = plan.order_handles.at(c);
    var->slice = slice;
    var->type_index =
        static_cast<uint32_t>(tdef - db->schema().entity_types().data());
    return c;
  }
  return nullptr;
}

const char* SliceOpText(er::OrderingSlice slice) {
  switch (slice) {
    case er::OrderingSlice::kDescendants: return "under";
    case er::OrderingSlice::kBefore: return "before";
    case er::OrderingSlice::kAfter: return "after";
  }
  return "?";
}

/// Renders a qualification; with a database + plan, ordering operators
/// carry their resolved ordering names (the explain output). Both may
/// be null for a plain deparse.
std::string RenderQual(const Database* db, const Plan* plan, const Qual& q) {
  switch (q.kind) {
    case Qual::Kind::kCompare:
      return ExprToString(q.lhs) + " " + CompareOpText(q.cmp) + " " +
             ExprToString(q.rhs);
    case Qual::Kind::kIs:
      return ExprToString(q.lhs) + " is " + ExprToString(q.rhs);
    case Qual::Kind::kOrder: {
      std::string out = AsciiLower(q.order_var1);
      out += " ";
      out += OrderOpText(q.order_op);
      out += " ";
      out += AsciiLower(q.order_var2);
      if (plan != nullptr && db != nullptr) {
        auto it = plan->order_handles.find(&q);
        if (it != plan->order_handles.end())
          return out + " in " + db->ordering_def(it->second).name;
      }
      if (!q.ordering.empty()) out += " in " + q.ordering;
      return out;
    }
    case Qual::Kind::kAnd:
      return RenderQual(db, plan, *q.a) + " and " +
             RenderQual(db, plan, *q.b);
    case Qual::Kind::kOr:
      return "(" + RenderQual(db, plan, *q.a) + " or " +
             RenderQual(db, plan, *q.b) + ")";
    case Qual::Kind::kNot:
      return "not (" + RenderQual(db, plan, *q.a) + ")";
  }
  return "?";
}

std::string RenderTarget(const Target& t) {
  std::string inner = ExprToString(t.expr);
  switch (t.agg) {
    case AggFn::kNone: break;
    case AggFn::kCount: inner = "count(" + inner + ")"; break;
    case AggFn::kSum: inner = "sum(" + inner + ")"; break;
    case AggFn::kAvg: inner = "avg(" + inner + ")"; break;
    case AggFn::kMin: inner = "min(" + inner + ")"; break;
    case AggFn::kMax: inner = "max(" + inner + ")"; break;
  }
  return inner;
}

}  // namespace

std::string ExprToString(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kLiteral: return e.literal.ToString();
    case Expr::Kind::kVarRef: return AsciiLower(e.var);
    case Expr::Kind::kAttrRef: return AsciiLower(e.var) + "." + e.attr;
  }
  return "?";
}

std::string QualToString(const Qual& q) {
  return RenderQual(nullptr, nullptr, q);
}

const char* AccessPathName(const PlannedVar& var) {
  if (var.slice_qual != nullptr) return "ordering";
  if (var.index != nullptr) return "index";
  return "scan";
}

Result<Plan> PlanQuery(Database* db,
                       const std::map<std::string, std::string>& ranges,
                       const Statement& stmt, bool pushdown) {
  Plan plan;
  plan.pushdown = pushdown;

  // Collect the variables this statement uses.
  std::set<std::string> used;
  for (const Target& t : stmt.targets) {
    CollectExprVars(t.expr, &used);
    for (const Expr& by_expr : t.by) CollectExprVars(by_expr, &used);
  }
  if (stmt.qual != nullptr) CollectQualVars(*stmt.qual, &used);
  if (!stmt.update_var.empty()) used.insert(AsciiLower(stmt.update_var));
  for (const auto& [attr, expr] : stmt.assignments)
    CollectExprVars(expr, &used);

  // Resolve each to a type: explicit range declaration, or the implicit
  // same-named range variable (footnote 6).
  for (const std::string& name : used) {
    PlannedVar var;
    var.name = name;
    auto it = ranges.find(name);
    if (it != ranges.end()) {
      var.type = it->second;
    } else if (db->schema().FindEntityType(name) != nullptr ||
               db->schema().FindRelationship(name) != nullptr) {
      var.type = name;
    } else {
      return NotFound("undeclared range variable " + name);
    }
    var.is_relationship =
        db->schema().FindRelationship(var.type) != nullptr;
    MDM_ASSIGN_OR_RETURN(var.cardinality,
                         var.is_relationship
                             ? db->CountRelationships(var.type)
                             : db->CountEntities(var.type));
    plan.vars.push_back(std::move(var));
  }

  std::vector<const Qual*> conjuncts;
  SplitConjuncts(stmt.qual.get(), &conjuncts);

  // Selectivity: the arity of the narrowest conjunct mentioning the
  // variable (a `n.name = 3` restriction makes n maximally selective).
  for (PlannedVar& var : plan.vars) {
    for (const Qual* c : conjuncts) {
      std::set<std::string> cv;
      CollectQualVars(*c, &cv);
      if (cv.count(var.name) != 0)
        var.selectivity = std::min(var.selectivity, cv.size());
    }
  }

  // Loop order: most-restricted variables first, then smaller estimated
  // cardinality, so selective predicates prune before wide loops run.
  // The naive (no-pushdown) plan keeps declaration order — it is the
  // ablation baseline and must not benefit from reordering.
  if (pushdown) {
    std::stable_sort(plan.vars.begin(), plan.vars.end(),
                     [](const PlannedVar& a, const PlannedVar& b) {
                       if (a.selectivity != b.selectivity)
                         return a.selectivity < b.selectivity;
                       return a.cardinality < b.cardinality;
                     });
  }

  std::map<std::string, std::pair<std::string, bool>> types;
  for (const PlannedVar& var : plan.vars)
    types[var.name] = {var.type, var.is_relationship};

  // Bind every ordering operator to a resolved handle, once.
  if (stmt.qual != nullptr)
    MDM_RETURN_IF_ERROR(BindOrderHandles(db, types, *stmt.qual, &plan));

  // Access path selection, in loop order: each entity loop may be
  // driven by an ordering slice under an outer binding or, failing
  // that, by an equality conjunct whose key side is bound by outer
  // loops (index selection for literal keys, index-nested-loop join for
  // outer-variable keys). Runs after the sort so "bound" is final; the
  // naive plan never uses either — it is the ablation baseline.
  std::set<const Qual*> consumed;
  if (pushdown) {
    std::set<std::string> bound;
    for (PlannedVar& var : plan.vars) {
      if (!var.is_relationship) {
        const Qual* slice_qual =
            SelectOrderingSlice(db, conjuncts, bound, plan, &var);
        if (slice_qual != nullptr)
          consumed.insert(slice_qual);
        else
          SelectIndexProbe(db, types, conjuncts, bound, &var);
      }
      bound.insert(var.name);
    }
  }

  // Push each conjunct to the outermost depth at which its variables
  // are all bound (depth 0 = constant). Without pushdown everything
  // evaluates at the innermost level.
  for (const Qual* c : conjuncts) {
    if (consumed.count(c) != 0) continue;
    PlannedConjunct pc;
    pc.qual = c;
    if (pushdown) {
      std::set<std::string> cv;
      CollectQualVars(*c, &cv);
      for (size_t v = 0; v < plan.vars.size(); ++v) {
        if (cv.count(plan.vars[v].name) != 0) pc.depth = v + 1;
      }
    } else {
      pc.depth = plan.vars.size();
    }
    plan.conjuncts.push_back(pc);
  }
  return plan;
}

namespace {

/// Shared renderer behind ExplainPlan and ExplainAnalyzePlan. When
/// `actual` is non-null, each loop line carries its measured rows
/// in/out and self time, and a totals footer is appended.
std::string RenderPlan(const Database& db, const Statement& stmt,
                       const Plan& plan, const AnalyzeStats* actual,
                       uint64_t statement_ns) {
  std::string out = "plan:";
  switch (stmt.kind) {
    case Statement::Kind::kRetrieve: out += " retrieve"; break;
    case Statement::Kind::kReplace: out += " replace"; break;
    case Statement::Kind::kDelete: out += " delete"; break;
    default: out += " ?"; break;
  }
  if (stmt.unique) out += " unique";
  if (actual != nullptr) out += " (analyze)";
  out += "\n";
  out += StrFormat("  pushdown: %s\n", plan.pushdown ? "on" : "off");
  for (const PlannedConjunct& c : plan.conjuncts) {
    if (c.depth == 0)
      out += "  filter (const): " + RenderQual(&db, &plan, *c.qual) + "\n";
  }
  size_t levels = plan.vars.size();
  // Time at depth >= k minus the depth-k filters, which explain prints
  // (and so charges) under loop k; depth 0's constant filters stay in
  // loop 1's share. See AnalyzeStats.
  auto below = [&](size_t k) {
    const uint64_t filters = k == 0 ? 0 : actual->filter_ns[k];
    return actual->inclusive_ns[k] >= filters
               ? actual->inclusive_ns[k] - filters
               : 0;
  };
  for (size_t v = 0; v < levels; ++v) {
    const PlannedVar& var = plan.vars[v];
    out += StrFormat("  loop %zu: %s is %s (~%llu rows)", v + 1,
                     var.name.c_str(), var.type.c_str(),
                     (unsigned long long)var.cardinality);
    if (var.slice_qual != nullptr)
      out += StrFormat(" via ordering %s (%s %s)",
                       db.ordering_def(var.slice_ordering).name.c_str(),
                       SliceOpText(var.slice), var.slice_anchor.c_str());
    else if (var.index != nullptr)
      out += StrFormat(" via index %s(%s)", var.index->def.name.c_str(),
                       var.index->def.attr.c_str());
    if (actual != nullptr) {
      // Self time of loop v+1: its enumeration plus its own filters.
      uint64_t self = below(v) >= below(v + 1) ? below(v) - below(v + 1) : 0;
      out += StrFormat(" [actual: in=%llu out=%llu, self=%lluns]",
                       (unsigned long long)actual->calls[v + 1],
                       (unsigned long long)actual->passed[v + 1],
                       (unsigned long long)self);
    }
    out += "\n";
    for (const PlannedConjunct& c : plan.conjuncts) {
      if (c.depth == v + 1)
        out += "    filter: " + RenderQual(&db, &plan, *c.qual) + "\n";
    }
  }
  out += "  emit:";
  if (stmt.kind == Statement::Kind::kRetrieve) {
    for (size_t i = 0; i < stmt.targets.size(); ++i)
      out += (i == 0 ? " " : ", ") + RenderTarget(stmt.targets[i]);
  } else {
    out += " " + AsciiLower(stmt.update_var);
  }
  if (actual != nullptr) {
    out += StrFormat(" [actual: rows=%llu, time=%lluns]",
                     (unsigned long long)actual->passed[levels],
                     (unsigned long long)below(levels));
  }
  out += "\n";
  if (actual != nullptr) {
    // Loop self times + emit time sum exactly to join=inclusive_ns[0];
    // statement additionally covers planning and post-processing.
    out += StrFormat("  actual: join=%lluns, statement=%lluns\n",
                     (unsigned long long)actual->inclusive_ns[0],
                     (unsigned long long)statement_ns);
  }
  return out;
}

}  // namespace

std::string ExplainPlan(const Database& db, const Statement& stmt,
                        const Plan& plan) {
  return RenderPlan(db, stmt, plan, nullptr, 0);
}

std::string ExplainAnalyzePlan(const Database& db, const Statement& stmt,
                               const Plan& plan, const AnalyzeStats& actual,
                               uint64_t statement_ns) {
  return RenderPlan(db, stmt, plan, &actual, statement_ns);
}

}  // namespace mdm::quel
