#include "quel/planner.h"

#include <algorithm>
#include <optional>
#include <set>

#include "common/strings.h"

namespace mdm::quel {

using er::Database;

namespace {

/// Names of the range variables appearing in an expression /
/// qualification, lowercased.
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

/// The slot of the planned variable named `var` (any case).
Result<uint32_t> SlotOf(const Plan& plan, const std::string& var) {
  const std::string name = AsciiLower(var);
  for (size_t i = 0; i < plan.vars.size(); ++i)
    if (plan.vars[i].name == name) return static_cast<uint32_t>(i);
  return NotFound("unbound range variable " + var);
}

/// Resolves `e`'s variable to its slot and its attribute or role name
/// to a record index. An unknown attribute or role is a plan-time
/// NotFound with the text the per-row lookup used to raise.
Result<CompiledExpr> CompileExpr(const Database* db, Plan* plan,
                                 const Expr& e) {
  CompiledExpr out;
  out.src = &e;
  if (e.kind == Expr::Kind::kLiteral) {
    out.index = e.param;
    return out;
  }
  MDM_ASSIGN_OR_RETURN(out.slot, SlotOf(*plan, e.var));
  PlannedVar& var = plan->vars[out.slot];
  if (e.kind == Expr::Kind::kVarRef) {
    out.kind = var.is_relationship ? CompiledExpr::Kind::kRelValue
                                   : CompiledExpr::Kind::kEntity;
    return out;
  }
  if (!var.is_relationship) {
    const er::EntityTypeDef& def =
        db->schema().entity_types()[var.type_index];
    std::optional<size_t> attr = def.AttributeIndex(e.attr);
    if (!attr.has_value())
      return NotFound(StrFormat("entity type %s has no attribute %s",
                                def.name.c_str(), e.attr.c_str()));
    out.kind = CompiledExpr::Kind::kAttr;
    out.index = static_cast<uint32_t>(*attr);
    var.reads_record = true;
    return out;
  }
  // Relationship variable: a role yields the bound entity, otherwise a
  // relationship attribute.
  const er::RelationshipDef& def =
      db->schema().relationships()[var.type_index];
  if (std::optional<size_t> role = def.RoleIndex(e.attr)) {
    out.kind = CompiledExpr::Kind::kRole;
    out.index = static_cast<uint32_t>(*role);
    return out;
  }
  if (std::optional<size_t> attr = def.AttributeIndex(e.attr)) {
    out.kind = CompiledExpr::Kind::kRelAttr;
    out.index = static_cast<uint32_t>(*attr);
    return out;
  }
  return NotFound(StrFormat("relationship %s has no role or attribute %s",
                            def.name.c_str(), e.attr.c_str()));
}

/// The ordering a kOrder node relates its operands in: the named one,
/// or, when `in ordering` is omitted, the one ordering that applies to
/// the operands' declared types — decidable at plan time, so no row
/// ever resolves an ordering.
Result<er::OrderingHandle> ResolveOrder(const Database* db, const Qual& q,
                                        const PlannedVar& v1,
                                        const PlannedVar& v2) {
  if (v1.is_relationship || v2.is_relationship)
    return TypeError("ordering operators apply to entities");
  if (!q.ordering.empty()) return db->ResolveOrderingHandle(q.ordering);
  std::vector<er::OrderingHandle> candidates;
  const std::vector<er::OrderingDef>& defs = db->schema().orderings();
  for (size_t i = 0; i < defs.size(); ++i) {
    const er::OrderingDef& o = defs[i];
    bool match = q.order_op == OrderOp::kUnder
                     ? o.HasChildType(v1.type) &&
                           EqualsIgnoreCase(o.parent_type, v2.type)
                     : o.HasChildType(v1.type) && o.HasChildType(v2.type);
    if (match) candidates.push_back(er::OrderingHandle::FromIndex(i));
  }
  if (candidates.empty())
    return NotFound(StrFormat("no ordering relates %s and %s",
                              v1.type.c_str(), v2.type.c_str()));
  if (candidates.size() > 1)
    return InvalidArgument(
        StrFormat("ambiguous ordering between %s and %s; use 'in <name>'",
                  v1.type.c_str(), v2.type.c_str()));
  return candidates[0];
}

/// The loop depth at which every variable of compiled node `node` is
/// bound: one past its deepest slot, 0 for a constant.
size_t BoundDepth(const Plan& plan, uint32_t node) {
  const CompiledQual& c = plan.quals[node];
  auto expr_depth = [](const CompiledExpr& e) -> size_t {
    return e.kind == CompiledExpr::Kind::kLiteral ? 0 : e.slot + 1;
  };
  switch (c.kind) {
    case Qual::Kind::kCompare:
    case Qual::Kind::kIs:
      return std::max(expr_depth(c.lhs), expr_depth(c.rhs));
    case Qual::Kind::kOrder:
      return std::max(c.slot1, c.slot2) + 1;
    case Qual::Kind::kAnd:
    case Qual::Kind::kOr:
      return std::max(BoundDepth(plan, c.a), BoundDepth(plan, c.b));
    case Qual::Kind::kNot:
      return BoundDepth(plan, c.a);
  }
  return 0;
}

/// Compiles `q` (and its subtree) into plan->quals; returns its index.
Result<uint32_t> CompileQual(const Database* db, const Qual& q, Plan* plan) {
  CompiledQual node;
  node.kind = q.kind;
  node.cmp = q.cmp;
  node.order_op = q.order_op;
  switch (q.kind) {
    case Qual::Kind::kCompare:
    case Qual::Kind::kIs: {
      MDM_ASSIGN_OR_RETURN(node.lhs, CompileExpr(db, plan, q.lhs));
      MDM_ASSIGN_OR_RETURN(node.rhs, CompileExpr(db, plan, q.rhs));
      break;
    }
    case Qual::Kind::kOrder: {
      MDM_ASSIGN_OR_RETURN(node.slot1, SlotOf(*plan, q.order_var1));
      MDM_ASSIGN_OR_RETURN(node.slot2, SlotOf(*plan, q.order_var2));
      MDM_ASSIGN_OR_RETURN(node.ordering,
                           ResolveOrder(db, q, plan->vars[node.slot1],
                                        plan->vars[node.slot2]));
      break;
    }
    case Qual::Kind::kAnd:
    case Qual::Kind::kOr: {
      MDM_ASSIGN_OR_RETURN(node.a, CompileQual(db, *q.a, plan));
      MDM_ASSIGN_OR_RETURN(node.b, CompileQual(db, *q.b, plan));
      break;
    }
    case Qual::Kind::kNot: {
      MDM_ASSIGN_OR_RETURN(node.a, CompileQual(db, *q.a, plan));
      break;
    }
  }
  plan->quals.push_back(node);
  return static_cast<uint32_t>(plan->quals.size() - 1);
}

/// Declared rel::ValueType of a compiled expression, or nullopt when it
/// cannot be typed statically (relationship variables). Used to gate
/// index probes: a probe may only replace a scan when the key side is
/// statically comparable with the indexed attribute, so type errors the
/// scan path would raise are never masked by an empty probe.
std::optional<rel::ValueType> StaticExprType(const Database* db,
                                             const Plan& plan,
                                             const CompiledExpr& e) {
  switch (e.kind) {
    case CompiledExpr::Kind::kLiteral:
      return e.src->literal.type();
    case CompiledExpr::Kind::kEntity:
      return rel::ValueType::kRef;
    case CompiledExpr::Kind::kAttr:
      return db->schema()
          .entity_types()[plan.vars[e.slot].type_index]
          .attributes[e.index]
          .type;
    default:
      return std::nullopt;
  }
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

/// Whether every variable `e` reads is bound before loop `slot` runs.
bool BoundBefore(const CompiledExpr& e, uint32_t slot) {
  return e.kind == CompiledExpr::Kind::kLiteral || e.slot < slot;
}

/// Picks an index probe for the entity loop in `slot`, if any conjunct
/// has the shape `var.attr = <key>` / `<key> = var.attr` (or `is` over
/// refs) with every key-side variable bound by an outer loop and a live
/// index on (var.type, attr). First eligible conjunct wins; the
/// conjunct is NOT removed from the filter list — hashed key encodings
/// may collide and a runtime null key falls back to the scan, so
/// re-checking keeps probe plans row-for-row equivalent to scan plans.
/// A query naming the wrong key attribute (footnote 3) simply finds no
/// index here and keeps the scan.
void SelectIndexProbe(Database* db, const std::vector<uint32_t>& roots,
                      uint32_t slot, Plan* plan) {
  PlannedVar* var = &plan->vars[slot];
  const er::EntityTypeDef& def = db->schema().entity_types()[var->type_index];
  for (uint32_t root : roots) {
    const CompiledQual& c = plan->quals[root];
    bool eq_shape =
        (c.kind == Qual::Kind::kCompare && c.cmp == CompareOp::kEq) ||
        c.kind == Qual::Kind::kIs;
    if (!eq_shape) continue;
    for (int flip = 0; flip < 2; ++flip) {
      const CompiledExpr& attr_side = flip == 0 ? c.lhs : c.rhs;
      const CompiledExpr& key_side = flip == 0 ? c.rhs : c.lhs;
      if (attr_side.kind != CompiledExpr::Kind::kAttr) continue;
      if (attr_side.slot != slot || !BoundBefore(key_side, slot)) continue;
      const er::AttrIndex* ix =
          db->FindAttrIndex(var->type, def.attributes[attr_side.index].name);
      if (ix == nullptr) continue;
      std::optional<rel::ValueType> at =
          StaticExprType(db, *plan, attr_side);
      std::optional<rel::ValueType> kt = StaticExprType(db, *plan, key_side);
      if (!at || !kt || !IndexKeyTypesComparable(*at, *kt)) continue;
      // `is` compares entity references; guard against `is` over scalars
      // which the evaluator rejects at runtime.
      if (c.kind == Qual::Kind::kIs && *at != rel::ValueType::kRef) continue;
      var->index = ix;
      var->index_key = key_side;
      return;
    }
  }
}

/// Picks an ordering access path for the entity loop in `slot`: the
/// first top-level ordering conjunct relating it to a distinct variable
/// bound by an outer loop, in a direction the slice can enumerate —
/// descendants for `var under w`, sibling prefix/suffix for `var
/// before/after w` and their mirrors. `w under var` (an ancestor walk)
/// does not drive. Returns the position of the consumed conjunct in
/// `roots`, or SIZE_MAX. Relationship operands never get here:
/// ResolveOrder rejects them.
size_t SelectOrderingSlice(const std::vector<const Qual*>& conjuncts,
                           const std::vector<uint32_t>& roots, uint32_t slot,
                           Plan* plan) {
  PlannedVar* var = &plan->vars[slot];
  for (size_t i = 0; i < roots.size(); ++i) {
    const CompiledQual& c = plan->quals[roots[i]];
    if (c.kind != Qual::Kind::kOrder || c.slot1 == c.slot2) continue;
    er::OrderingSlice slice;
    if (c.slot1 == slot && c.slot2 < slot) {
      var->slice_anchor_slot = c.slot2;
      slice = c.order_op == OrderOp::kUnder    ? er::OrderingSlice::kDescendants
              : c.order_op == OrderOp::kBefore ? er::OrderingSlice::kBefore
                                               : er::OrderingSlice::kAfter;
    } else if (c.slot2 == slot && c.slot1 < slot &&
               c.order_op != OrderOp::kUnder) {
      // `w before var` is `var after w`, and vice versa.
      var->slice_anchor_slot = c.slot1;
      slice = c.order_op == OrderOp::kBefore ? er::OrderingSlice::kAfter
                                             : er::OrderingSlice::kBefore;
    } else {
      continue;
    }
    var->slice_anchor = plan->vars[var->slice_anchor_slot].name;
    var->slice_qual = conjuncts[i];
    var->slice_ordering = c.ordering;
    var->slice = slice;
    return i;
  }
  return SIZE_MAX;
}

const char* SliceOpText(er::OrderingSlice slice) {
  switch (slice) {
    case er::OrderingSlice::kDescendants: return "under";
    case er::OrderingSlice::kBefore: return "before";
    case er::OrderingSlice::kAfter: return "after";
  }
  return "?";
}

/// Renders a qualification. With a database and a plan, `node` is q's
/// compiled twin in plan->quals and ordering operators carry their
/// resolved ordering names (the explain output); both may be null for a
/// plain deparse.
std::string RenderQual(const Database* db, const Plan* plan, uint32_t node,
                       const Qual& q) {
  const CompiledQual* c = plan == nullptr ? nullptr : &plan->quals[node];
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
      if (c != nullptr)
        return out + " in " + db->ordering_def(c->ordering).name;
      if (!q.ordering.empty()) out += " in " + q.ordering;
      return out;
    }
    case Qual::Kind::kAnd:
      return RenderQual(db, plan, c == nullptr ? 0 : c->a, *q.a) + " and " +
             RenderQual(db, plan, c == nullptr ? 0 : c->b, *q.b);
    case Qual::Kind::kOr:
      return "(" + RenderQual(db, plan, c == nullptr ? 0 : c->a, *q.a) +
             " or " + RenderQual(db, plan, c == nullptr ? 0 : c->b, *q.b) +
             ")";
    case Qual::Kind::kNot:
      return "not (" + RenderQual(db, plan, c == nullptr ? 0 : c->a, *q.a) +
             ")";
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
  return RenderQual(nullptr, nullptr, 0, q);
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
    const er::ErSchema& schema = db->schema();
    if (const er::RelationshipDef* rdef = schema.FindRelationship(var.type)) {
      var.is_relationship = true;
      var.type_index =
          static_cast<uint32_t>(rdef - schema.relationships().data());
    } else if (const er::EntityTypeDef* tdef =
                   schema.FindEntityType(var.type)) {
      var.type_index =
          static_cast<uint32_t>(tdef - schema.entity_types().data());
    }
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
  for (const Qual* c : conjuncts) {
    std::set<std::string> cv;
    CollectQualVars(*c, &cv);
    for (PlannedVar& var : plan.vars)
      if (cv.count(var.name) != 0)
        var.selectivity = std::min(var.selectivity, cv.size());
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

  // Compile every top-level conjunct against the final slots. This
  // resolves each ordering operator (inside or/not too) to a handle and
  // each attribute or role name to a record index, once.
  std::vector<uint32_t> roots;
  roots.reserve(conjuncts.size());
  for (const Qual* c : conjuncts) {
    MDM_ASSIGN_OR_RETURN(uint32_t root, CompileQual(db, *c, &plan));
    roots.push_back(root);
  }

  // Access path selection, in loop order: each entity loop may be
  // driven by an ordering slice under an outer binding or, failing
  // that, by an equality conjunct whose key side is bound by outer
  // loops (index selection for literal keys, index-nested-loop join for
  // outer-variable keys). Runs after the sort so "bound" is final; the
  // naive plan never uses either — it is the ablation baseline.
  std::vector<bool> consumed(conjuncts.size(), false);
  if (pushdown) {
    for (uint32_t slot = 0; slot < plan.vars.size(); ++slot) {
      if (plan.vars[slot].is_relationship) continue;
      size_t sliced = SelectOrderingSlice(conjuncts, roots, slot, &plan);
      if (sliced != SIZE_MAX)
        consumed[sliced] = true;
      else
        SelectIndexProbe(db, roots, slot, &plan);
    }
  }

  // Push each conjunct to the outermost depth at which its variables
  // are all bound (depth 0 = constant). Without pushdown everything
  // evaluates at the innermost level.
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (consumed[i]) continue;
    PlannedConjunct pc;
    pc.qual = conjuncts[i];
    pc.root = roots[i];
    if (pushdown) {
      pc.depth = BoundDepth(plan, pc.root);
    } else {
      pc.depth = plan.vars.size();
    }
    plan.conjuncts.push_back(pc);
  }
  std::stable_sort(plan.conjuncts.begin(), plan.conjuncts.end(),
                   [](const PlannedConjunct& a, const PlannedConjunct& b) {
                     return a.depth < b.depth;
                   });

  // The expressions the executor evaluates per emitted row.
  for (const Target& t : stmt.targets) {
    MDM_ASSIGN_OR_RETURN(CompiledExpr e, CompileExpr(db, &plan, t.expr));
    plan.targets.push_back(e);
  }
  if (!stmt.targets.empty()) {
    for (const Expr& by_expr : stmt.targets[0].by) {
      MDM_ASSIGN_OR_RETURN(CompiledExpr e, CompileExpr(db, &plan, by_expr));
      plan.by.push_back(e);
    }
  }
  for (const auto& [attr, expr] : stmt.assignments) {
    MDM_ASSIGN_OR_RETURN(CompiledExpr e, CompileExpr(db, &plan, expr));
    plan.assignments.push_back(e);
  }
  if (!stmt.update_var.empty()) {
    MDM_ASSIGN_OR_RETURN(plan.update_slot, SlotOf(plan, stmt.update_var));
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
      out += "  filter (const): " + RenderQual(&db, &plan, c.root, *c.qual) +
             "\n";
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
        out += "    filter: " + RenderQual(&db, &plan, c.root, *c.qual) + "\n";
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
