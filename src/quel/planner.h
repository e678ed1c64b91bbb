#ifndef MDM_QUEL_PLANNER_H_
#define MDM_QUEL_PLANNER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "er/database.h"
#include "quel/ast.h"

namespace mdm::quel {

/// A scalar expression compiled against a plan: its range variable is
/// a slot (the index of that variable in Plan::vars, bound by loop
/// slot + 1) and its attribute or role name is an index into the bound
/// record, both resolved once at plan time. Evaluation reads
/// `attrs[index]` of the record in the slot and looks up no name. A
/// literal reads parameter `index` of the call (Expr::param), so one
/// plan serves every call of a script shape.
struct CompiledExpr {
  enum class Kind : uint8_t {
    kLiteral,   // the call's params[index]
    kEntity,    // the entity bound to `slot`, as a ref
    kAttr,      // attrs[index] of the entity bound to `slot`
    kRole,      // role_refs[index] of the relationship bound to `slot`
    kRelAttr,   // attrs[index] of the relationship bound to `slot`
    kRelValue,  // a relationship variable used as a value: a TypeError
                // raised per row, so an empty extent still succeeds
  };
  Kind kind = Kind::kLiteral;
  uint32_t slot = 0;
  uint32_t index = 0;
  const Expr* src = nullptr;  // the AST node (literal type, error text)
};

/// One qualification node, compiled. The tree mirrors its Qual node for
/// node; children are indexes into Plan::quals.
struct CompiledQual {
  Qual::Kind kind = Qual::Kind::kCompare;
  CompareOp cmp = CompareOp::kEq;
  OrderOp order_op = OrderOp::kBefore;
  CompiledExpr lhs;  // kCompare / kIs
  CompiledExpr rhs;
  uint32_t slot1 = 0;  // kOrder: `slot1 <op> slot2 in ordering`
  uint32_t slot2 = 0;
  er::OrderingHandle ordering;  // kOrder, resolved once
  uint32_t a = 0;  // kAnd / kOr / kNot children
  uint32_t b = 0;
};

/// One range variable of a planned statement, in chosen loop order.
struct PlannedVar {
  std::string name;  // lowercased
  std::string type;  // entity type or relationship name
  bool is_relationship = false;
  uint64_t cardinality = 0;  // CountEntities / CountRelationships estimate
  // Arity of the narrowest conjunct mentioning this variable (SIZE_MAX
  // when none does): single-variable predicates make a loop maximally
  // selective, so lower ranks loop first.
  size_t selectivity = SIZE_MAX;
  // Index-backed enumeration (nullptr = full scan). When the planner
  // finds an equality conjunct `var.attr = <key>` (or `var.attr is
  // <key>`) whose key side is fully bound by outer loops and a live
  // secondary index covers (type, attr), this loop probes the index
  // with the evaluated key instead of scanning every instance — an
  // index selection when the key is a literal, an index-nested-loop
  // join when it references outer variables. The conjunct itself stays
  // in the filter list (hash keys may collide), and a runtime null key
  // falls back to the scan. `index` borrows from the database and is
  // valid for the statement's execution.
  const er::AttrIndex* index = nullptr;
  CompiledExpr index_key;
  // Ordering access path (nullptr slice_qual = none). When a top-level
  // conjunct `var under w in O`, `var before w` / `var after w`, or the
  // mirrored `w after var` / `w before var`, has its other operand w
  // bound by an outer loop, this loop enumerates exactly the entities
  // the conjunct admits, straight from O's S-edges
  // (Database::ForEachInOrderingSlice), instead of scanning the type
  // extent. The slice is exact, so the conjunct is consumed: it leaves
  // the filter list. A slice beats an index probe (it is bounded by one
  // parent's subtree, a probe spans the corpus), and the probe's
  // conjunct stays a filter. Conjuncts inside or/not, self pairs and
  // relationship operands never drive a loop. The naive plan (no
  // pushdown, the ablation baseline) keeps the scan.
  const Qual* slice_qual = nullptr;
  er::OrderingHandle slice_ordering;
  er::OrderingSlice slice = er::OrderingSlice::kDescendants;
  std::string slice_anchor;     // w, lowercased
  uint32_t slice_anchor_slot = 0;  // w's slot
  // `type` in ErSchema::entity_types(), or in relationships() for a
  // relationship variable.
  uint32_t type_index = 0;
  // Whether any compiled expression reads an attribute of this entity
  // loop's record. When none does (count(n), `is`, ordering operators
  // use only the id), the loop binds ids and never fetches a record.
  bool reads_record = false;
};

/// How a planned loop enumerates its candidates: "ordering", "index"
/// or "scan" (explain, StatementActuals, the slow-query log).
const char* AccessPathName(const PlannedVar& var);

/// One top-level AND conjunct: evaluated as soon as the first `depth`
/// loop variables are bound (depth 0 = constant, tested before any
/// loop). `root` is its compiled tree in Plan::quals. Conjuncts consumed
/// by an ordering access path are not listed.
struct PlannedConjunct {
  const Qual* qual = nullptr;
  size_t depth = 0;
  uint32_t root = 0;
};

/// A compiled retrieve/replace/delete: loop order, pushed-down
/// conjuncts, and every expression the statement evaluates resolved to
/// frame slots and record indexes, with every ordering operator bound
/// to an er::OrderingHandle — the executor looks up no variable,
/// attribute or ordering name per row. Compiled nodes point into the
/// statement's AST (literal types, names for error text), which must
/// outlive the plan; the AST itself is never modified, so a cached
/// statement can be planned by many threads at once. Nothing in a plan
/// depends on a literal's value, only on its type, so a plan is reused
/// for every call of a script shape (quel.h, "Plan cache").
struct Plan {
  std::vector<PlannedVar> vars;  // slot k = vars[k], bound by loop k + 1
  // Sorted by depth (stably, so filters of one depth keep query order).
  std::vector<PlannedConjunct> conjuncts;
  // Every compiled qualification node: the conjunct roots, their
  // children, and the ordering conjuncts consumed by slices.
  std::vector<CompiledQual> quals;
  std::vector<CompiledExpr> targets;      // Statement::targets[i].expr
  std::vector<CompiledExpr> by;           // Statement::targets[0].by
  std::vector<CompiledExpr> assignments;  // Statement::assignments
  uint32_t update_slot = 0;               // replace/delete target
  bool pushdown = true;
};

/// Plans a statement against the session's range declarations. Unknown
/// range variables, attributes and roles, and unresolvable or ambiguous
/// orderings are reported here, before any loop runs. Type errors
/// (comparing a string with an int, a relationship used as a value)
/// depend on the values and are raised per row by the executor.
Result<Plan> PlanQuery(er::Database* db,
                       const std::map<std::string, std::string>& ranges,
                       const Statement& stmt, bool pushdown);

/// Renders a plan for `explain retrieve ...` (golden-tested, so the
/// format is part of the API surface).
std::string ExplainPlan(const er::Database& db, const Statement& stmt,
                        const Plan& plan);

/// Actual row counts and timings collected while executing an
/// `explain analyze` statement. Index k of each vector is loop depth k:
/// depth 0 is the constant gate before any loop, depth k >= 1 is entered
/// once per binding enumerated by loop k. All four vectors have
/// plan.vars.size() + 1 entries.
///
/// Invariant used by the renderer: inclusive_ns[k] covers everything at
/// depth k and below, including the depth-k filters (filter_ns[k]).
/// Explain prints the depth-k filters under loop k, so loop k's self
/// time is its enumeration plus those filters:
///   self(k) = (inclusive_ns[k-1] - filter_ns[k-1])
///             - (inclusive_ns[k] - filter_ns[k])
/// with filter_ns[0] (the constant filters) left in loop 1's share. The
/// emit time is inclusive_ns[N] - filter_ns[N], so the loop self times
/// plus the emit time sum exactly to inclusive_ns[0].
struct AnalyzeStats {
  std::vector<uint64_t> calls;         // times depth k was entered
  std::vector<uint64_t> passed;        // bindings surviving depth-k filters
  std::vector<uint64_t> inclusive_ns;  // total ns spent at depth >= k
  std::vector<uint64_t> filter_ns;     // ns spent in the depth-k filters

  void Resize(size_t levels) {
    calls.assign(levels, 0);
    passed.assign(levels, 0);
    inclusive_ns.assign(levels, 0);
    filter_ns.assign(levels, 0);
  }
};

/// Renders an executed plan for `explain analyze retrieve ...`: the
/// ExplainPlan output with each loop annotated by actual rows in/out and
/// self time, plus a totals footer. `statement_ns` is the measured
/// latency of the whole statement (planning + join + post-processing).
std::string ExplainAnalyzePlan(const er::Database& db, const Statement& stmt,
                               const Plan& plan, const AnalyzeStats& actual,
                               uint64_t statement_ns);

/// Deparse helpers (explain output, error messages, tests).
std::string ExprToString(const Expr& e);
std::string QualToString(const Qual& q);

}  // namespace mdm::quel

#endif  // MDM_QUEL_PLANNER_H_
