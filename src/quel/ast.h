#ifndef MDM_QUEL_AST_H_
#define MDM_QUEL_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "ddl/lexer.h"
#include "rel/value.h"

namespace mdm::quel {

/// Scalar expression: a literal, or `var.attr`, or a bare range variable
/// (which evaluates to the entity it is bound to, for `is` comparisons).
struct Expr {
  enum class Kind { kLiteral, kAttrRef, kVarRef };
  Kind kind = Kind::kLiteral;
  // kLiteral: the value as parsed, and its slot in the script's
  // parameter vector (ParsedScript::params). Execution reads the slot,
  // so a cached statement runs with each call's own literals; `literal`
  // keeps the parse-time value for explain and deparse.
  rel::Value literal;
  uint32_t param = 0;
  std::string var;   // kAttrRef / kVarRef
  std::string attr;  // kAttrRef: attribute or relationship-role name

  static Expr Literal(rel::Value v) {
    Expr e;
    e.kind = Kind::kLiteral;
    e.literal = std::move(v);
    return e;
  }
  static Expr AttrRef(std::string var, std::string attr) {
    Expr e;
    e.kind = Kind::kAttrRef;
    e.var = std::move(var);
    e.attr = std::move(attr);
    return e;
  }
  static Expr VarRef(std::string var) {
    Expr e;
    e.kind = Kind::kVarRef;
    e.var = std::move(var);
    return e;
  }
};

/// Comparison operators in qualifications.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// The paper's entity ordering operators (§5.6).
enum class OrderOp { kBefore, kAfter, kUnder };

/// Qualification tree.
struct Qual {
  enum class Kind { kCompare, kIs, kOrder, kAnd, kOr, kNot };
  Kind kind = Kind::kCompare;

  // kCompare / kIs
  Expr lhs;
  Expr rhs;
  CompareOp cmp = CompareOp::kEq;

  // kOrder: `var1 <op> var2 in ordering`
  OrderOp order_op = OrderOp::kBefore;
  std::string order_var1;
  std::string order_var2;
  std::string ordering;  // empty = infer the unique applicable ordering

  // kAnd / kOr / kNot
  std::unique_ptr<Qual> a;
  std::unique_ptr<Qual> b;
};

/// Aggregate functions over the qualifying set.
enum class AggFn { kNone, kCount, kSum, kAvg, kMin, kMax };

/// One retrieve target: `[label =] expr` or `aggfn(expr [by expr, ...])`.
/// A `by` list groups the qualifying set QUEL-style: one result row per
/// distinct combination of the by-expressions.
struct Target {
  std::string label;
  AggFn agg = AggFn::kNone;
  Expr expr;
  std::vector<Expr> by;
};

/// One key of a `sort by` clause: a target label plus direction.
struct SortKey {
  std::string label;
  bool descending = false;
};

/// A parsed QUEL statement.
struct Statement {
  enum class Kind { kRange, kRetrieve, kAppend, kReplace, kDelete };
  Kind kind = Kind::kRange;

  // kRange: `range of v1, v2 is TYPE`
  std::vector<std::string> range_vars;
  std::string range_type;

  // kRetrieve
  bool explain = false;  // `explain retrieve ...`: render the plan only
  bool analyze = false;  // `explain analyze ...`: execute + annotate plan
  bool unique = false;   // `retrieve unique (...)` deduplicates rows
  std::vector<Target> targets;
  std::vector<SortKey> sort_keys;  // `sort by label [desc], ...`
  std::unique_ptr<Qual> qual;  // shared by retrieve/replace/delete

  // kAppend: `append to TYPE (attr = literal, ...)`, optionally followed
  // by `under <var> in <ordering> [where qual]` — the created entity is
  // appended as the last child of every entity the qualification binds
  // `var` to (the editor's "add a measure at the end" operation, §5.5).
  std::string append_type;
  std::vector<std::pair<std::string, Expr>> assignments;  // append/replace
  std::string append_parent_var;  // empty: plain append
  std::string append_ordering;    // ordering to append under

  // kReplace / kDelete: the updated/deleted range variable
  std::string update_var;
};

}  // namespace mdm::quel

#endif  // MDM_QUEL_AST_H_
