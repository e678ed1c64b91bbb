#ifndef MDM_QUEL_QUEL_H_
#define MDM_QUEL_QUEL_H_

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "er/database.h"
#include "quel/ast.h"

namespace mdm::quel {

/// The rows produced by a retrieve, or the row count touched by an
/// update statement.
///
/// Consumption API: look up columns by name once with ColumnIndex, read
/// cells with At, or range-for over the rows:
///
///   auto name = rs.ColumnIndex("n1.name");
///   for (ResultSet::RowRef row : rs)
///     use(row[*name]);           // or row["n1.name"]
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<std::vector<rel::Value>> rows;
  uint64_t affected = 0;
  /// Set by `explain [analyze] retrieve ...`: the rendered (and, under
  /// analyze, annotated) plan. When non-empty, ToString() returns it
  /// verbatim.
  std::string explain;

  /// Index of the column labelled `name` (case-insensitive), if any.
  std::optional<size_t> ColumnIndex(std::string_view name) const;
  /// Cell access; returns a null Value for out-of-range coordinates
  /// rather than faulting, so display loops need no bounds checks.
  const rel::Value& At(size_t row, size_t col) const;

  size_t size() const { return rows.size(); }
  bool empty() const { return rows.empty(); }

  /// One row, addressable by column index or (case-insensitive) label.
  class RowRef {
   public:
    const rel::Value& operator[](size_t col) const {
      return rs_->At(row_, col);
    }
    const rel::Value& operator[](std::string_view col) const;
    size_t size() const { return rs_->rows[row_].size(); }
    size_t row_index() const { return row_; }

   private:
    friend struct ResultSet;
    RowRef(const ResultSet* rs, size_t row) : rs_(rs), row_(row) {}
    const ResultSet* rs_;
    size_t row_;
  };

  class RowIterator {
   public:
    RowRef operator*() const { return RowRef(rs_, row_); }
    RowIterator& operator++() {
      ++row_;
      return *this;
    }
    bool operator!=(const RowIterator& o) const { return row_ != o.row_; }
    bool operator==(const RowIterator& o) const { return row_ == o.row_; }

   private:
    friend struct ResultSet;
    RowIterator(const ResultSet* rs, size_t row) : rs_(rs), row_(row) {}
    const ResultSet* rs_;
    size_t row_;
  };

  RowIterator begin() const { return RowIterator(this, 0); }
  RowIterator end() const { return RowIterator(this, rows.size()); }

  /// Renders an aligned text table (for the examples and benches).
  std::string ToString() const;
};

/// Per-session execution counters, cumulative across Execute calls
/// until ResetStats. Surfaced by mdmsh's \stats.
///
/// This struct is the per-session view. Process-wide totals are
/// mirrored on the obs registry (mdm_quel_*_total and the
/// quel.statement span histogram); prefer those for monitoring — this
/// accessor remains for per-session attribution in tests and benches
/// (see docs/OBSERVABILITY.md).
struct ExecStats {
  uint64_t statements = 0;           // statements executed
  uint64_t rows_scanned = 0;         // range-variable bindings enumerated
  uint64_t conjuncts_evaluated = 0;  // pushed-down conjunct tests
  uint64_t plan_cache_hits = 0;      // scripts answered from the plan cache

  std::string ToString() const;
};

/// Relaxed-atomic twin of ExecStats: the live counters a session (and
/// the join inner loops) bump, safe against concurrent Execute calls on
/// one shared session. Counts are exact.
struct ExecCounters {
  std::atomic<uint64_t> statements{0};
  std::atomic<uint64_t> rows_scanned{0};
  std::atomic<uint64_t> conjuncts_evaluated{0};
  std::atomic<uint64_t> plan_cache_hits{0};

  ExecStats Snapshot() const {
    ExecStats s;
    s.statements = statements.load(std::memory_order_relaxed);
    s.rows_scanned = rows_scanned.load(std::memory_order_relaxed);
    s.conjuncts_evaluated =
        conjuncts_evaluated.load(std::memory_order_relaxed);
    s.plan_cache_hits = plan_cache_hits.load(std::memory_order_relaxed);
    return s;
  }
  void Reset() {
    statements.store(0, std::memory_order_relaxed);
    rows_scanned.store(0, std::memory_order_relaxed);
    conjuncts_evaluated.store(0, std::memory_order_relaxed);
    plan_cache_hits.store(0, std::memory_order_relaxed);
  }
};

/// Per-loop actual row counts of the last executed query statement,
/// outermost loop first — the same numbers `explain analyze` renders,
/// collected without the explain wrapper when the session's
/// collect-actuals knob is on. The mdmd slow-query log attaches these
/// so a slow join shows which loop exploded (docs/OBSERVABILITY.md).
struct StatementActuals {
  struct Loop {
    std::string var;       // planned range variable (lowercased)
    std::string access;    // "scan", "index" or "ordering" (AccessPathName)
    uint64_t rows_in = 0;  // bindings the loop enumerated
    uint64_t rows_out = 0; // bindings surviving its pushed-down filters
  };
  std::vector<Loop> loops;
  bool empty() const { return loops.empty(); }
};

/// One plan-cache entry as seen from outside (tests, diagnostics).
struct PlanCacheEntry {
  std::string shape;         // ScriptShape::text, the cache key
  uint64_t fingerprint = 0;  // ScriptFingerprint of any script of it
  uint64_t hits = 0;         // calls answered from this entry
  uint64_t plans_built = 0;  // statement plans built (first use, rebuilds)
};

struct CachedScript;
struct CachedPlan;

/// A QUEL session against one MDM database.
///
/// Implements the QUEL subset used in the paper plus the §5.6
/// extensions:
///
///   range of n1, n2 is NOTE
///   retrieve (n1.name) where n1 before n2 in note_in_chord
///                        and n2.name = 3
///   retrieve (c = count(n1)) where n1 under c1 in note_in_chord
///   append to NOTE (name = 7, pitch = "G4")
///   replace n1 (pitch = "A4") where n1.name = 7
///   delete n1 where n1.name = 7
///   explain retrieve (n1.name) where n1 before n2 in note_in_chord
///   explain analyze retrieve (n1.name) where n1.name = 3
///
/// As in GEM and later INGRES versions, a range variable with the same
/// name as its entity type is implicitly declared for every entity type
/// and relationship (footnote 6), so `retrieve (PERSON.name) where ...`
/// works without a range statement.
///
/// QuelSession is an internal building block: application clients go
/// through `mdm::Connection` (DESIGN.md §"Public API"), which owns one
/// session per local connection and dispatches DDL scripts too. Direct
/// construction is for the Connection/server plumbing, tests, and
/// benches that need session-level knobs (ExecuteNaive, ResetStats,
/// ClearParseCache).
///
/// Execution goes through a small planner (quel/planner.h): range
/// variables are ordered by selectivity and estimated cardinality,
/// top-level AND conjuncts are pushed down to the outermost loop level
/// at which their variables are bound, every ordering operator is
/// bound to a resolved er::OrderingHandle once per statement, every
/// `x.attr` is compiled to a (frame slot, attribute index) pair read
/// straight from the bound record, and a loop whose
/// `under`/`before`/`after` conjunct has its other operand bound
/// outside enumerates that ordering slice instead of its extent.
/// `explain retrieve` renders the plan without running it.
///
/// Plan cache: scripts are cached by shape (ScanScriptShape), the text
/// with each literal replaced by a placeholder tagged with its type. An
/// entry holds the parsed statements and each statement's Plan; a call
/// of a cached shape binds its own literals into the statements'
/// parameter slots (Expr::param), so it runs no lexer, parser or
/// planner. A cached plan is rebuilt when the catalog it was planned on
/// changed (Database::catalog_version, read from the pinned snapshot),
/// when the index ablation switch flipped, when a range variable now
/// names another type, or when a loop's extent has doubled or halved
/// since planning. ExecuteNaive and scripts containing `explain` run
/// uncached. At most 128 shapes are cached per session; the cache is
/// cleared wholesale when full.
///
/// Thread safety: Execute/ExecuteNaive may be called concurrently —
/// from many sessions sharing one database (the normal multi-client
/// shape, one session per client thread) or from threads sharing one
/// session (the plan cache and range declarations are mutex-guarded;
/// the counters are atomics). A range or retrieve reads a pinned
/// snapshot and takes no latch; an append, replace or delete runs in
/// its own er::WriteTxn, so mutating statements are serialized.
/// Consequently, do NOT call Execute while holding an er::WriteTxn on
/// the same database — the latch is not recursive.
class QuelSession {
 public:
  explicit QuelSession(er::Database* db) : db_(db) {}

  QuelSession(const QuelSession&) = delete;
  QuelSession& operator=(const QuelSession&) = delete;

  /// Executes a script of one or more statements; returns the result of
  /// the last retrieve (or an empty/affected-count result).
  ///
  /// Latching (docs/WRITEPATH.md): read-only statements pin the
  /// published snapshot and run with NO db latch at all; each mutating
  /// statement runs in one er::WriteTxn (one WAL transaction,
  /// crash-atomic), which publishes, releases the latch, and only then
  /// waits for group-commit durability.
  Result<ResultSet> Execute(const std::string& script);

  /// Executes with conjunct push-down disabled — the full cross product
  /// is enumerated and the whole qualification evaluated at the bottom.
  /// Exposed for the §5.6 evaluation-strategy benchmark.
  Result<ResultSet> ExecuteNaive(const std::string& script);

  /// Executes a script with NO latching or commit bracketing of its
  /// own: the caller already holds an er::WriteTxn (mdm::Connection's
  /// batch path, which runs N scripts under one WriteTxn and one
  /// group-committed fsync). Retrieves inside the batch read the live
  /// tables, so they see the batch's own earlier writes.
  Result<ResultSet> ExecutePreLocked(const std::string& script);

  /// Declared (explicit) range variables: name -> entity/relationship
  /// type. Persists across Execute calls, like a QUEL terminal session.
  /// Returned by value: a snapshot consistent under concurrency.
  std::map<std::string, std::string> ranges() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ranges_;
  }

  /// Snapshot of the cumulative execution counters (see ExecStats).
  ExecStats stats() const { return stats_.Snapshot(); }

  /// Zeroes the counters only — the plan cache is left intact, so
  /// re-running a cached script after ResetStats still counts a
  /// plan_cache_hit. Use ClearParseCache to drop cached scripts.
  void ResetStats() { stats_.Reset(); }

  /// Drops every cached script shape and its plans without touching
  /// the counters; the next Execute of any script re-parses and
  /// re-plans it (and does not count a plan_cache_hit).
  void ClearParseCache();

  /// The cached shapes, in no particular order.
  std::vector<PlanCacheEntry> PlanCacheEntries() const;

  /// When on, every query statement records its per-loop actual row
  /// counts (the `explain analyze` collector, minus the timing render)
  /// readable via TakeLastActuals. Costs two clock reads per loop
  /// level entry, so it is off by default and enabled by mdmd only
  /// when a slow-query log is configured.
  void set_collect_actuals(bool on) {
    collect_actuals_.store(on, std::memory_order_relaxed);
  }
  bool collect_actuals() const {
    return collect_actuals_.load(std::memory_order_relaxed);
  }

  /// Returns and clears the actuals of the most recent query statement
  /// (take-semantics so a later DDL or parse error cannot leak a stale
  /// attribution into the next slow-query record). Empty when the last
  /// statement ran no query loop (range/append/DDL) or collection is
  /// off.
  StatementActuals TakeLastActuals() {
    std::lock_guard<std::mutex> lock(mu_);
    StatementActuals out = std::move(last_actuals_);
    last_actuals_ = StatementActuals{};
    return out;
  }

 private:
  /// How Run acquires the database latch around each statement.
  enum class LatchMode {
    kAuto,       // per-statement: pinned read, WriteTxn write
    kPreLocked,  // caller holds an er::WriteTxn
  };

  using Ranges = std::map<std::string, std::string>;

  Result<ResultSet> Run(const std::string& script, bool pushdown,
                        LatchMode mode = LatchMode::kAuto);
  // Statement `i` of `script`, with the call's literals in `params`.
  Status RunStatement(CachedScript& script, size_t i,
                      const std::vector<rel::Value>& params, bool pushdown,
                      Ranges* ranges, ResultSet* last);
  Result<ResultSet> RunQuery(CachedScript& script, size_t i,
                             const std::vector<rel::Value>& params,
                             bool pushdown, const Ranges& ranges);
  // The plan of `stmt`, statement `i` of `script` (or the parent query
  // of an `append ... under`): the cached one while it is still valid,
  // else a new one, which replaces it.
  Result<std::shared_ptr<const CachedPlan>> PlanFor(CachedScript& script,
                                                    size_t i,
                                                    const Statement& stmt,
                                                    const Ranges& ranges,
                                                    bool pushdown);

  er::Database* db_;
  // mu_ guards ranges_, plan_cache_ (with its entries' plans and
  // counts) and last_actuals_ (session-local state); the database
  // itself is guarded by its own latch, taken per statement.
  mutable std::mutex mu_;
  Ranges ranges_;
  ExecCounters stats_;
  std::atomic<bool> collect_actuals_{false};
  StatementActuals last_actuals_;
  // Plan cache keyed by script shape. The shared_ptr keeps an entry
  // alive while it executes even if the cache is cleared mid-run.
  std::unordered_map<std::string, std::shared_ptr<CachedScript>> plan_cache_;
};

/// Parses a QUEL script into statements (exposed for tests).
Result<std::vector<Statement>> ParseQuel(const std::string& script);

/// A parsed script: its statements and its literals' values by
/// parameter slot (Expr::param). Slots [0, scanned) hold the literal
/// tokens in source order, the values ScanScriptShape binds; literals
/// the parser makes from identifiers (`true`, `false`) follow.
struct ParsedScript {
  std::vector<Statement> statements;
  std::vector<rel::Value> params;
  size_t scanned = 0;
};
Result<ParsedScript> ParseQuelScript(const std::string& script);

/// A script with its literals taken out. `text` is the token stream
/// with each literal replaced by `?i`, `?f` or `?s` (its type: the
/// planner's index-probe type gate depends on it) and any whitespace or
/// comment between tokens by one space; `params` are the literals'
/// values in source order.
struct ScriptShape {
  std::string text;
  std::vector<rel::Value> params;
  bool explain = false;  // an `explain` keyword: the script runs uncached
};

/// Scans `script` with the lexer's tokenizer. Returns false, leaving
/// the parser to report why, when the script does not lex.
bool ScanScriptShape(const std::string& script, ScriptShape* out);

/// FNV-1a-64 of the script's shape (of its text when it does not lex):
/// one value for every script that differs only in its literals. The
/// slow-query log stamps it on each record.
uint64_t ScriptFingerprint(const std::string& script);

}  // namespace mdm::quel

#endif  // MDM_QUEL_QUEL_H_
