#ifndef MDM_OBS_SLOWLOG_H_
#define MDM_OBS_SLOWLOG_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace mdm::obs {

/// Structured slow-query log (PR 8): mdmd appends one JSON object per
/// slow statement (JSONL) to a file or stderr, gated by
/// `--slow-query-ms`. Each record carries enough to find and explain
/// the offender without re-running it: a stable hash of the statement
/// text (for aggregation across log rotations), a truncated script
/// excerpt, the request's trace_id (join against /traces/<id>), the
/// measured latency, rows emitted, the canonical error code, and the
/// per-loop actual row counts the `explain analyze` collector produces
/// — re-used here so a slow join shows WHICH loop exploded.

/// Per-loop actuals for one executed query statement, outermost loop
/// first. access = how the loop enumerated ("scan", "index" or
/// "ordering"); rows_in = bindings the loop enumerated; rows_out =
/// bindings that survived the conjuncts pushed down to that loop.
struct SlowQueryLoop {
  std::string var;
  std::string access;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
};

struct SlowQueryRecord {
  uint64_t seq = 0;           // stamped by the log: 1, 2, ... per sink
  uint64_t script_hash = 0;   // Fnv1a64 of the full script text
  std::string script;         // excerpt, truncated to kScriptExcerptChars
  uint64_t trace_id = 0;      // 0 = request carried none (v2 client)
  bool sampled = false;       // whether a trace was recorded for it
  uint64_t latency_us = 0;
  uint64_t rows = 0;          // rows emitted by the last retrieve
  uint64_t affected = 0;      // rows touched by the last mutation
  std::string error = "OK";   // canonical ErrorCode name
  std::vector<SlowQueryLoop> loops;
};

/// FNV-1a 64-bit over the script text: stable across runs/platforms so
/// one statement aggregates under one hash fleet-wide.
uint64_t Fnv1a64(std::string_view s);

/// Renders one record as a single JSON line (no trailing newline).
/// Deterministic given the record — the JSONL schema test goldens this.
std::string RenderSlowQueryJson(const SlowQueryRecord& record);

/// Append-only JSONL sink. Thread-safe: connection threads Log()
/// concurrently; each record is written and flushed as one line under a
/// mutex so lines never interleave.
class SlowQueryLog {
 public:
  static constexpr size_t kScriptExcerptChars = 120;

  /// Opens `path` for appending ("-" = stderr). Fails with UNAVAILABLE
  /// if the file cannot be opened.
  static Result<std::unique_ptr<SlowQueryLog>> Open(const std::string& path);

  ~SlowQueryLog();
  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  /// Stamps seq, truncates the script excerpt, writes one line.
  void Log(SlowQueryRecord record);

  uint64_t records_written() const;

 private:
  explicit SlowQueryLog(std::FILE* f, bool owns) : f_(f), owns_(owns) {}

  mutable std::mutex mu_;
  std::FILE* f_;
  bool owns_;
  uint64_t seq_ = 0;
};

}  // namespace mdm::obs

#endif  // MDM_OBS_SLOWLOG_H_
