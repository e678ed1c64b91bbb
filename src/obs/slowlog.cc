#include "obs/slowlog.h"

#include <cerrno>
#include <cinttypes>
#include <cstring>

#include "obs/trace.h"

namespace mdm::obs {

namespace {

/// JSON string escaping for the script excerpt: quotes, backslashes,
/// and control characters (QUEL scripts may span lines).
std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c) & 0xff);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string RenderSlowQueryJson(const SlowQueryRecord& r) {
  std::string out = "{";
  char buf[128];
  std::snprintf(buf, sizeof(buf), "\"seq\":%" PRIu64 ",", r.seq);
  out += buf;
  out += "\"script_hash\":\"" + FormatTraceId(r.script_hash) + "\",";
  out += "\"script\":\"" + JsonEscape(r.script) + "\",";
  out += "\"trace_id\":\"" + FormatTraceId(r.trace_id) + "\",";
  out += std::string("\"sampled\":") + (r.sampled ? "true" : "false") + ",";
  std::snprintf(buf, sizeof(buf),
                "\"latency_us\":%" PRIu64 ",\"rows\":%" PRIu64
                ",\"affected\":%" PRIu64 ",",
                r.latency_us, r.rows, r.affected);
  out += buf;
  out += "\"error\":\"" + JsonEscape(r.error) + "\",\"loops\":[";
  bool first = true;
  for (const SlowQueryLoop& loop : r.loops) {
    if (!first) out += ",";
    first = false;
    out += "{\"var\":\"" + JsonEscape(loop.var) + "\",";
    out += "\"access\":\"" + JsonEscape(loop.access) + "\",";
    std::snprintf(buf, sizeof(buf),
                  "\"rows_in\":%" PRIu64 ",\"rows_out\":%" PRIu64 "}",
                  loop.rows_in, loop.rows_out);
    out += buf;
  }
  out += "]}";
  return out;
}

Result<std::unique_ptr<SlowQueryLog>> SlowQueryLog::Open(
    const std::string& path) {
  if (path == "-")
    return std::unique_ptr<SlowQueryLog>(
        new SlowQueryLog(stderr, /*owns=*/false));
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr)
    return Unavailable("cannot open slow-query log '" + path +
                       "': " + std::strerror(errno));
  return std::unique_ptr<SlowQueryLog>(new SlowQueryLog(f, /*owns=*/true));
}

SlowQueryLog::~SlowQueryLog() {
  if (owns_ && f_ != nullptr) std::fclose(f_);
}

void SlowQueryLog::Log(SlowQueryRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  record.seq = ++seq_;
  if (record.script.size() > kScriptExcerptChars) {
    record.script.resize(kScriptExcerptChars);
    record.script += "...";
  }
  std::string line = RenderSlowQueryJson(record);
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), f_);
  std::fflush(f_);
}

uint64_t SlowQueryLog::records_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

}  // namespace mdm::obs
