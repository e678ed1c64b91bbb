// mdmsh — an interactive MDM shell: a tiny terminal monitor for the
// music data manager, accepting the paper's DDL and extended QUEL plus
// a few meta commands. Reads from stdin; suitable for piping scripts.
//
// All statements flow through the mdm::Connection facade, so the same
// shell works against the in-process database (default) or a remote
// mdmd server:
//
//   $ ./build/examples/mdmsh
//   $ ./build/examples/mdmsh --connect 127.0.0.1:7707
//   mdm> define entity NOTE (name = integer)
//   mdm> append to NOTE (name = 7)
//   mdm> retrieve (NOTE.name)
//   mdm> \schema        -- deparse the schema (local sessions only)
//   mdm> \ho            -- HO graph in DOT
//   mdm> \save score.mdm  / \load score.mdm
//   mdm> \quit
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "ddl/parser.h"
#include "er/database.h"
#include "er/persist.h"
#include "net/admin.h"
#include "net/connection.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "quel/quel.h"

namespace {

/// Splits "host:port" (net admin endpoint form); false on bad input.
bool SplitHostPort(const std::string& endpoint, std::string* host,
                   uint16_t* port) {
  size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon + 1 == endpoint.size())
    return false;
  *host = endpoint.substr(0, colon);
  if (host->size() >= 2 && host->front() == '[' && host->back() == ']')
    *host = host->substr(1, host->size() - 2);
  long p = std::atol(endpoint.c_str() + colon + 1);
  if (host->empty() || p < 1 || p > 65535) return false;
  *port = static_cast<uint16_t>(p);
  return true;
}

/// \stress: re-runs the last executed QUEL script from N concurrent
/// client threads (each with its own local Connection, the fig 1
/// many-clients shape) and reports aggregate throughput. Retrieves
/// read pinned snapshots with no latch; mutating scripts serialize safely.
/// (Local sessions only: against a remote server, run several mdmsh
/// --connect processes, or bench_s21_net.)
void RunStress(mdm::er::Database* db, const std::string& script,
               size_t threads, size_t iters) {
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> failed{0};
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    clients.emplace_back([db, &script, iters, &ok, &failed] {
      mdm::Connection conn = mdm::Connection::Local(db);
      for (size_t i = 0; i < iters; ++i) {
        if (conn.Execute(script).ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  uint64_t total = ok.load() + failed.load();
  std::printf("%zu threads x %zu iterations: %llu scripts (%llu failed) "
              "in %.3fs = %.0f scripts/s (hw threads: %u)\n",
              threads, iters, (unsigned long long)total,
              (unsigned long long)failed.load(), secs,
              secs > 0 ? total / secs : 0.0,
              std::thread::hardware_concurrency());
}

}  // namespace

int main(int argc, char** argv) {
  std::string endpoint;
  std::string admin_endpoint;
  mdm::net::ClientOptions copts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      endpoint = argv[++i];
    } else if (std::strcmp(argv[i], "--admin") == 0 && i + 1 < argc) {
      admin_endpoint = argv[++i];
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      copts.deadline_ms = static_cast<uint32_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--retries") == 0 && i + 1 < argc) {
      copts.retry.max_attempts = std::atoi(argv[++i]);
      if (copts.retry.max_attempts < 1) copts.retry.max_attempts = 1;
    } else if (std::strcmp(argv[i], "--trace-sample") == 0 && i + 1 < argc) {
      copts.trace_sample_rate = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--connect host:port] [--admin host:port] "
                   "[--deadline-ms MS] [--retries N] [--trace-sample R]\n"
                   "  --retries N: total attempts for idempotent reads "
                   "(1 = never retry)\n"
                   "  --admin: the server's --admin-port endpoint, for "
                   "\\metrics / \\statusz / \\trace against a remote mdmd\n"
                   "  --trace-sample R: sample fraction R of requests "
                   "(remote; retrieve traces with \\trace last)\n",
                   argv[0]);
      return 2;
    }
  }
  std::string admin_host;
  uint16_t admin_port = 0;
  if (!admin_endpoint.empty() &&
      !SplitHostPort(admin_endpoint, &admin_host, &admin_port)) {
    std::fprintf(stderr, "mdmsh: --admin wants host:port, got '%s'\n",
                 admin_endpoint.c_str());
    return 2;
  }

  // Local database backing the default (in-process) session. Unused in
  // remote mode, where the data lives in the mdmd server.
  mdm::er::Database db;
  mdm::Connection conn = mdm::Connection::Local(&db);
  if (!endpoint.empty()) {
    auto remote = mdm::Connection::Remote(endpoint, copts);
    if (!remote.ok()) {
      std::fprintf(stderr, "mdmsh: cannot connect to %s: %s\n",
                   endpoint.c_str(), remote.status().ToString().c_str());
      return 1;
    }
    conn = std::move(*remote);
    std::printf("connected to mdmd at %s\n", endpoint.c_str());
  }
  const bool local = !conn.is_remote();
  // Locally every statement is traced (the shell is a debugging tool;
  // the per-span cost is negligible at human typing speed), so `\trace
  // last` always has something to show. Remote tracing is opt-in via
  // --trace-sample because it costs server ring space per request.
  if (local) conn.EnableLocalTracing(/*seed=*/0x6D646D73);  // "mdms"

  std::string buffer;
  std::string line;
  std::string last_script;  // most recent QUEL buffer, for \stress

  std::printf("mdm shell — DDL + QUEL; \\help for commands\n");
  std::printf("mdm> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    std::string trimmed(mdm::StrTrim(line));
    if (!trimmed.empty() && trimmed[0] == '\\') {
      auto parts = mdm::StrSplit(trimmed, ' ');
      const std::string& cmd = parts[0];
      if (cmd == "\\quit" || cmd == "\\q") break;
      if (cmd == "\\help") {
        std::printf(
            "  define entity/relationship/ordering ...   (DDL)\n"
            "  range of / retrieve / append / replace / delete (QUEL)\n"
            "  explain retrieve ...   show the plan without running it\n"
            "  explain analyze retrieve ...   run it, annotate with actuals\n"
            "  statements may span lines; a blank line executes\n"
            "  \\schema       deparse the schema as DDL (local)\n"
            "  \\ho           hierarchical ordering graph (DOT) (local)\n"
            "  \\stats        entity counts + session execution counters\n"
            "  \\stress [N] [ITERS]  re-run the last script from N client\n"
            "                threads (default 4 x 100) (local)\n"
            "  \\metrics      Prometheus text ('json' for JSON): the\n"
            "                server's via --admin, else this process's\n"
            "  \\statusz      server status page via --admin; locally the\n"
            "                statement-latency percentiles\n"
            "  \\trace last   last request's trace as Chrome trace JSON\n"
            "                (remote needs --admin and --trace-sample)\n"
            "  \\save PATH    write a snapshot (local)\n"
            "  \\load PATH    replace the session with a snapshot (local)\n"
            "  \\quit\n");
      } else if (!local &&
                 (cmd == "\\schema" || cmd == "\\ho" || cmd == "\\stats" ||
                  cmd == "\\stress" || cmd == "\\save" || cmd == "\\load")) {
        std::printf("%s works on a local session only; this shell is "
                    "connected to a remote mdmd\n",
                    cmd.c_str());
      } else if (cmd == "\\schema") {
        std::printf("%s", mdm::ddl::SchemaToDdl(db.schema()).c_str());
      } else if (cmd == "\\ho") {
        std::printf("%s", db.HoGraphDot().c_str());
      } else if (cmd == "\\stats") {
        // One pinned snapshot under the whole report: the counts form
        // one consistent state even if \stress threads were running.
        mdm::er::SnapshotReadScope read(&db, db.PinSnapshot());
        for (const auto& type : db.schema().entity_types()) {
          auto n = db.CountEntities(type.name);
          std::printf("  %-20s %llu\n", type.name.c_str(),
                      n.ok() ? (unsigned long long)*n : 0ull);
        }
        std::printf("session:\n%s", conn.local_stats().ToString().c_str());
      } else if (cmd == "\\stress") {
        if (last_script.empty()) {
          std::printf("nothing to stress: execute a QUEL script first\n");
        } else {
          size_t threads = parts.size() > 1 ? std::stoul(parts[1]) : 4;
          size_t iters = parts.size() > 2 ? std::stoul(parts[2]) : 100;
          if (threads == 0) threads = 1;
          RunStress(&db, last_script, threads, iters);
        }
      } else if (cmd == "\\metrics") {
        bool json = parts.size() > 1 && parts[1] == "json";
        if (!local && admin_port != 0) {
          // The numbers a remote operator wants are the SERVER's, not
          // this shell process's — fetch them from the admin endpoint.
          if (json)
            std::printf("# note: the admin endpoint serves Prometheus text "
                        "only; showing /metrics\n");
          auto body = mdm::net::HttpGet(admin_host, admin_port, "/metrics",
                                        /*timeout_ms=*/2'000);
          if (body.ok()) {
            std::printf("# origin: mdmd admin %s\n%s", admin_endpoint.c_str(),
                        body->c_str());
          } else {
            std::printf("cannot reach admin endpoint %s: %s\n",
                        admin_endpoint.c_str(),
                        body.status().ToString().c_str());
          }
        } else {
          if (!local)
            std::printf("# origin: this mdmsh process (client-side metrics "
                        "only; pass --admin HOST:PORT for the server's)\n");
          else
            std::printf("# origin: this mdmsh process (local database)\n");
          if (json) {
            std::printf("%s\n", mdm::obs::RenderJson().c_str());
          } else {
            std::printf("%s", mdm::obs::RenderPrometheusText().c_str());
          }
        }
      } else if (cmd == "\\statusz") {
        if (!local) {
          if (admin_port == 0) {
            std::printf("\\statusz on a remote session needs --admin "
                        "HOST:PORT (the server's --admin-port)\n");
          } else {
            auto body = mdm::net::HttpGet(admin_host, admin_port, "/statusz",
                                          /*timeout_ms=*/2'000);
            if (body.ok()) {
              std::printf("%s", body->c_str());
            } else {
              std::printf("cannot reach admin endpoint %s: %s\n",
                          admin_endpoint.c_str(),
                          body.status().ToString().c_str());
            }
          }
        } else {
          mdm::obs::Histogram* h = mdm::obs::Registry::Global()->GetHistogram(
              "mdm_span_duration_ns{span=\"quel.statement\"}",
              "Inclusive span latency in nanoseconds");
          std::printf("quel.statement latency (this process, %llu samples):\n"
                      "  p50 %.0f ns  p90 %.0f ns  p99 %.0f ns\n",
                      (unsigned long long)h->count(),
                      mdm::obs::HistogramPercentile(*h, 0.50),
                      mdm::obs::HistogramPercentile(*h, 0.90),
                      mdm::obs::HistogramPercentile(*h, 0.99));
        }
      } else if (cmd == "\\trace") {
        if (parts.size() < 2 || parts[1] != "last") {
          std::printf("usage: \\trace last\n");
        } else if (conn.last_trace_id() == 0) {
          std::printf("no traced request yet%s\n",
                      !local && copts.trace_sample_rate <= 0.0
                          ? " (start mdmsh with --trace-sample 1)"
                          : "");
        } else if (local) {
          auto trace = mdm::obs::TraceRing::Global()->Find(
              conn.last_trace_id());
          if (trace == nullptr) {
            std::printf("trace %s has aged out of the ring\n",
                        mdm::obs::FormatTraceId(conn.last_trace_id()).c_str());
          } else {
            std::printf("%s\n",
                        mdm::obs::RenderTraceEventJson(*trace).c_str());
          }
        } else if (admin_port == 0) {
          std::printf("\\trace last on a remote session needs --admin "
                      "HOST:PORT (the server's --admin-port)\n");
        } else if (!conn.last_trace_sampled()) {
          std::printf("last request (trace %s) was not sampled; raise "
                      "--trace-sample\n",
                      mdm::obs::FormatTraceId(conn.last_trace_id()).c_str());
        } else {
          std::string path =
              "/traces/" + mdm::obs::FormatTraceId(conn.last_trace_id());
          auto body = mdm::net::HttpGet(admin_host, admin_port, path,
                                        /*timeout_ms=*/2'000);
          if (body.ok()) {
            std::printf("%s\n", body->c_str());
          } else {
            std::printf("cannot fetch %s from %s: %s\n", path.c_str(),
                        admin_endpoint.c_str(),
                        body.status().ToString().c_str());
          }
        }
      } else if (cmd == "\\save" && parts.size() > 1) {
        mdm::Status s = mdm::er::SaveSnapshot(db, parts[1]);
        std::printf("%s\n", s.ToString().c_str());
      } else if (cmd == "\\load" && parts.size() > 1) {
        auto loaded = mdm::er::LoadSnapshot(parts[1]);
        if (loaded.ok()) {
          db = std::move(*loaded);
          std::printf("OK\n");
        } else {
          std::printf("%s\n", loaded.status().ToString().c_str());
        }
      } else {
        std::printf("unknown command %s (try \\help)\n", cmd.c_str());
      }
      std::printf("mdm> ");
      std::fflush(stdout);
      continue;
    }

    // Accumulate statements; execute on blank line.
    if (!trimmed.empty()) {
      buffer += line + "\n";
      std::printf("...> ");
      std::fflush(stdout);
      continue;
    }
    if (buffer.empty()) {
      std::printf("mdm> ");
      std::fflush(stdout);
      continue;
    }
    // DDL and QUEL alike go through the Connection; remote errors come
    // back code-intact over the wire (common::ErrorCode).
    auto rs = conn.Execute(buffer);
    if (rs.ok()) {
      std::printf("%s", rs->ToString().c_str());
      if (!mdm::StartsWith(
              mdm::AsciiLower(std::string(mdm::StrTrim(buffer))), "define"))
        last_script = buffer;
    } else {
      std::printf("%s\n", rs.status().ToString().c_str());
    }
    buffer.clear();
    std::printf("mdm> ");
    std::fflush(stdout);
  }
  return 0;
}
