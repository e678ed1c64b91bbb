// Fig 1, at scale: the standing macro-benchmark.
//
// The paper's architecture diagram (fig 1) puts one music data manager
// between editors, analysts, typesetters and the thematic-index
// librarians. The micro benches regenerate each figure in isolation;
// this binary replays the whole picture: a seeded corpus of synthetic
// DARMS scores (10^6 notes across 10^3 scores at full scale) is loaded
// through the real importer, then the fig-1 client mix runs against it
// — per-tenant, deterministic, optionally oracle-checked — first over
// in-process connections, then over the mdmd wire protocol.
//
// Flags:
//   --smoke        small preset (~10^4 notes), used by ctest/CI tier 1
//   --oracle       cross-check every op + periodic battery (default in
//                  --smoke; full scale runs open-loop by default)
//   --bulk-index=off   load with incremental per-insert index upkeep
//                  instead of bulk build + one rebuild (the ablation
//                  that reproduces the 10^5 -> 10^6 load slowdown)
//   --ablation     after the phases, load the corpus twice more (bulk
//                  on, bulk off) and emit the pair as BENCH_JSON;
//                  implied by --smoke
//   --scores=N --notes=N --threads=N --ops=N --seed=N  override scale
//   --help         print this flag list and exit; any unknown flag
//                  prints it and exits 2 (a typo never starts the
//                  full-scale run)
//
// Output: one BENCH_JSON line per phase (load, local, remote) with
// per-class qps/p50/p99. See docs/WORKLOADS.md.
#include <chrono>
#include <memory>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "corpus/generator.h"
#include "corpus/loader.h"
#include "net/connection.h"
#include "net/server.h"
#include "workload/driver.h"

namespace {

using mdm::Connection;
using mdm::Result;

struct Options {
  bool smoke = false;
  bool oracle = false;
  bool bulk_index = true;
  bool ablation = false;
  int scores = 1000;
  long long notes = 1'000'000;
  int threads = 8;
  int ops_per_tenant = 4;
  uint64_t seed = 42;
};

bool ParseIntFlag(const char* arg, const char* name, long long* out) {
  size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = std::atoll(arg + n + 1);
  return true;
}

constexpr const char kUsage[] =
    "usage: bench_fig01_macro [--smoke] [--oracle] [--bulk-index=on|off]\n"
    "                         [--ablation] [--scores=N] [--notes=N]\n"
    "                         [--threads=N] [--ops=N] [--seed=N] [--help]\n"
    "  --smoke        small preset (~10^4 notes), oracle on\n"
    "  --oracle       cross-check every op + periodic battery\n"
    "  --bulk-index=off  incremental index upkeep during the load\n"
    "  --ablation     also load bulk on/off and emit the pair\n"
    "  --scores/--notes/--threads/--ops/--seed  override the scale\n"
    "Without flags: the full 10^6-note run (minutes).\n";

/// Parses the flags into `o`. Returns false after printing the usage
/// for --help (exit 0) or an unknown flag (exit 2, via *exit_code).
bool ParseOptions(int argc, char** argv, Options* out, int* exit_code) {
  Options& o = *out;
  for (int i = 1; i < argc; ++i) {
    long long v = 0;
    if (std::strcmp(argv[i], "--help") == 0) {
      std::fputs(kUsage, stdout);
      *exit_code = 0;
      return false;
    } else if (std::strcmp(argv[i], "--oracle") == 0)
      o.oracle = true;
    else if (std::strcmp(argv[i], "--bulk-index=off") == 0)
      o.bulk_index = false;
    else if (std::strcmp(argv[i], "--bulk-index=on") == 0)
      o.bulk_index = true;
    else if (std::strcmp(argv[i], "--ablation") == 0)
      o.ablation = true;
    else if (ParseIntFlag(argv[i], "--scores", &v))
      o.scores = static_cast<int>(v);
    else if (ParseIntFlag(argv[i], "--notes", &v))
      o.notes = v;
    else if (ParseIntFlag(argv[i], "--threads", &v))
      o.threads = static_cast<int>(v);
    else if (ParseIntFlag(argv[i], "--ops", &v))
      o.ops_per_tenant = static_cast<int>(v);
    else if (ParseIntFlag(argv[i], "--seed", &v))
      o.seed = static_cast<uint64_t>(v);
    else {
      std::fprintf(stderr, "unknown flag %s\n%s", argv[i], kUsage);
      *exit_code = 2;
      return false;
    }
  }
  return true;
}

void PrintClassJson(std::string* out, const mdm::workload::Report& r) {
  for (int c = 0; c < mdm::workload::kClassCount; ++c) {
    const auto& cs = r.per_class[c];
    const char* name =
        mdm::workload::ClassName(static_cast<mdm::workload::ClientClass>(c));
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  ", \"%s_ops\": %llu, \"%s_errors\": %llu, "
                  "\"%s_qps\": %.1f, \"%s_p50_us\": %.1f, "
                  "\"%s_p99_us\": %.1f",
                  name, (unsigned long long)cs.ops, name,
                  (unsigned long long)cs.errors, name, cs.qps, name,
                  cs.p50_us, name, cs.p99_us);
    *out += buf;
  }
}

/// Runs the fig-1 mix through `factory`-made connections and prints the
/// per-phase BENCH_JSON line. Returns false on divergence or setup
/// failure.
bool RunPhase(const char* phase, const Options& o,
              mdm::corpus::Corpus* corpus,
              const mdm::workload::ConnectionFactory& factory) {
  mdm::workload::WorkloadSpec spec;
  spec.seed = o.seed;
  spec.threads = o.threads;
  spec.ops_per_tenant = o.ops_per_tenant;
  spec.oracle_every = (o.oracle || o.smoke) ? 8 : 0;
  auto report = mdm::workload::RunWorkload(spec, corpus, factory);
  if (!report.ok()) {
    std::printf("%s phase failed: %s\n", phase,
                report.status().message().c_str());
    return false;
  }
  std::printf(
      "%s: %llu ops in %.2fs (%.0f ops/s), %llu errors, "
      "%llu oracle checks, %llu divergences\n",
      phase, (unsigned long long)report->total_ops, report->wall_seconds,
      report->wall_seconds > 0
          ? static_cast<double>(report->total_ops) / report->wall_seconds
          : 0.0,
      (unsigned long long)report->total_errors,
      (unsigned long long)report->oracle_checks,
      (unsigned long long)report->oracle_divergences);
  for (const std::string& d : report->divergences)
    std::printf("  divergence: %s\n", d.c_str());
  std::string classes;
  PrintClassJson(&classes, *report);
  std::printf(
      "BENCH_JSON {\"bench\": \"fig01_macro_%s\", \"smoke\": %s, "
      "\"scores\": %d, \"threads\": %d, \"ops_per_tenant\": %d, "
      "\"total_ops\": %llu, \"total_errors\": %llu, "
      "\"oracle_checks\": %llu, \"oracle_divergences\": %llu, "
      "\"op_log_hash\": \"%016llx\", \"wall_seconds\": %.3f%s}\n",
      phase, o.smoke ? "true" : "false", o.scores, o.threads,
      o.ops_per_tenant, (unsigned long long)report->total_ops,
      (unsigned long long)report->total_errors,
      (unsigned long long)report->oracle_checks,
      (unsigned long long)report->oracle_divergences,
      (unsigned long long)report->op_log_hash, report->wall_seconds,
      classes.c_str());
  return report->total_errors == 0 && report->oracle_divergences == 0;
}

/// Builds a fresh database, loads the corpus into it (emitting the
/// load BENCH_JSON line tagged with the phase), and returns the corpus.
/// Each phase gets its own database: the editors mutate what they are
/// measured against, so sharing one db across phases would leave the
/// second phase's oracle staring at the first phase's appends.
struct LoadedDb {
  std::unique_ptr<mdm::er::Database> db;
  mdm::corpus::Corpus corpus;
};

bool LoadPhaseDb(const char* phase, const Options& o, LoadedDb* out) {
  out->db = std::make_unique<mdm::er::Database>();
  mdm::corpus::LoadOptions load;
  load.spec.seed = o.seed;
  load.spec.scores = o.scores;
  load.spec.target_total_notes = o.notes;
  load.bulk_index_build = o.bulk_index;
  int report_every = o.scores > 20 ? o.scores / 10 : o.scores;
  load.progress = [report_every](int done, long long notes) {
    if (done % report_every == 0)
      std::printf("  loaded %d scores, %lld notes\n", done, notes);
  };
  mdm::bench::MetricsSection load_metrics;
  auto t0 = std::chrono::steady_clock::now();
  auto corpus = mdm::corpus::LoadCorpus(out->db.get(), load);
  double load_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!corpus.ok()) {
    std::printf("corpus load failed: %s\n", corpus.status().message().c_str());
    return false;
  }
  double notes_per_s =
      load_s > 0 ? static_cast<double>(corpus->total_notes) / load_s : 0;
  std::printf(
      "corpus for %s phase: %zu scores, %lld notes, %lld measures in "
      "%.2fs (%.0f notes/s)\n",
      phase, corpus->tenants.size(), (long long)corpus->total_notes,
      (long long)corpus->total_measures, load_s, notes_per_s);
  std::printf(
      "BENCH_JSON {\"bench\": \"fig01_macro_load\", \"phase\": \"%s\", "
      "\"smoke\": %s, \"bulk_index\": %s, \"scores\": %zu, "
      "\"notes\": %lld, \"measures\": %lld, \"seconds\": %.3f, "
      "\"notes_per_second\": %.0f%s}\n",
      phase, o.smoke ? "true" : "false", o.bulk_index ? "true" : "false",
      corpus->tenants.size(), (long long)corpus->total_notes,
      (long long)corpus->total_measures, load_s, notes_per_s,
      load_metrics.DeltaJsonSuffix().c_str());
  out->corpus = *std::move(corpus);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = mdm::bench::ConsumeSmokeFlag(&argc, argv);
  Options o;
  int exit_code = 0;
  if (!ParseOptions(argc, argv, &o, &exit_code)) return exit_code;
  o.smoke = smoke;
  if (smoke) {
    // The tier-1/CI preset: ~10^4 notes across 20 scores, oracle on.
    o.scores = 20;
    o.notes = 10'000;
    o.threads = 4;
    o.ops_per_tenant = 8;
  }
  mdm::bench::PrintHeader(
      "Fig 1 macro — the music data manager under the full client mix",
      "fig 1 end to end: editors, analysts, typesetters and librarians "
      "against one shared MDM, at corpus scale");

  // Phase 1: corpus load + the client mix over in-process connections.
  LoadedDb local_db;
  if (!LoadPhaseDb("local", o, &local_db)) return 1;
  bool ok = RunPhase("local", o, &local_db.corpus,
                     [&local_db] {
                       return Result<Connection>(
                           Connection::Local(local_db.db.get()));
                     });
  local_db.db.reset();

  // Phase 2: a fresh load, the same mix over the mdmd wire protocol.
  // Same workload seed + fresh identically-seeded corpus, so the op-log
  // hash must match the local phase's — a transport-parity check.
  LoadedDb remote_db;
  if (!LoadPhaseDb("remote", o, &remote_db)) return 1;
  mdm::net::Server server(remote_db.db.get());
  if (!server.Start().ok()) {
    std::printf("cannot start mdmd server\n");
    return 1;
  }
  const uint16_t port = server.port();
  // At corpus scale a scan-bound op can queue for minutes behind the db
  // latch; the server's 30s interactive default deadline would reject
  // the reply *after* a mutation applied (which the oracle then flags).
  // A client-sent deadline overrides it per request, and mutations are
  // never retried, so a 10-minute budget is safe.
  mdm::net::ClientOptions remote_opts;
  remote_opts.deadline_ms = 600'000;
  ok = RunPhase("remote", o, &remote_db.corpus,
                [port, remote_opts] {
                  return Connection::Remote("127.0.0.1", port, remote_opts);
                }) &&
       ok;
  server.Stop();
  remote_db.db.reset();

  // Ablation: load the same corpus with bulk index build on vs off.
  // With incremental upkeep every insert pays per-index tree
  // maintenance, which is exactly the 10^5 -> 10^6 slowdown the bulk
  // path removes — the BENCH_JSON pair quantifies it.
  if (o.ablation || o.smoke) {
    for (bool bulk : {true, false}) {
      Options ab = o;
      ab.bulk_index = bulk;
      LoadedDb db;
      if (!LoadPhaseDb(bulk ? "ablate_bulk_on" : "ablate_bulk_off", ab, &db))
        return 1;
    }
  }
  return ok ? 0 : 1;
}
