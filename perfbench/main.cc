// perfbench: the repository's standing benchmark of the fig-1 music
// data manager. One process runs one workload:
//
//   perfbench --workload <fig1-mix|catalog-remote|edit-journaled>
//             --seed <n> --seconds <s> --trace <0|1>
//
// from the root of a checkout (perfbench/run.py builds and runs it).
// It checks the pinned input digests, sets the system up three times
// (reporting the median set-up time), then runs the workload's clients
// closed loop for --seconds (and at least kMinOps ops), checking every
// reply against the tenant model. --trace 0 times every op for the
// end-to-end metrics; --trace 1 runs half the time untraced and half
// with benchmark-side spans around each layer's entry point, reads the
// program's mdm_* counters as deltas, probes the parse, plan, codec,
// index and ping layers on the ops it sent, and writes the spans as
// Chrome trace JSON. The last stdout line is the result object.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <optional>
#include <shared_mutex>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "bench.h"
#include "common/json.h"
#include "common/strings.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "quel/planner.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using mdm::StrFormat;

constexpr int kSetups = 3;            // set-ups per run; setup_s is their median
constexpr uint64_t kMinOps = 1000;    // so that >= 10 samples lie beyond p99
constexpr int kPinOps = 4096;         // ops per client covered by the pin
constexpr size_t kProbeOps = 400;     // ops replayed through the layer probes
constexpr size_t kMaxTraceEvents = 50'000;  // per trace file
constexpr size_t kSampleReserve = 1 << 20;  // ops per client per phase
constexpr int kMaxDivergenceLog = 8;

const char kPinnedFile[] = "perfbench/pinned.json";
const char kWorkDir[] = ".bench_build/perfbench-work";
const char kTraceDir[] = ".bench_build/perfbench-traces";

uint64_t Ns(Clock::duration d) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

/// Exact order statistic (nearest rank) of unsorted `v`; 0 when empty.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------
// Host diagnostics: recorded beside the metrics, never used to scale
// them.
// ---------------------------------------------------------------------

/// Seconds a fixed integer loop takes: slows when the host does.
double SpinSeconds() {
  const Clock::time_point t0 = Clock::now();
  volatile uint64_t sink = 0;
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 50'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median microseconds of a 4 KiB write + fsync in `dir`.
double FsyncP50Us(const std::string& dir) {
  const std::string path = dir + "/fsync-probe";
  int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0600);
  if (fd < 0) return 0;
  std::vector<double> us;
  char block[4096];
  std::memset(block, 'x', sizeof(block));
  for (int i = 0; i < 21; ++i) {
    const Clock::time_point t0 = Clock::now();
    if (::pwrite(fd, block, sizeof(block), 0) != static_cast<ssize_t>(sizeof(block)) ||
        ::fsync(fd) != 0)
      break;
    us.push_back(static_cast<double>(Ns(Clock::now() - t0)) / 1e3);
  }
  ::close(fd);
  ::unlink(path.c_str());
  return Quantile(us, 0.5);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------
// Pinned inputs
// ---------------------------------------------------------------------

std::string Hex(uint64_t v) { return StrFormat("%016llx", (unsigned long long)v); }

/// Compares the corpus and op-stream digests of the seed pinned in
/// perfbench/pinned.json with the values stored there. Returns "" when
/// they match.
std::string CheckPins(const Workload& w) {
  std::ifstream in(kPinnedFile);
  if (!in) return std::string("cannot read ") + kPinnedFile;
  std::stringstream text;
  text << in.rdbuf();
  mdm::Result<mdm::json::Value> doc = mdm::json::Parse(text.str());
  if (!doc.ok()) return std::string("cannot parse ") + kPinnedFile;
  const mdm::json::Value* seed = doc->Find("seed");
  if (seed == nullptr || !seed->is_number() || seed->AsNumber() < 0)
    return std::string("no pinned seed in ") + kPinnedFile;
  const uint64_t pin_seed = static_cast<uint64_t>(seed->AsNumber());
  const mdm::json::Value* entry = doc->Find(w.name);
  const mdm::json::Value* corpus = entry ? entry->Find("corpus") : nullptr;
  const mdm::json::Value* stream = entry ? entry->Find("stream") : nullptr;
  const std::string want_corpus = corpus && corpus->is_string() ? corpus->AsString() : "";
  const std::string want_stream = stream && stream->is_string() ? stream->AsString() : "";
  const std::string got_corpus = Hex(CorpusDigest(w, pin_seed));
  const std::string got_stream = Hex(StreamDigest(w, pin_seed, w.scores, kPinOps));
  if (got_corpus == want_corpus && got_stream == want_stream) return "";
  return StrFormat("pinned inputs changed for %s: corpus %s (pinned %s), "
                   "stream %s (pinned %s)",
                   w.name, got_corpus.c_str(), want_corpus.c_str(),
                   got_stream.c_str(), want_stream.c_str());
}

// ---------------------------------------------------------------------
// Benchmark-side spans
// ---------------------------------------------------------------------

/// Closed spans of one thread, kept in memory and written at the end.
struct SpanLog {
  Clock::time_point t0;
  std::vector<obs::TraceEvent> events;
  bool truncated = false;

  void Add(const char* name, Clock::time_point start, Clock::time_point end) {
    if (events.size() >= kMaxTraceEvents) {
      truncated = true;
      return;
    }
    events.push_back({name, Ns(start - t0), Ns(end - start), 1});
  }
};

/// Times a call and, when `log` is set, records it as a span.
template <typename F>
uint64_t Timed(SpanLog* log, const char* name, F&& f) {
  const Clock::time_point start = Clock::now();
  f();
  const Clock::time_point end = Clock::now();
  if (log != nullptr) log->Add(name, start, end);
  return Ns(end - start);
}

const char* const kOpSpan[kClasses][2] = {
    {"editor Connection::Execute", "editor Connection::ExecuteBatch"},
    {"analyzer Connection::Execute", "analyzer Connection::ExecuteBatch"},
    {"typesetter Connection::Execute", "typesetter Connection::ExecuteBatch"},
    {"librarian Connection::Execute", "librarian Connection::ExecuteBatch"},
};

// ---------------------------------------------------------------------
// Closed-loop clients
// ---------------------------------------------------------------------

struct Sample {
  int kind = 0;
  float end_s = 0;  // completion, seconds since the phase started
  double ms = 0;
};

/// An op kept for the layer probes: what was sent and what came back.
struct Probe {
  Op op;
  Call call;
  quel::ResultSet result;
};

struct Client {
  Client(mdm::Connection c, OpStream s) : conn(std::move(c)), stream(std::move(s)) {}
  mdm::Connection conn;
  OpStream stream;
  // Per phase:
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rows_out = 0;
  std::vector<std::string> divergences;
  std::vector<Probe> probes;
  SpanLog spans;
};

struct Phase {
  double wall_s = 0;
  double peak_rss_mb = 0;  // read before the phase's samples are merged
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rows_out = 0;
  std::vector<std::string> divergences;

  double throughput() const {
    return Ratio(static_cast<double>(attempted - failed), wall_s);
  }
  std::vector<double> Latencies(int cls) const {
    std::vector<double> v;
    for (const Sample& s : samples)
      if (cls < 0 || ClassOf(s.kind) == cls) v.push_back(s.ms);
    return v;
  }
  /// The median, over consecutive blocks of at least kMinOps ops in
  /// completion order, of each block's exact p99. A block holds at
  /// least 10 samples beyond its p99, and a burst of host noise moves
  /// only the blocks it falls in. With fewer than kMinOps ops, the p99
  /// of all of them.
  double BlockP99() const {
    std::vector<Sample> sorted = samples;
    std::sort(sorted.begin(), sorted.end(),
              [](const Sample& a, const Sample& b) { return a.end_s < b.end_s; });
    const size_t blocks = std::max<size_t>(1, sorted.size() / kMinOps);
    std::vector<double> p99s;
    for (size_t b = 0; b < blocks; ++b) {
      std::vector<double> v;
      for (size_t i = b * sorted.size() / blocks;
           i < (b + 1) * sorted.size() / blocks; ++i)
        v.push_back(sorted[i].ms);
      p99s.push_back(Quantile(v, 0.99));
    }
    return Quantile(p99s, 0.5);
  }
  /// Ops per second in each of `n` equal windows of the phase.
  std::vector<double> WindowRates(int n) const {
    std::vector<double> count(static_cast<size_t>(n), 0);
    for (const Sample& s : samples)
      count[std::min<size_t>(static_cast<size_t>(s.end_s / wall_s * n),
                             static_cast<size_t>(n - 1))] += 1;
    for (double& c : count) c /= wall_s / n;
    return count;
  }
  /// {"<op>": [count, p50 ms, max ms], ...} for the diagnostics line.
  std::string PerOpJson() const {
    std::string out;
    for (int kind = 0; kind < kOpKinds; ++kind) {
      std::vector<double> v;
      for (const Sample& s : samples)
        if (s.kind == kind) v.push_back(s.ms);
      if (v.empty()) continue;
      out += StrFormat("%s\"%s\": [%zu, %.4f, %.4f]", out.empty() ? "" : ", ",
                       OpName(kind), v.size(), Quantile(v, 0.5),
                       Quantile(v, 1.0));
    }
    return "{" + out + "}";
  }
};

/// Runs every client closed loop until `seconds` have passed and at
/// least `min_ops` ops completed (hard stop at 3 x seconds). With
/// `traced`, each op is a span and up to kProbeOps ops are kept.
Phase RunPhase(std::vector<std::unique_ptr<Client>>& clients, Library& lib,
               double seconds, uint64_t min_ops, bool traced) {
  std::atomic<uint64_t> done{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const Clock::time_point hard_stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(3 * seconds));
  const size_t probes_per_client = kProbeOps / clients.size();

  auto body = [&](Client* c) {
    c->samples.clear();
    c->samples.reserve(kSampleReserve);  // no reallocation peaks in peak_rss_mb
    c->attempted = c->failed = c->rows_out = 0;
    c->divergences.clear();
    c->probes.clear();
    c->spans.t0 = start;
    SpanLog* log = traced ? &c->spans : nullptr;
    for (;;) {
      const Clock::time_point now = Clock::now();
      if (now >= hard_stop ||
          (now >= deadline && done.load(std::memory_order_relaxed) >= min_ops))
        break;
      Op op = c->stream.Next();
      Tenant* t = &lib.tenants[static_cast<size_t>(op.tenant)];
      Call call = Render(op, *t);
      const int cls = ClassOf(op.kind);
      Outcome out;
      uint64_t ns = Timed(log, kOpSpan[cls][call.batch ? 1 : 0],
                          [&] { out = Execute(&c->conn, call); });
      std::string bad = Check(op, t, lib, out);
      ++c->attempted;
      done.fetch_add(1, std::memory_order_relaxed);
      c->samples.push_back(
          {op.kind, std::chrono::duration<float>(Clock::now() - start).count(),
           static_cast<double>(ns) / 1e6});
      c->rows_out += out.last.rows.size();
      if (!bad.empty()) {
        ++c->failed;
        if (c->divergences.size() < kMaxDivergenceLog)
          c->divergences.push_back(std::move(bad));
      }
      if (traced && c->probes.size() < probes_per_client)
        c->probes.push_back({op, std::move(call), std::move(out.last)});
    }
  };

  if (clients.size() == 1) {
    body(clients[0].get());
  } else {
    std::vector<std::thread> threads;
    for (auto& c : clients) threads.emplace_back(body, c.get());
    for (std::thread& th : threads) th.join();
  }
  Phase p;
  p.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  p.peak_rss_mb = PeakRssMb();
  for (auto& c : clients) {
    p.samples.insert(p.samples.end(), c->samples.begin(), c->samples.end());
    p.attempted += c->attempted;
    p.failed += c->failed;
    p.rows_out += c->rows_out;
    for (std::string& d : c->divergences) p.divergences.push_back(std::move(d));
  }
  return p;
}

// ---------------------------------------------------------------------
// Layer probes (traced run): each layer's public entry point called on
// the ops the clients sent, after the clients stopped.
// ---------------------------------------------------------------------

struct Probes {
  std::vector<double> parse_us, plan_us, codec_us, index_us, ping_us;
  std::vector<double> remote_us, local_us;
};

void ProbeQuel(er::Database* db, const std::string& script, SpanLog* log,
               Probes* out) {
  std::optional<mdm::Result<std::vector<quel::Statement>>> stmts;
  out->parse_us.push_back(
      Timed(log, "quel::ParseQuel",
            [&] { stmts.emplace(quel::ParseQuel(script)); }) / 1e3);
  if (!stmts->ok()) return;
  std::map<std::string, std::string> ranges;
  uint64_t plan_ns = 0;
  for (const quel::Statement& st : **stmts) {
    if (st.kind == quel::Statement::Kind::kRange) {
      for (const std::string& v : st.range_vars)
        ranges[mdm::AsciiLower(v)] = st.range_type;
      continue;
    }
    if (st.kind == quel::Statement::Kind::kAppend) continue;
    std::shared_lock<std::shared_mutex> latch(db->latch());
    plan_ns += Timed(log, "quel::PlanQuery",
                     [&] { (void)quel::PlanQuery(db, ranges, st, true); });
  }
  if (plan_ns > 0) out->plan_us.push_back(plan_ns / 1e3);
}

void ProbeCodec(const std::string& script, const quel::ResultSet& rs,
                SpanLog* log, Probes* out) {
  out->codec_us.push_back(
      Timed(log, "net codec", [&] {
        net::ExecuteRequest req;
        req.script = script;
        std::vector<uint8_t> wire = net::EncodeFrame(net::EncodeExecuteRequest(req));
        (void)net::DecodeFrame(wire.data(), wire.size());
        quel::ResultSet back;
        for (const net::Frame& page : net::EncodeResultSetPages(rs, 256)) {
          std::vector<uint8_t> bytes = net::EncodeFrame(page);
          mdm::Result<net::Frame> frame = net::DecodeFrame(bytes.data(), bytes.size());
          bool last = false;
          if (frame.ok()) (void)net::DecodeResultPage(*frame, &back, &last);
        }
      }) / 1e3);
}

void ProbeIndex(er::Database* db, const Probe& p, const Tenant& t,
                SpanLog* log, Probes* out) {
  const char* index = p.op.kind == kL1 ? "pb_entry_incipit"
                      : p.op.kind == kL2Number ? "pb_entry_number"
                                               : nullptr;
  if (index == nullptr) return;
  const std::string& key = p.op.kind == kL1 ? t.incipit : t.number;
  std::shared_lock<std::shared_mutex> latch(db->latch());
  const er::AttrIndex* idx = db->FindAttrIndexByName(index);
  if (idx == nullptr) return;
  out->index_us.push_back(Timed(log, "Database::IndexLookup", [&] {
                            (void)db->IndexLookup(*idx, rel::Value::String(key));
                          }) / 1e3);
}

Probes RunProbes(System* sys, std::vector<std::unique_ptr<Client>>& clients,
                 SpanLog* log) {
  Probes out;
  er::Database* db = sys->db();
  mdm::Connection& conn = clients[0]->conn;
  std::unique_ptr<mdm::Connection> local;
  if (sys->workload().remote)
    local = std::make_unique<mdm::Connection>(mdm::Connection::Local(db));
  for (auto& c : clients) {
    for (const Probe& p : c->probes) {
      const Tenant& t = sys->library().tenants[static_cast<size_t>(p.op.tenant)];
      for (const std::string& s : p.call.scripts) ProbeQuel(db, s, log, &out);
      ProbeCodec(p.call.scripts.back(), p.result, log, &out);
      ProbeIndex(db, p, t, log, &out);
      out.ping_us.push_back(
          Timed(log, "Connection::Ping", [&] { (void)conn.Ping(); }) / 1e3);
      // Same read-only script over Remote and over a Local connection
      // onto the server's database.
      if (local && !p.call.batch) {
        out.remote_us.push_back(
            Timed(log, "remote Connection::Execute",
                  [&] { (void)conn.Execute(p.call.scripts[0]); }) / 1e3);
        out.local_us.push_back(
            Timed(log, "local Connection::Execute",
                  [&] { (void)local->Execute(p.call.scripts[0]); }) / 1e3);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += StrFormat("\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                   metrics[i].name, metrics[i].value, metrics[i].unit);
  }
  return s + "}";
}

uint64_t Delta(const std::map<std::string, uint64_t>& before,
               const std::map<std::string, uint64_t>& after,
               const std::string& name) {
  auto a = after.find(name);
  if (a == after.end()) return 0;
  auto b = before.find(name);
  return a->second - (b == before.end() ? 0 : b->second);
}

bool WriteTrace(const std::string& path, const SpanLog& log) {
  obs::Trace trace;
  trace.events = log.events;
  trace.truncated = log.truncated;
  std::ofstream out(path);
  out << obs::RenderTraceEventJson(trace);
  return static_cast<bool>(out);
}

std::string JoinNumbers(const std::vector<double>& v) {
  std::string out;
  for (double x : v) out += StrFormat("%s%.4f", out.empty() ? "" : ", ", x);
  return out;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
      continue;
    }
    errno = 0;
    if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a->trace = static_cast<int>(std::strtol(v, &end, 10));
    } else {
      return false;
    }
    if (errno != 0 || end == v || *end != '\0') return false;
  }
  return argc % 2 == 1 && have_seed && !a->workload.empty() &&
         a->seconds > 0 && a->seconds <= 60 && (a->trace == 0 || a->trace == 1);
}

int Run(const Args& args) {
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const std::string work = StrFormat("%s/%d", kWorkDir, static_cast<int>(::getpid()));
  std::error_code ec;
  std::filesystem::create_directories(work, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", work.c_str());
    return 1;
  }
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code e;
      std::filesystem::remove_all(dir, e);
    }
  } cleanup{work};

  std::string pin_error = CheckPins(*w);
  if (!pin_error.empty()) std::fprintf(stderr, "perfbench: %s\n", pin_error.c_str());
  const double fsync_p50_us = FsyncP50Us(work);

  // Set-up, kSetups times; the last system is the one measured.
  std::unique_ptr<System> sys;
  std::vector<double> setup_s, generate_s, import_s, index_s, checkpoint_s;
  for (int i = 0; i < kSetups; ++i) {
    sys.reset();
    mdm::Result<std::unique_ptr<System>> r =
        SetUp(*w, args.seed, StrFormat("%s/setup%d", work.c_str(), i));
    if (!r.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    sys = *std::move(r);
    const SetupTimes& t = sys->times();
    setup_s.push_back(t.total_s);
    generate_s.push_back(t.generate_s);
    import_s.push_back(t.import_s);
    index_s.push_back(t.index_s);
    checkpoint_s.push_back(t.checkpoint_s);
  }
  Library& lib = sys->library();

  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < w->clients; ++c) {
    mdm::Result<mdm::Connection> conn = sys->Connect();
    if (!conn.ok()) {
      std::fprintf(stderr, "perfbench: connect failed: %s\n",
                   conn.status().ToString().c_str());
      return 1;
    }
    clients.push_back(std::make_unique<Client>(
        *std::move(conn), OpStream(*w, args.seed, c, w->scores)));
  }

  const double spin_before_s = SpinSeconds();
  Phase untraced = RunPhase(clients, lib,
                            args.trace ? args.seconds / 2 : args.seconds,
                            args.trace ? 0 : kMinOps, false);
  Phase traced;
  std::map<std::string, uint64_t> before, after;
  if (args.trace) {
    before = obs::Registry::Global()->CounterValues();
    traced = RunPhase(clients, lib, args.seconds / 2, 0, true);
    after = obs::Registry::Global()->CounterValues();
  }
  const double spin_after_s = SpinSeconds();

  const Phase& measured = args.trace ? traced : untraced;
  const uint64_t attempted = untraced.attempted + traced.attempted;
  const uint64_t failed = untraced.failed + traced.failed;
  for (const Phase* p : {&untraced, &traced})
    for (const std::string& d : p->divergences)
      std::fprintf(stderr, "perfbench: divergence: %s\n", d.c_str());

  std::vector<Metric> metrics;
  const double ops = static_cast<double>(measured.attempted);
  if (!args.trace) {
    metrics = {
        {"throughput_ops_s", measured.throughput(), "1/s"},
        {"p99_ms", measured.BlockP99(), "ms"},
        {"librarian_p50_ms", Quantile(measured.Latencies(kLibrarian), 0.5), "ms"},
        {"setup_s", Quantile(setup_s, 0.5), "s"},
        {"peak_rss_mb", measured.peak_rss_mb, "MB"},
    };
  } else {
    SpanLog probe_log;
    probe_log.t0 = Clock::now();
    Probes probes = RunProbes(sys.get(), clients, &probe_log);
    auto d = [&](const char* name) {
      return static_cast<double>(Delta(before, after, name));
    };
    const double rows_scanned = d("mdm_quel_rows_scanned_total");
    const double commits = d("mdm_wal_commits_total");
    const double rebuild_ns =
        d("mdm_span_self_ns_total{span=\"er.interval_rebuild\"}");
    const double client_ns = traced.wall_s * 1e9 * static_cast<double>(clients.size());
    metrics = {
        {"quel.parse_us", Quantile(probes.parse_us, 0.5), "us"},
        {"quel.plan_us", Quantile(probes.plan_us, 0.5), "us"},
        {"quel.exec_ms.editor", Mean(traced.Latencies(kEditor)), "ms"},
        {"quel.exec_ms.analyzer", Mean(traced.Latencies(kAnalyzer)), "ms"},
        {"quel.exec_ms.typesetter", Mean(traced.Latencies(kTypesetter)), "ms"},
        {"quel.exec_ms.librarian", Mean(traced.Latencies(kLibrarian)), "ms"},
        {"quel.rows_scanned_per_op", Ratio(rows_scanned, ops), "rows/op"},
        {"quel.rows_scanned_per_row_out",
         Ratio(rows_scanned, static_cast<double>(traced.rows_out)), "rows/row"},
        {"quel.parse_cache_hit_ratio",
         Ratio(d("mdm_quel_parse_cache_hits_total"),
               d("mdm_quel_statements_total")), "ratio"},
        {"er.interval_rebuilds_per_op",
         Ratio(d("mdm_er_interval_rebuilds_total"), ops), "1/op"},
        {"er.interval_rebuild_share", Ratio(rebuild_ns, client_ns), "ratio"},
        {"er.snapshot_pin_fallbacks_per_op",
         Ratio(d("mdm_er_snapshot_pin_fallbacks_total"), ops), "1/op"},
        {"er.index_snapshot_fallbacks_per_op",
         Ratio(d("mdm_index_snapshot_fallbacks_total"), ops), "1/op"},
        {"er.index_lookup_us", Quantile(probes.index_us, 0.5), "us"},
        {"wal.bytes_per_commit", Ratio(d("mdm_wal_bytes_total"), commits), "B/commit"},
        {"wal.commits_per_fsync",
         Ratio(commits, d("mdm_wal_group_commits_total")), "commits/fsync"},
        {"net.ping_us", Quantile(probes.ping_us, 0.5), "us"},
        {"net.codec_us", Quantile(probes.codec_us, 0.5), "us"},
        {"net.remote_minus_local_us",
         probes.remote_us.empty()
             ? 0
             : Quantile(probes.remote_us, 0.5) - Quantile(probes.local_us, 0.5),
         "us"},
        {"net.bytes_per_op",
         Ratio(d("mdm_net_bytes_in_total") + d("mdm_net_bytes_out_total"), ops),
         "B/op"},
        {"net.retries", d("mdm_net_client_retries_total"), "count"},
        {"net.shed", d("mdm_net_shed_total"), "count"},
        {"corpus.generate_s", Quantile(generate_s, 0.5), "s"},
        {"darms.import_s", Quantile(import_s, 0.5), "s"},
        {"ddl.index_s", Quantile(index_s, 0.5), "s"},
        {"persist.checkpoint_s", Quantile(checkpoint_s, 0.5), "s"},
        {"obs.trace_overhead",
         Ratio(traced.throughput(), untraced.throughput()), "ratio"},
        {"editor_p50_ms", Quantile(traced.Latencies(kEditor), 0.5), "ms"},
        {"analyzer_p50_ms", Quantile(traced.Latencies(kAnalyzer), 0.5), "ms"},
        {"typesetter_p50_ms", Quantile(traced.Latencies(kTypesetter), 0.5), "ms"},
        {"error_rate",
         Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
         "ratio"},
    };

    // Spans: one Chrome trace file per thread.
    std::filesystem::create_directories(kTraceDir, ec);
    const std::string stem = StrFormat("%s/%s-seed%llu", kTraceDir, w->name,
                                       (unsigned long long)args.seed);
    bool wrote = WriteTrace(stem + "-probes.json", probe_log);
    for (size_t c = 0; c < clients.size(); ++c)
      wrote = WriteTrace(StrFormat("%s-client%zu.json", stem.c_str(), c),
                         clients[c]->spans) && wrote;
    std::fprintf(stderr, "perfbench: trace %s %s-*.json\n",
                 wrote ? "written to" : "FAILED at", stem.c_str());
  }

  // Diagnostics line, then the result line.
  std::printf(
      "{\"diagnostics\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"trace\": %d, \"corpus_digest\": \"%s\", \"stream_digest\": \"%s\", "
      "\"pinned_inputs_match\": %s, \"notes\": %lld, \"timed_ops\": %llu, "
      "\"timed_wall_s\": %.4f, \"spin_before_s\": %.4f, "
      "\"spin_after_s\": %.4f, \"fsync_p50_us\": %.1f, "
      "\"setup_s_each\": [%s], \"p99_all_ms\": %.4f, \"ops\": %s, "
      "\"windows\": [%s]}}\n",
      w->name, (unsigned long long)args.seed, args.trace,
      Hex(sys->corpus_digest()).c_str(),
      Hex(StreamDigest(*w, args.seed, w->scores, kPinOps)).c_str(),
      pin_error.empty() ? "true" : "false", (long long)lib.notes,
      (unsigned long long)measured.attempted, measured.wall_s, spin_before_s,
      spin_after_s, fsync_p50_us, JoinNumbers(setup_s).c_str(),
      Quantile(measured.Latencies(-1), 0.99), measured.PerOpJson().c_str(),
      JoinNumbers(measured.WindowRates(10)).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 && pin_error.empty() ? "true" : "false",
              (unsigned long long)attempted, (unsigned long long)failed,
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <1..60> --trace <0|1>\n");
    return 2;
  }
  return perfbench::Run(args);
}
