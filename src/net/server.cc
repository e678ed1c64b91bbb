#include "net/server.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "net/connection.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace mdm::net {

namespace {

/// Connection threads and the accept loop wake at this cadence to
/// notice Stop(); it bounds drain latency, not request latency.
constexpr int kPollMs = 100;

uint64_t ElapsedMs(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

uint64_t ElapsedUs(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// Numeric "ip:port" of the connected peer, for /statusz attribution.
std::string PeerString(int fd) {
  struct sockaddr_storage ss = {};
  socklen_t len = sizeof(ss);
  if (::getpeername(fd, reinterpret_cast<struct sockaddr*>(&ss), &len) != 0)
    return "?";
  char host[NI_MAXHOST];
  char serv[NI_MAXSERV];
  if (::getnameinfo(reinterpret_cast<struct sockaddr*>(&ss), len, host,
                    sizeof(host), serv, sizeof(serv),
                    NI_NUMERICHOST | NI_NUMERICSERV) != 0)
    return "?";
  return std::string(host) + ":" + serv;
}

}  // namespace

Server::Server(er::Database* db, ServerOptions opts)
    : db_(db),
      opts_(std::move(opts)),
      requests_total_(obs::Registry::Global()->GetCounter(
          "mdm_net_requests_total", "Execute requests answered by mdmd")),
      rejected_total_(obs::Registry::Global()->GetCounter(
          "mdm_net_rejected_total",
          "Connections rejected at the admission limit")),
      bytes_in_total_(obs::Registry::Global()->GetCounter(
          "mdm_net_bytes_in_total", "Frame bytes received by mdmd")),
      bytes_out_total_(obs::Registry::Global()->GetCounter(
          "mdm_net_bytes_out_total", "Frame bytes sent by mdmd")),
      active_connections_(obs::Registry::Global()->GetGauge(
          "mdm_net_active_connections", "Currently serving connections")),
      request_span_duration_(obs::Registry::Global()->GetHistogram(
          "mdm_span_duration_ns{span=\"net.request\"}",
          "Inclusive span latency in nanoseconds")),
      request_span_self_(obs::Registry::Global()->GetCounter(
          "mdm_span_self_ns_total{span=\"net.request\"}",
          "Span latency excluding child spans")),
      shed_total_(obs::Registry::Global()->GetCounter(
          "mdm_net_shed_total",
          "Execute requests answered UNAVAILABLE by the load shedder")),
      reaped_idle_total_(obs::Registry::Global()->GetCounter(
          "mdm_net_reaped_idle_total",
          "Connections dropped by the idle reaper")),
      handshake_timeouts_total_(obs::Registry::Global()->GetCounter(
          "mdm_net_handshake_timeouts_total",
          "Connections dropped for a slow handshake or a mid-frame stall")),
      write_timeouts_total_(obs::Registry::Global()->GetCounter(
          "mdm_net_write_timeouts_total",
          "Connections dropped because the peer stopped reading")) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_.exchange(true))
    return FailedPrecondition("server already started");
  struct addrinfo hints = {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  struct addrinfo* addrs = nullptr;
  std::string port_str = std::to_string(opts_.port);
  int rc = ::getaddrinfo(opts_.host.c_str(), port_str.c_str(), &hints,
                         &addrs);
  if (rc != 0)
    return Unavailable("cannot resolve " + opts_.host + ": " +
                       gai_strerror(rc));
  Status last = Unavailable("no addresses for " + opts_.host);
  for (struct addrinfo* a = addrs; a != nullptr; a = a->ai_next) {
    int fd = ::socket(a->ai_family, a->ai_socktype, a->ai_protocol);
    if (fd < 0) continue;
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, a->ai_addr, a->ai_addrlen) == 0 &&
        ::listen(fd, 128) == 0) {
      listen_fd_ = fd;
      break;
    }
    last = Unavailable("cannot bind " + opts_.host + ":" + port_str + ": " +
                       std::strerror(errno));
    ::close(fd);
  }
  ::freeaddrinfo(addrs);
  if (listen_fd_ < 0) return last;

  // Resolve the bound port (meaningful when opts_.port was 0).
  struct sockaddr_storage bound = {};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound),
                    &len) == 0) {
    if (bound.ss_family == AF_INET) {
      port_ = ntohs(reinterpret_cast<struct sockaddr_in*>(&bound)->sin_port);
    } else if (bound.ss_family == AF_INET6) {
      port_ =
          ntohs(reinterpret_cast<struct sockaddr_in6*>(&bound)->sin6_port);
    }
  }
  started_at_ = std::chrono::steady_clock::now();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

uint64_t Server::uptime_ms() const {
  if (started_at_ == std::chrono::steady_clock::time_point{}) return 0;
  return ElapsedMs(started_at_);
}

std::vector<ConnectionStatus> Server::ConnectionStatuses() const {
  std::vector<std::pair<uint64_t, std::shared_ptr<ConnState>>> snapshot;
  {
    std::lock_guard<std::mutex> lock(states_mu_);
    snapshot.assign(states_.begin(), states_.end());
  }
  std::vector<ConnectionStatus> out;
  out.reserve(snapshot.size());
  for (const auto& [id, state] : snapshot) {
    ConnectionStatus cs;
    cs.id = id;
    cs.peer = state->peer;
    cs.age_ms = ElapsedMs(state->connected_at);
    cs.requests = state->requests.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(state->mu);
      if (!state->statement.empty()) {
        cs.executing = true;
        cs.statement = state->statement;
        cs.statement_age_ms = ElapsedMs(state->stmt_start);
      }
    }
    out.push_back(std::move(cs));
  }
  std::sort(out.begin(), out.end(),
            [](const ConnectionStatus& a, const ConnectionStatus& b) {
              return a.id < b.id;
            });
  return out;
}

void Server::Stop() {
  // Not started, or another Stop already owns the drain: the joins
  // below must run exactly once.
  if (!started_.load() || stop_.exchange(true)) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Drain: connection threads notice stop_ at their next poll tick,
  // finish any request in flight, respond, and exit.
  for (;;) {
    std::unordered_map<uint64_t, std::thread> remaining;
    {
      std::lock_guard<std::mutex> lock(mu_);
      remaining.swap(conns_);
      finished_.clear();
    }
    if (remaining.empty()) break;
    for (auto& [id, t] : remaining)
      if (t.joinable()) t.join();
  }
}

void Server::ReapFinished() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (uint64_t id : finished_) {
      auto it = conns_.find(id);
      if (it != conns_.end()) {
        done.push_back(std::move(it->second));
        conns_.erase(it);
      }
    }
    finished_.clear();
  }
  for (std::thread& t : done)
    if (t.joinable()) t.join();
}

void Server::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    struct pollfd pfd = {listen_fd_, POLLIN, 0};
    int pr = ::poll(&pfd, 1, kPollMs);
    if (pr <= 0) {
      ReapFinished();
      continue;
    }
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (active_.load(std::memory_order_relaxed) >= opts_.max_connections) {
      // Graceful backpressure: answer the admission ping (or whatever
      // arrives first) with RESOURCE_EXHAUSTED, then close.
      rejected_total_->Inc();
      Status reject_status = ResourceExhausted(
          "server at its limit of " +
          std::to_string(opts_.max_connections) + " connections");
      reject_status.set_retry_after_ms(opts_.shed_retry_after_ms);
      Frame reject = EncodeErrorFrame(reject_status);
      (void)WriteFrame(fd, reject);
      ::close(fd);
      continue;
    }
    active_.fetch_add(1, std::memory_order_relaxed);
    active_connections_->Add(1);
    uint64_t id;
    {
      std::lock_guard<std::mutex> lock(mu_);
      id = next_conn_id_++;
      conns_.emplace(id, std::thread([this, id, fd] {
                       ServeConnection(id, fd);
                     }));
    }
    ReapFinished();
  }
}

void Server::ServeConnection(uint64_t id, int fd) {
  std::unique_ptr<Transport> t = opts_.transport_factory
                                     ? opts_.transport_factory(fd)
                                     : std::make_unique<TcpTransport>(fd);
  // Self-protection at the socket: a peer that stalls mid-frame trips
  // the recv timeout (slow-loris can't hold the thread), and a peer
  // that stops reading its pages trips the send timeout.
  if (opts_.handshake_timeout_ms != 0)
    (void)t->SetRecvTimeout(opts_.handshake_timeout_ms);
  if (opts_.write_timeout_ms != 0)
    (void)t->SetSendTimeout(opts_.write_timeout_ms);

  // Sends an error/pong/page frame, counting write timeouts; false
  // means the connection is unusable and the loop must exit.
  auto send_frame = [&](const Frame& f) {
    Status ws = WriteFrame(t.get(), f);
    if (ws.ok()) {
      // Counted only once the frame is actually on the wire — a write
      // timeout or dead peer must not inflate bytes-out.
      bytes_out_total_->Inc(kFrameHeaderBytes + f.payload.size());
      return true;
    }
    if (ws.code() == StatusCode::kDeadlineExceeded) {
      write_timeouts_total_->Inc();
      reaped_.fetch_add(1, std::memory_order_relaxed);
    }
    return false;
  };

  // Live status row for /statusz.
  auto state = std::make_shared<ConnState>();
  state->peer = PeerString(fd);
  state->connected_at = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(states_mu_);
    states_.emplace(id, state);
  }

  // One QUEL session per connection: its plan cache and declared
  // ranges live as long as the client stays connected, mirroring an
  // in-process QuelSession per client thread.
  quel::QuelSession session(db_);
  // Per-loop actuals cost two clock reads per loop entry; pay them
  // only when a slow-query log wants the attribution.
  if (opts_.slow_query_log != nullptr) session.set_collect_actuals(true);
  bool saw_frame = false;  // handshake allowance until the first frame
  auto last_activity = std::chrono::steady_clock::now();
  while (true) {
    if (t->closed()) break;
    // Wait for the next request, waking periodically to honor drain and
    // the idle/handshake allowances.
    struct pollfd pfd = {t->fd(), POLLIN, 0};
    int pr = ::poll(&pfd, 1, kPollMs);
    if (pr == 0) {
      if (stop_.load(std::memory_order_relaxed)) break;
      uint64_t allowance =
          saw_frame ? opts_.idle_timeout_ms : opts_.handshake_timeout_ms;
      if (allowance != 0 && ElapsedMs(last_activity) > allowance) {
        (saw_frame ? reaped_idle_total_ : handshake_timeouts_total_)->Inc();
        reaped_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      continue;
    }
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    bool fatal = false;
    Result<Frame> frame =
        ReadFrame(t.get(), opts_.max_frame_bytes, &fatal);
    auto t0 = std::chrono::steady_clock::now();
    last_activity = t0;
    if (!frame.ok()) {
      if (fatal) {
        // A recv-timeout here is a mid-frame stall: the header arrived
        // but the rest never did (slow-loris with a drip feed).
        if (frame.status().code() == StatusCode::kDeadlineExceeded) {
          handshake_timeouts_total_->Inc();
          reaped_.fetch_add(1, std::memory_order_relaxed);
        }
        break;  // framing lost or peer gone: drop the link
      }
      // Framing intact: report the typed error and keep serving.
      if (!send_frame(EncodeErrorFrame(frame.status()))) break;
      continue;
    }
    saw_frame = true;
    bytes_in_total_->Inc(kFrameHeaderBytes + frame->payload.size());
    if (frame->type == FrameType::kPing) {
      Frame pong;
      pong.type = FrameType::kPong;
      if (!send_frame(pong)) break;
      continue;
    }
    if (frame->type != FrameType::kExecuteRequest &&
        frame->type != FrameType::kBatchExecuteRequest) {
      Frame err = EncodeErrorFrame(
          InvalidArgument("unexpected frame type " +
                          std::to_string(static_cast<int>(frame->type))));
      if (!send_frame(err)) break;
      continue;
    }

    // Load shedding: past the high-water mark of statements already
    // holding (or queueing on) the database latch, answer UNAVAILABLE
    // with a backoff hint instead of deepening the convoy. A batch
    // counts as one unit — it holds the latch once, like one statement.
    size_t in_flight = active_statements_.fetch_add(1) + 1;
    if (opts_.max_active_statements != 0 &&
        in_flight > opts_.max_active_statements) {
      active_statements_.fetch_sub(1);
      shed_total_->Inc();
      shed_.fetch_add(1, std::memory_order_relaxed);
      Status shed = Unavailable(
          "server overloaded: " +
          std::to_string(opts_.max_active_statements) +
          " statements already in flight");
      shed.set_retry_after_ms(opts_.shed_retry_after_ms);
      if (!send_frame(EncodeErrorFrame(shed))) break;
      continue;
    }

    if (frame->type == FrameType::kBatchExecuteRequest) {
      // One batch = one latch acquisition + one group-committed WAL
      // transaction server-side (RunBatch in net/connection.cc). The
      // reply is a kBatchStatus frame, then — iff every statement
      // succeeded — the last statement's ResultSet as ordinary pages.
      Result<BatchExecuteRequest> breq = DecodeBatchExecuteRequest(*frame);
      Status finished = Status::OK();
      bool write_ok = true;
      if (!breq.ok()) {
        finished = breq.status();
      } else {
        {
          std::lock_guard<std::mutex> lock(state->mu);
          state->statement =
              "batch of " + std::to_string(breq->scripts.size()) +
              " statement(s)";
          if (!breq->scripts.empty()) {
            const std::string& first = breq->scripts.front();
            state->statement +=
                ": " + (first.size() > 120 ? first.substr(0, 120) + "..."
                                           : first);
          }
          state->stmt_start = std::chrono::steady_clock::now();
        }
        uint32_t deadline_ms = breq->deadline_ms != 0
                                   ? breq->deadline_ms
                                   : opts_.default_deadline_ms;
        {
          // The whole batch is one trace and one net.request span.
          obs::TraceContext trace_ctx(
              breq->trace_id, breq->trace_sampled && breq->trace_id != 0);
          obs::Span span("net.request", request_span_duration_,
                         request_span_self_);
          Result<BatchResult> br = RunBatch(db_, &session, breq->scripts);
          if (!br.ok()) {
            finished = br.status();
          } else if (deadline_ms != 0 && ElapsedMs(t0) > deadline_ms) {
            finished = DeadlineExceeded(
                "batch exceeded its " + std::to_string(deadline_ms) +
                "ms deadline after execution");
          } else if (!send_frame(EncodeBatchStatus(*br))) {
            write_ok = false;
          } else if (br->all_ok()) {
            for (Frame& page :
                 EncodeResultSetPages(br->last, opts_.rows_per_page)) {
              if (deadline_ms != 0 && ElapsedMs(t0) > deadline_ms) {
                finished = DeadlineExceeded(
                    "batch exceeded its " + std::to_string(deadline_ms) +
                    "ms deadline while streaming results");
                break;
              }
              if (!send_frame(page)) {
                write_ok = false;
                break;
              }
            }
          }
        }
        state->requests.fetch_add(1, std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> lock(state->mu);
          state->statement.clear();
        }
        // Clear the per-statement actuals so a batch's loops can never
        // attach to a later slow single statement. Batches are not
        // slow-query logged — there is no single script to attribute.
        if (opts_.slow_query_log != nullptr) (void)session.TakeLastActuals();
      }
      active_statements_.fetch_sub(1);
      requests_total_->Inc();
      requests_.fetch_add(1, std::memory_order_relaxed);
      if (!write_ok) break;
      if (!finished.ok()) {
        if (!send_frame(EncodeErrorFrame(finished))) break;
      }
      if (stop_.load(std::memory_order_relaxed)) break;
      continue;
    }

    Result<ExecuteRequest> req = DecodeExecuteRequest(*frame);
    Status finished = Status::OK();
    bool write_ok = true;
    uint64_t rows_emitted = 0;
    uint64_t rows_affected = 0;
    if (!req.ok()) {
      finished = req.status();
    } else {
      {
        std::lock_guard<std::mutex> lock(state->mu);
        state->statement = req->script.size() > 160
                               ? req->script.substr(0, 160) + "..."
                               : req->script;
        state->stmt_start = std::chrono::steady_clock::now();
      }
      uint32_t deadline_ms = req->deadline_ms != 0
                                 ? req->deadline_ms
                                 : opts_.default_deadline_ms;
      {
        // Request-scoped tracing (wire protocol v3): every span closed
        // on this thread until the end of this block — net.request,
        // quel.statement, index probes, fsyncs — records into this
        // request's buffer. The context publishes to the trace ring
        // (GET /traces/<id>) when it leaves scope, after the span.
        obs::TraceContext trace_ctx(
            req->trace_id, req->trace_sampled && req->trace_id != 0);
        obs::Span span("net.request", request_span_duration_,
                       request_span_self_);
        Result<quel::ResultSet> rs = RunScript(db_, &session, req->script);
        if (!rs.ok()) {
          finished = rs.status();
        } else if (deadline_ms != 0 && ElapsedMs(t0) > deadline_ms) {
          finished = DeadlineExceeded(
              "request exceeded its " + std::to_string(deadline_ms) +
              "ms deadline after execution");
        } else {
          rows_emitted = rs->rows.size();
          rows_affected = rs->affected;
          for (Frame& page :
               EncodeResultSetPages(*rs, opts_.rows_per_page)) {
            if (deadline_ms != 0 && ElapsedMs(t0) > deadline_ms) {
              finished = DeadlineExceeded(
                  "request exceeded its " + std::to_string(deadline_ms) +
                  "ms deadline while streaming results");
              break;
            }
            if (!send_frame(page)) {
              write_ok = false;
              break;
            }
          }
        }
      }
      state->requests.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(state->mu);
        state->statement.clear();
      }
      // Structured slow-query log: one JSONL record per statement at
      // least slow_query_ms slow, carrying the trace_id for /traces
      // correlation and the per-loop actuals for why-is-it-slow.
      if (opts_.slow_query_log != nullptr) {
        // Take (and thereby clear) the actuals unconditionally so a
        // fast statement's loops can never attach to a later slow one.
        quel::StatementActuals actuals = session.TakeLastActuals();
        uint64_t latency_us = ElapsedUs(t0);
        if (latency_us / 1000 >= opts_.slow_query_ms) {
          obs::SlowQueryRecord rec;
          rec.script_hash = obs::Fnv1a64(req->script);
          rec.fingerprint = quel::ScriptFingerprint(req->script);
          rec.script = req->script;
          rec.trace_id = req->trace_id;
          rec.sampled = req->trace_sampled && req->trace_id != 0;
          rec.latency_us = latency_us;
          rec.rows = rows_emitted;
          rec.affected = rows_affected;
          rec.error = ErrorCodeName(finished.error_code());
          for (auto& loop : actuals.loops)
            rec.loops.push_back({std::move(loop.var), std::move(loop.access),
                                 loop.rows_in, loop.rows_out});
          opts_.slow_query_log->Log(std::move(rec));
        }
      }
    }
    active_statements_.fetch_sub(1);
    requests_total_->Inc();
    requests_.fetch_add(1, std::memory_order_relaxed);
    if (!write_ok) break;
    if (!finished.ok()) {
      if (!send_frame(EncodeErrorFrame(finished))) break;
    }
    if (stop_.load(std::memory_order_relaxed)) break;
  }
  t->Close();
  active_.fetch_sub(1, std::memory_order_relaxed);
  active_connections_->Add(-1);
  {
    std::lock_guard<std::mutex> lock(states_mu_);
    states_.erase(id);
  }
  std::lock_guard<std::mutex> lock(mu_);
  finished_.push_back(id);
}

}  // namespace mdm::net
