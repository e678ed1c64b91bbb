#include "net/transport.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "net/client.h"

namespace mdm::net {

namespace {

bool IsTimeout(int err) {
  return err == EAGAIN || err == EWOULDBLOCK || err == ETIMEDOUT;
}

Status SetSocketTimeout(int fd, int which, uint32_t ms) {
  if (fd < 0) return Unavailable("transport is closed");
  struct timeval tv = {};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>(ms % 1000) * 1000;
  if (::setsockopt(fd, SOL_SOCKET, which, &tv, sizeof(tv)) < 0)
    return Unavailable(std::string("setsockopt failed: ") +
                       std::strerror(errno));
  return Status::OK();
}

}  // namespace

TcpTransport::~TcpTransport() {
  if (owns_fd_) Close();
}

void TcpTransport::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status TcpTransport::Send(const uint8_t* data, size_t n) {
  if (fd_ < 0) return Unavailable("transport is closed");
  size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a dead peer yields EPIPE, never a process signal —
    // a client closing mid-page must not be able to kill mdmd.
    ssize_t w = ::send(fd_, data + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (IsTimeout(errno))
        return DeadlineExceeded("send timed out (" + std::to_string(sent) +
                                "/" + std::to_string(n) + " bytes)");
      return Unavailable(std::string("send failed: ") +
                         std::strerror(errno));
    }
    sent += static_cast<size_t>(w);
  }
  return Status::OK();
}

Result<size_t> TcpTransport::Recv(uint8_t* buf, size_t n) {
  if (fd_ < 0) return Unavailable("transport is closed");
  for (;;) {
    ssize_t r = ::recv(fd_, buf, n, 0);
    if (r >= 0) return static_cast<size_t>(r);
    if (errno == EINTR) continue;
    if (IsTimeout(errno))
      return DeadlineExceeded("recv timed out");
    return Unavailable(std::string("recv failed: ") + std::strerror(errno));
  }
}

Status TcpTransport::SetRecvTimeout(uint32_t ms) {
  return SetCachedTimeout(SO_RCVTIMEO, ms, &recv_timeout_ms_);
}

Status TcpTransport::SetSendTimeout(uint32_t ms) {
  return SetCachedTimeout(SO_SNDTIMEO, ms, &send_timeout_ms_);
}

Status TcpTransport::SetCachedTimeout(int which, uint32_t ms,
                                      uint64_t* last) {
  if (fd_ >= 0 && *last == ms) return Status::OK();
  Status s = SetSocketTimeout(fd_, which, ms);
  *last = s.ok() ? ms : kUnknown;
  return s;
}

Result<std::unique_ptr<Transport>> DialTcpTransport(const std::string& host,
                                                    uint16_t port,
                                                    uint32_t timeout_ms) {
  MDM_ASSIGN_OR_RETURN(int fd, DialTcp(host, port, timeout_ms));
  return std::unique_ptr<Transport>(new TcpTransport(fd));
}

// ---------------------------------------------------------------------
// FaultInjectingTransport

namespace {

/// Process-wide injection tallies (relaxed atomics; the per-instance
/// Stats stay exact per transport).
struct GlobalStats {
  std::atomic<uint64_t> sends{0}, recvs{0}, delays{0}, corruptions{0},
      truncations{0}, short_writes{0}, short_reads{0}, closes{0}, drops{0},
      errors{0};
};

GlobalStats* Globals() {
  static GlobalStats g;
  return &g;
}

}  // namespace

FaultInjectingTransport::Stats FaultInjectingTransport::ProcessStats() {
  GlobalStats* g = Globals();
  Stats s;
  s.sends = g->sends.load(std::memory_order_relaxed);
  s.recvs = g->recvs.load(std::memory_order_relaxed);
  s.delays = g->delays.load(std::memory_order_relaxed);
  s.corruptions = g->corruptions.load(std::memory_order_relaxed);
  s.truncations = g->truncations.load(std::memory_order_relaxed);
  s.short_writes = g->short_writes.load(std::memory_order_relaxed);
  s.short_reads = g->short_reads.load(std::memory_order_relaxed);
  s.closes = g->closes.load(std::memory_order_relaxed);
  s.drops = g->drops.load(std::memory_order_relaxed);
  s.errors = g->errors.load(std::memory_order_relaxed);
  return s;
}

void FaultInjectingTransport::ResetProcessStats() {
  GlobalStats* g = Globals();
  g->sends = g->recvs = g->delays = g->corruptions = g->truncations =
      g->short_writes = g->short_reads = g->closes = g->drops = g->errors = 0;
}

FaultKind FaultInjectingTransport::DrawKind(bool is_send) {
  struct Entry {
    uint32_t weight;
    FaultKind kind;
  };
  const Entry entries[] = {
      {plan_.w_delay, FaultKind::kDelay},
      {plan_.w_corrupt, FaultKind::kCorrupt},
      {plan_.w_truncate, FaultKind::kTornWrite},
      {is_send ? plan_.w_short_write : plan_.w_short_read,
       FaultKind::kShortWrite},
      {plan_.w_close, FaultKind::kDisconnect},
      // Dropping received bytes cannot be simulated from this side of
      // the stream, so on the recv path the drop weight becomes a
      // short read.
      {plan_.w_drop, is_send ? FaultKind::kDrop : FaultKind::kShortWrite},
  };
  uint64_t total = 0;
  for (const Entry& e : entries) total += e.weight;
  if (total == 0) return FaultKind::kNone;
  uint64_t pick = rng_.Uniform(total);
  for (const Entry& e : entries) {
    if (pick < e.weight) return e.kind;
    pick -= e.weight;
  }
  return FaultKind::kNone;
}

FaultDecision FaultInjectingTransport::Decide(bool is_send) {
  ++op_count_;
  // The process-global failpoint registry reaches socket I/O here: the
  // same FailNth / FailWithProbability / ArmPowerCutAtIo machinery the
  // storage fault sweeps use (common/failpoint.h).
  FaultDecision d = fps_->Eval(is_send ? "net.send" : "net.recv");
  if (d.fired()) return d;
  if (fail_at_op_ != 0 && op_count_ == fail_at_op_)
    return {fail_kind_, 0.5, plan_.delay_ms};
  if (plan_.p_fault > 0.0 && rng_.Bernoulli(plan_.p_fault))
    return {DrawKind(is_send), 0.5, plan_.delay_ms};
  return {};
}

void FaultInjectingTransport::Count(FaultKind kind) {
  GlobalStats* g = Globals();
  switch (kind) {
    case FaultKind::kDelay:
      ++stats_.delays;
      g->delays.fetch_add(1, std::memory_order_relaxed);
      break;
    case FaultKind::kCorrupt:
      ++stats_.corruptions;
      g->corruptions.fetch_add(1, std::memory_order_relaxed);
      break;
    case FaultKind::kTornWrite:
      ++stats_.truncations;
      g->truncations.fetch_add(1, std::memory_order_relaxed);
      break;
    case FaultKind::kDisconnect:
    case FaultKind::kPowerCut:
      ++stats_.closes;
      g->closes.fetch_add(1, std::memory_order_relaxed);
      break;
    case FaultKind::kDrop:
      ++stats_.drops;
      g->drops.fetch_add(1, std::memory_order_relaxed);
      break;
    case FaultKind::kError:
      ++stats_.errors;
      g->errors.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      break;
  }
}

Status FaultInjectingTransport::Send(const uint8_t* data, size_t n) {
  ++stats_.sends;
  Globals()->sends.fetch_add(1, std::memory_order_relaxed);
  FaultDecision d = Decide(/*is_send=*/true);
  switch (d.kind) {
    case FaultKind::kNone:
      return base_->Send(data, n);
    case FaultKind::kDelay:
      Count(d.kind);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(d.delay_ms != 0 ? d.delay_ms
                                                    : plan_.delay_ms));
      return base_->Send(data, n);
    case FaultKind::kCorrupt: {
      Count(d.kind);
      if (n == 0) return base_->Send(data, n);
      std::vector<uint8_t> mangled(data, data + n);
      mangled[rng_.Uniform(n)] ^= 0xFF;
      return base_->Send(mangled.data(), mangled.size());
    }
    case FaultKind::kTornWrite: {
      // Silent truncation mid-frame: a prefix reaches the wire, the
      // connection dies, and the call still reports success — the peer
      // discovers the tear as a short read / bad frame.
      Count(d.kind);
      size_t keep = static_cast<size_t>(static_cast<double>(n) *
                                        d.keep_fraction);
      if (keep > 0) (void)base_->Send(data, keep);
      base_->Close();
      return Status::OK();
    }
    case FaultKind::kShortWrite: {
      ++stats_.short_writes;
      Globals()->short_writes.fetch_add(1, std::memory_order_relaxed);
      size_t keep = static_cast<size_t>(static_cast<double>(n) *
                                        d.keep_fraction);
      if (keep > 0) (void)base_->Send(data, keep);
      return Unavailable("injected short write (" + std::to_string(keep) +
                         "/" + std::to_string(n) + " bytes)");
    }
    case FaultKind::kDrop:
      // The bytes vanish but the call reports success: the peer never
      // sees the frame and the caller only learns via its deadline.
      Count(d.kind);
      return Status::OK();
    case FaultKind::kDisconnect:
    case FaultKind::kPowerCut:
      Count(d.kind);
      base_->Close();
      return Unavailable("injected disconnect before send");
    case FaultKind::kError:
      Count(d.kind);
      return Unavailable("injected send error");
  }
  return base_->Send(data, n);
}

Result<size_t> FaultInjectingTransport::Recv(uint8_t* buf, size_t n) {
  ++stats_.recvs;
  Globals()->recvs.fetch_add(1, std::memory_order_relaxed);
  FaultDecision d = Decide(/*is_send=*/false);
  FaultKind kind = d.kind == FaultKind::kDrop ? FaultKind::kShortWrite
                                              : d.kind;
  switch (kind) {
    case FaultKind::kNone:
      return base_->Recv(buf, n);
    case FaultKind::kDelay:
      Count(kind);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(d.delay_ms != 0 ? d.delay_ms
                                                    : plan_.delay_ms));
      return base_->Recv(buf, n);
    case FaultKind::kCorrupt: {
      Count(kind);
      Result<size_t> got = base_->Recv(buf, n);
      if (got.ok() && *got > 0) buf[rng_.Uniform(*got)] ^= 0xFF;
      return got;
    }
    case FaultKind::kTornWrite: {
      // The response truncates mid-frame: deliver a prefix of whatever
      // arrived, then lose the connection.
      Count(kind);
      Result<size_t> got = base_->Recv(buf, n);
      base_->Close();
      if (!got.ok()) return got;
      return static_cast<size_t>(static_cast<double>(*got) *
                                 d.keep_fraction);
    }
    case FaultKind::kShortWrite: {
      // Short read: fewer bytes than asked, stream intact. Exercises
      // the reassembly loops (ReadFully) rather than failing anything.
      ++stats_.short_reads;
      Globals()->short_reads.fetch_add(1, std::memory_order_relaxed);
      size_t m = std::max<size_t>(
          1, static_cast<size_t>(static_cast<double>(n) * d.keep_fraction));
      return base_->Recv(buf, std::min(n, m));
    }
    case FaultKind::kDisconnect:
    case FaultKind::kPowerCut:
      Count(kind);
      base_->Close();
      return Unavailable("injected disconnect before recv");
    case FaultKind::kError:
      Count(kind);
      return Unavailable("injected recv error");
    default:
      break;
  }
  return base_->Recv(buf, n);
}

}  // namespace mdm::net
