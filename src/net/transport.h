#ifndef MDM_NET_TRANSPORT_H_
#define MDM_NET_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/failpoint.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"

namespace mdm::net {

/// The byte-stream seam under the mdmd wire protocol. Client and Server
/// frame all socket I/O through a Transport: production code uses
/// TcpTransport (a thin wrapper over a connected socket), chaos tests
/// interpose FaultInjectingTransport — the network analog of
/// FaultInjectingWalSink (storage/fault_injection.h).
///
/// Failure taxonomy the implementations must honor (docs/ROBUSTNESS.md):
///  * Unavailable       — the peer is gone (reset, refused, EOF mid-op)
///    or the OS rejected the I/O; the stream is unusable.
///  * DeadlineExceeded  — a configured send/recv timeout elapsed with
///    the operation incomplete (slow peer, stalled link). The stream
///    position is unknown, so the connection must be dropped too.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends all `n` bytes (blocking, looping over partial sends). Must
  /// never raise SIGPIPE — a dead peer is an Unavailable status.
  virtual Status Send(const uint8_t* data, size_t n) = 0;

  /// Receives up to `n` bytes into `buf`; returns the count actually
  /// received. 0 means the peer closed the stream cleanly (orderly EOF
  /// at a frame boundary is the normal end of a connection).
  virtual Result<size_t> Recv(uint8_t* buf, size_t n) = 0;

  virtual void Close() = 0;

  /// The underlying socket (for poll()); -1 once closed.
  virtual int fd() const = 0;

  /// Bounds how long one Recv/Send may block before returning
  /// DeadlineExceeded. 0 disables the bound. Default implementations
  /// are no-ops for transports without a kernel socket.
  virtual Status SetRecvTimeout(uint32_t ms) {
    (void)ms;
    return Status::OK();
  }
  virtual Status SetSendTimeout(uint32_t ms) {
    (void)ms;
    return Status::OK();
  }

  bool closed() const { return fd() < 0; }
};

/// A connected TCP (or any stream) socket behind the Transport seam.
class TcpTransport : public Transport {
 public:
  /// Wraps a connected fd. When `owns_fd`, Close()/the destructor close
  /// it; otherwise the caller keeps ownership (the fd-based
  /// ReadFrame/WriteFrame compatibility shims use this).
  explicit TcpTransport(int fd, bool owns_fd = true)
      : fd_(fd), owns_fd_(owns_fd) {}
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  Status Send(const uint8_t* data, size_t n) override;
  Result<size_t> Recv(uint8_t* buf, size_t n) override;
  void Close() override;
  int fd() const override { return fd_; }
  Status SetRecvTimeout(uint32_t ms) override;
  Status SetSendTimeout(uint32_t ms) override;

 private:
  int fd_ = -1;
  bool owns_fd_ = true;
};

/// TCP connect to host:port bounded by `timeout_ms`, returning a ready
/// TcpTransport. The Transport-level twin of DialTcp (net/client.h).
Result<std::unique_ptr<Transport>> DialTcpTransport(const std::string& host,
                                                    uint16_t port,
                                                    uint32_t timeout_ms);

/// Seeded fault plan for a FaultInjectingTransport. Two trigger modes
/// compose:
///  * probabilistic — each I/O boundary (a Send or Recv call) fires
///    independently with probability `p_fault`, the decision stream
///    fully determined by `seed`; the fired kind is drawn from the
///    kind weights below;
///  * deterministic — FailAtOp(nth, kind) arms exactly one fault at the
///    nth I/O boundary (1-based, Sends and Recvs share the counter),
///    the knob chaos sweeps iterate (the network ArmPowerCutAtIo).
///
/// Both modes are evaluated *in addition to* the process-global
/// FailpointRegistry points "net.send" / "net.recv", so the PR 1
/// failpoint machinery reaches socket I/O unchanged.
struct FaultPlan {
  uint64_t seed = 1;
  double p_fault = 0.0;
  /// Relative weights of the fault drawn once a boundary fires. A zero
  /// weight disables that kind. Defaults exercise every kind.
  uint32_t w_delay = 1;       ///< stall delay_ms, then complete intact
  uint32_t w_corrupt = 1;     ///< flip one byte in flight, report success
  uint32_t w_truncate = 1;    ///< deliver a prefix, then hard-close
  uint32_t w_short_write = 1; ///< deliver a prefix, report Unavailable
  uint32_t w_short_read = 1;  ///< benign: return fewer bytes than asked
  uint32_t w_close = 1;       ///< hard-close before the I/O
  uint32_t w_drop = 1;        ///< swallow the bytes, report success
  uint32_t delay_ms = 2;
};

/// Decorates a Transport with seeded, deterministic fault injection at
/// every Send/Recv boundary. Not thread-safe (Transports are
/// per-connection, used from one thread — same contract as Client).
class FaultInjectingTransport : public Transport {
 public:
  /// Per-kind injection counts, for "every fault site hit" assertions.
  struct Stats {
    uint64_t sends = 0;
    uint64_t recvs = 0;
    uint64_t delays = 0;
    uint64_t corruptions = 0;
    uint64_t truncations = 0;
    uint64_t short_writes = 0;
    uint64_t short_reads = 0;
    uint64_t closes = 0;
    uint64_t drops = 0;
    uint64_t errors = 0;

    uint64_t injected() const {
      return delays + corruptions + truncations + short_writes +
             short_reads + closes + drops + errors;
    }
  };

  FaultInjectingTransport(std::unique_ptr<Transport> base, FaultPlan plan,
                          FailpointRegistry* fps = nullptr)
      : base_(std::move(base)),
        plan_(plan),
        rng_(plan.seed),
        fps_(fps != nullptr ? fps : FailpointRegistry::Global()) {}

  /// Arms exactly one deterministic fault at the nth I/O boundary
  /// (1-based; counts Sends and Recvs in call order).
  void FailAtOp(uint64_t nth, FaultKind kind) {
    fail_at_op_ = nth;
    fail_kind_ = kind;
  }

  Status Send(const uint8_t* data, size_t n) override;
  Result<size_t> Recv(uint8_t* buf, size_t n) override;
  void Close() override { base_->Close(); }
  int fd() const override { return base_->fd(); }
  Status SetRecvTimeout(uint32_t ms) override {
    return base_->SetRecvTimeout(ms);
  }
  Status SetSendTimeout(uint32_t ms) override {
    return base_->SetSendTimeout(ms);
  }

  const Stats& stats() const { return stats_; }
  uint64_t ops() const { return op_count_; }

  /// Aggregate across every FaultInjectingTransport in the process
  /// since the last ResetProcessStats — chaos sweeps assert sites were
  /// hit even when each request dials a fresh transport.
  static Stats ProcessStats();
  static void ResetProcessStats();

 private:
  /// Decides what (if anything) to inject at this boundary.
  FaultDecision Decide(bool is_send);
  FaultKind DrawKind(bool is_send);
  void Count(FaultKind kind);

  std::unique_ptr<Transport> base_;
  FaultPlan plan_;
  Rng rng_;
  FailpointRegistry* fps_;
  uint64_t op_count_ = 0;
  uint64_t fail_at_op_ = 0;  // 0 = disarmed
  FaultKind fail_kind_ = FaultKind::kNone;
  Stats stats_;
};

}  // namespace mdm::net

#endif  // MDM_NET_TRANSPORT_H_
