#ifndef MDM_COMMON_FAILPOINT_H_
#define MDM_COMMON_FAILPOINT_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/random.h"

namespace mdm {

/// What an armed failpoint does to the I/O it intercepts.
enum class FaultKind : uint8_t {
  kNone = 0,
  /// The operation fails with IoError; no bytes reach the medium.
  kError,
  /// A prefix of the bytes reaches the medium, then the operation
  /// reports failure (a short write the caller observes).
  kShortWrite,
  /// A prefix of the bytes reaches the medium but the operation reports
  /// success — the silent tear a power cut leaves behind, detectable
  /// only by checksums.
  kTornWrite,
  /// Power dies mid-operation: the bytes in flight tear, and every
  /// subsequent I/O through the same registry fails until Reset.
  kPowerCut,
  /// Network kinds, interpreted by net::FaultInjectingTransport; the
  /// storage call sites (WAL, snapshot) model only the kinds above, so
  /// storage points are armed with those alone. kCorrupt: the bytes in
  /// flight are delivered with one byte flipped but the operation
  /// reports success — the wire analog of a torn write, detectable only
  /// by the frame CRC. kDisconnect: the connection hard-closes before
  /// the operation touches the wire (a peer death / RST). kDelay: the
  /// operation completes intact after a stall of
  /// FaultDecision::delay_ms. kDrop: the bytes in flight are silently
  /// swallowed and the operation reports success — the peer waits
  /// forever and only a deadline rescues the caller.
  kCorrupt,
  kDisconnect,
  kDelay,
  kDrop,
};

const char* FaultKindName(FaultKind kind);

/// The verdict a call site gets back from Failpoint/FailpointRegistry.
struct FaultDecision {
  FaultKind kind = FaultKind::kNone;
  /// For kShortWrite / kTornWrite / kPowerCut: fraction of the bytes in
  /// flight that persist (rounded down per call site).
  double keep_fraction = 1.0;
  /// For kDelay: how long the call site stalls before completing.
  uint32_t delay_ms = 0;

  bool fired() const { return kind != FaultKind::kNone; }
};

/// One deterministic, seedable fault trigger.
///
/// A default-constructed Failpoint never fires. Triggers are counted so
/// tests can assert how often a site was exercised.
class Failpoint {
 public:
  Failpoint() = default;

  /// Fires exactly once, on the nth evaluation (1-based).
  static Failpoint FailNth(uint64_t nth, FaultKind kind,
                           double keep_fraction = 0.5,
                           uint32_t delay_ms = 0);

  /// Fires independently with probability `p` per evaluation; the
  /// decision stream is fully determined by `seed`.
  static Failpoint FailWithProbability(double p, uint64_t seed,
                                       FaultKind kind,
                                       double keep_fraction = 0.5,
                                       uint32_t delay_ms = 0);

  FaultDecision Eval();

  uint64_t hits() const { return hits_; }
  uint64_t fires() const { return fires_; }

 private:
  enum class Mode : uint8_t { kOff, kNth, kProbability };

  Mode mode_ = Mode::kOff;
  FaultKind kind_ = FaultKind::kNone;
  uint64_t nth_ = 0;
  double probability_ = 0.0;
  double keep_fraction_ = 0.5;
  uint32_t delay_ms_ = 0;
  uint64_t hits_ = 0;
  uint64_t fires_ = 0;
  Rng rng_{1};
};

/// Named failpoints plus a cross-point power-cut trigger.
///
/// Storage call sites (FileWalSink, the snapshot writer, journal
/// rotation) evaluate named points on every physical I/O. With nothing
/// armed, Eval is a single branch and does not count, so production use
/// pays nothing. The power-cut mode counts *every* evaluation across
/// all points and cuts power on the chosen one, which is what the
/// crash simulator iterates over.
///
/// Not thread-safe; the MDM serializes storage access per database.
class FailpointRegistry {
 public:
  /// The process-global registry consulted by the file-backed storage
  /// classes. Tests arm it and must Reset() when done.
  static FailpointRegistry* Global();

  void Arm(const std::string& name, Failpoint fp);
  void Disarm(const std::string& name);

  /// Disarms every point, restores power, and zeroes counters.
  void Reset();

  /// Arms the power cut: the nth evaluated I/O (1-based, any point)
  /// tears at `keep_fraction` and latches power_out; every later I/O
  /// fails with IoError. Pass a huge nth to count I/Os without failing.
  void ArmPowerCutAtIo(uint64_t nth_io, double keep_fraction = 0.5);

  FaultDecision Eval(const std::string& name);

  /// Evaluations observed since the last Reset (only counted while the
  /// registry is armed).
  uint64_t io_count() const { return io_count_; }
  bool power_out() const { return power_out_; }
  bool armed() const {
    return !points_.empty() || cut_at_ != 0 || power_out_;
  }

 private:
  std::map<std::string, Failpoint> points_;
  uint64_t io_count_ = 0;
  uint64_t cut_at_ = 0;  // 0 = power cut disarmed
  double cut_keep_ = 0.5;
  bool power_out_ = false;
};

}  // namespace mdm

#endif  // MDM_COMMON_FAILPOINT_H_
