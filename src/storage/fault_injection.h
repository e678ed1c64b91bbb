#ifndef MDM_STORAGE_FAULT_INJECTION_H_
#define MDM_STORAGE_FAULT_INJECTION_H_

#include <vector>

#include "common/failpoint.h"
#include "storage/wal.h"

namespace mdm::storage {

/// WalSink decorator injecting faults at append/sync boundaries via the
/// failpoints "walsink.append" and "walsink.sync". Short and torn
/// appends persist a prefix of the record bytes — exactly the torn tail
/// WalRecover must stop at cleanly. Semantics per FaultKind:
///   kError       — the call fails with IoError, nothing reaches `base`;
///   kShortWrite, kPowerCut — a prefix reaches `base`, the call fails;
///   kTornWrite   — the same prefix reaches `base` but the call reports
///                  success: silent corruption that the record
///                  checksums catch on recovery.
class FaultInjectingWalSink : public WalSink {
 public:
  explicit FaultInjectingWalSink(WalSink* base,
                                 FailpointRegistry* fps = nullptr)
      : base_(base),
        fps_(fps != nullptr ? fps : FailpointRegistry::Global()) {}

  Status Append(const std::vector<uint8_t>& bytes) override;
  Status Sync() override;

 private:
  WalSink* base_;
  FailpointRegistry* fps_;
};

}  // namespace mdm::storage

#endif  // MDM_STORAGE_FAULT_INJECTION_H_
