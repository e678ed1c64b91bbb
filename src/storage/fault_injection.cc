#include "storage/fault_injection.h"

namespace mdm::storage {

namespace {

size_t KeepBytes(size_t n, double keep_fraction) {
  size_t keep = static_cast<size_t>(static_cast<double>(n) * keep_fraction);
  return keep > n ? n : keep;
}

}  // namespace

Status FaultInjectingWalSink::Append(const std::vector<uint8_t>& bytes) {
  FaultDecision fault = fps_->Eval("walsink.append");
  if (!fault.fired()) return base_->Append(bytes);
  if (fault.kind == FaultKind::kError)
    return IoError("injected WAL append failure");
  std::vector<uint8_t> prefix(
      bytes.begin(),
      bytes.begin() +
          static_cast<long>(KeepBytes(bytes.size(), fault.keep_fraction)));
  MDM_RETURN_IF_ERROR(base_->Append(prefix));
  if (fault.kind == FaultKind::kTornWrite) return Status::OK();  // silent
  return IoError("injected torn WAL append");
}

Status FaultInjectingWalSink::Sync() {
  if (fps_->Eval("walsink.sync").fired())
    return IoError("injected WAL sync failure");
  return base_->Sync();
}

}  // namespace mdm::storage
