#include "er/commit_coordinator.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"

namespace mdm::er {

namespace {

struct GroupCommitMetrics {
  obs::Counter* groups;
  obs::Counter* windows;
  obs::Histogram* batch_size;
  static const GroupCommitMetrics& Get() {
    static GroupCommitMetrics m = {
        obs::Registry::Global()->GetCounter(
            "mdm_wal_group_commits_total",
            "Group-commit fsyncs issued by a leader"),
        obs::Registry::Global()->GetCounter(
            "mdm_wal_group_commit_windows_total",
            "Group-commit leaders that held the batch open for other "
            "committers in flight"),
        obs::Registry::Global()->GetHistogram(
            "mdm_wal_commit_batch_size",
            "Committers covered by one group-commit fsync")};
    return m;
  }
};

}  // namespace

void CommitCoordinator::Txn::Committed(uint64_t lsn) {
  CommitCoordinator* c = std::exchange(c_, nullptr);
  if (c == nullptr) return;
  std::lock_guard<std::mutex> lock(c->mu_);
  --c->open_;
  c->appended_ = std::max(c->appended_, lsn);
  c->MaybeEndWindow();
}

void CommitCoordinator::Txn::Drop() {
  CommitCoordinator* c = std::exchange(c_, nullptr);
  if (c == nullptr) return;
  std::lock_guard<std::mutex> lock(c->mu_);
  --c->open_;
  c->MaybeEndWindow();
}

CommitCoordinator::Txn CommitCoordinator::Open() {
  std::lock_guard<std::mutex> lock(mu_);
  ++open_;
  return Txn(this);
}

Status CommitCoordinator::WaitDurable(uint64_t lsn) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!poison_.ok()) return poison_;
  if (lsn <= synced_) return Status::OK();

  appended_ = std::max(appended_, lsn);
  ++waiters_;
  MaybeEndWindow();

  while (leader_active_) {
    cv_.wait(lock);
    if (!poison_.ok()) {
      --waiters_;
      return poison_;
    }
    if (lsn <= synced_) {
      --waiters_;
      return Status::OK();
    }
  }

  // Leader: while other committers are in flight, hold the batch open
  // for them (up to the window, or until it fills); then fsync once for
  // everyone.
  leader_active_ = true;
  if (options_.interval_us > 0 && waiters_ < options_.max_batch &&
      open_ > 0) {
    GroupCommitMetrics::Get().windows->Inc();
    window_cv_.wait_for(
        lock, std::chrono::microseconds(options_.interval_us),
        [&] { return waiters_ >= options_.max_batch || open_ == 0; });
  }
  // The sync covers every record appended before it, so every commit
  // handed to Committed so far is durable once it returns — including
  // those whose committers have not reached WaitDurable yet; they find
  // lsn <= synced_ on arrival.
  const uint64_t target = appended_;
  const uint32_t batch = waiters_;
  lock.unlock();

  Status synced = wal_->Sync();

  lock.lock();
  leader_active_ = false;
  --waiters_;
  if (!synced.ok()) {
    poison_ = synced;
    cv_.notify_all();
    return synced;
  }
  synced_ = std::max(synced_, target);
  GroupCommitMetrics::Get().groups->Inc();
  GroupCommitMetrics::Get().batch_size->Observe(batch);
  cv_.notify_all();
  return Status::OK();
}

}  // namespace mdm::er
