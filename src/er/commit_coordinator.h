#ifndef MDM_ER_COMMIT_COORDINATOR_H_
#define MDM_ER_COMMIT_COORDINATOR_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <utility>

#include "common/status.h"
#include "storage/wal.h"

namespace mdm::er {

/// WAL group commit (docs/WRITEPATH.md §2).
///
/// Committers append their commit record under the exclusive db latch
/// (WalWriter::CommitNoSync), release the latch, then call WaitDurable
/// with that record's LSN. The first waiter to find no leader becomes
/// the leader. While another committer is in flight, the leader holds
/// the batch open for up to `interval_us` (or until `max_batch` are
/// queued); then it issues ONE WalWriter::Sync covering every commit
/// record appended so far and wakes the whole batch.
/// Followers just sleep until a leader's sync covers their LSN. Under
/// contention, N committers pay one fsync instead of N; a lone
/// committer pays one fsync and no window (PostgreSQL's
/// commit_delay/commit_siblings rule).
///
/// A committer is in flight from the moment its WAL transaction opens
/// (Open, held as a Txn) until its commit record is appended — or until
/// the Txn is dropped without one, on a failed append. A committer
/// whose record is appended needs no window: the next sync covers it
/// whether or not it has reached WaitDurable yet.
///
/// A failed sync poisons the coordinator: the failure status is
/// returned to every current AND future waiter, because the WAL tail's
/// durability is now unknown and acking later commits would lie. This
/// matches Commit()'s contract (an fsync error is fatal for the
/// journal), and the workload can still read.
class CommitCoordinator {
 public:
  struct Options {
    /// Longest the leader holds the batch open while other committers
    /// are in flight, microseconds.
    uint32_t interval_us = 100;
    /// Leader syncs immediately once this many committers are waiting.
    uint32_t max_batch = 64;
  };

  /// One open WAL transaction, counted in flight until Committed or
  /// until the Txn is dropped. Move-only.
  class Txn {
   public:
    Txn() = default;
    Txn(Txn&& o) noexcept : c_(std::exchange(o.c_, nullptr)) {}
    Txn& operator=(Txn&& o) noexcept {
      if (this != &o) {
        Drop();
        c_ = std::exchange(o.c_, nullptr);
      }
      return *this;
    }
    ~Txn() { Drop(); }

    /// The transaction's commit record was appended at `lsn`; the next
    /// sync covers it.
    void Committed(uint64_t lsn);

   private:
    friend class CommitCoordinator;
    explicit Txn(CommitCoordinator* c) : c_(c) {}
    void Drop();
    CommitCoordinator* c_ = nullptr;
  };

  CommitCoordinator(storage::WalWriter* wal, Options options)
      : wal_(wal), options_(options) {}
  CommitCoordinator(const CommitCoordinator&) = delete;
  CommitCoordinator& operator=(const CommitCoordinator&) = delete;

  /// Call when a committer's WAL transaction opens (under the db latch).
  Txn Open();

  /// Blocks until a sync covering `lsn` has completed (possibly issued
  /// by this thread as leader). Call WITHOUT the db latch held.
  Status WaitDurable(uint64_t lsn);

  const Options& options() const { return options_; }

 private:
  /// Wakes a leader holding its window once there is nothing left to
  /// wait for. Caller holds mu_.
  void MaybeEndWindow() {
    if (leader_active_ && (waiters_ >= options_.max_batch || open_ == 0))
      window_cv_.notify_one();
  }

  storage::WalWriter* wal_;
  const Options options_;

  std::mutex mu_;
  std::condition_variable cv_;         // followers wait for a sync
  std::condition_variable window_cv_;  // the leader holds its window
  uint64_t synced_ = 0;    // highest LSN known fsynced
  uint64_t appended_ = 0;  // highest commit LSN committed or waited on
  uint32_t open_ = 0;      // committers in flight: Txns not yet committed
  uint32_t waiters_ = 0;   // committers currently in WaitDurable
  bool leader_active_ = false;
  Status poison_ = Status::OK();  // sticky first sync failure
};

}  // namespace mdm::er

#endif  // MDM_ER_COMMIT_COORDINATOR_H_
