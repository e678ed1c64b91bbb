#ifndef MDM_ER_SESSION_H_
#define MDM_ER_SESSION_H_

#include <shared_mutex>

#include "er/database.h"

namespace mdm::er {

/// RAII guards implementing the external-locking contract documented on
/// er::Database (see docs/CONCURRENCY.md for the lock hierarchy).
///
/// A ReadGuard holds the database latch shared for its lifetime: every
/// read made through it sees one consistent state — no structural
/// mutation can interleave, so Before/After/Under answer from the same
/// S- and P-edges as Children/ParentOf.
/// A WriteGuard holds the latch exclusively and is the required bracket
/// for any mutation (including EnableAttrIndex, AttachJournal and
/// ReplayJournal).
///
/// Guards do not nest: acquiring a second guard on the same database
/// from the same thread deadlocks (std::shared_mutex is not
/// recursive). In particular, do not call QuelSession::Execute — which
/// takes the latch itself — while holding a guard.
class ReadGuard {
 public:
  explicit ReadGuard(const Database& db) : lock_(db.latch()), db_(&db) {}

  const Database* operator->() const { return db_; }
  const Database& operator*() const { return *db_; }
  const Database* db() const { return db_; }

 private:
  std::shared_lock<std::shared_mutex> lock_;
  const Database* db_;
};

class WriteGuard {
 public:
  explicit WriteGuard(Database& db) : lock_(db.latch()), db_(&db) {
    db_->BeginWriteScope();
  }
  /// Publishes the snapshot BEFORE releasing the latch, so latch-free
  /// snapshot readers (TryPinSnapshot) always see the last completed
  /// write bracket, never a half-applied one.
  ~WriteGuard() {
    db_->EndWriteScope();
    lock_.unlock();
  }
  WriteGuard(const WriteGuard&) = delete;
  WriteGuard& operator=(const WriteGuard&) = delete;
  WriteGuard(WriteGuard&&) = delete;
  WriteGuard& operator=(WriteGuard&&) = delete;

  Database* operator->() const { return db_; }
  Database& operator*() const { return *db_; }
  Database* db() const { return db_; }

 private:
  std::unique_lock<std::shared_mutex> lock_;
  Database* db_;
};

/// One client's connection to a shared Database — the paper's fig 1
/// picture of many simultaneous clients against one music data
/// manager. A Session is cheap (a pointer); create one per client
/// thread and take guards around each logical operation:
///
///   er::Session s(&db);
///   { auto r = s.Read(); auto v = r->Before(h, a, b); ... }
///   { auto w = s.Write(); w->AppendChild(h, chord, note); ... }
///
/// Guard acquisition is mirrored on the obs registry as
/// mdm_er_read_guards_total / mdm_er_write_guards_total.
class Session {
 public:
  explicit Session(Database* db) : db_(db) {}

  ReadGuard Read() const;
  WriteGuard Write() const;
  Database* db() const { return db_; }

 private:
  Database* db_;
};

}  // namespace mdm::er

#endif  // MDM_ER_SESSION_H_
