#ifndef MDM_STORAGE_BTREE_H_
#define MDM_STORAGE_BTREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace mdm::storage {

/// B+tree index mapping int64 keys to 64-bit ids (entity ids, for the
/// er attribute indexes).
///
/// Duplicate keys are allowed (an index on, say, note pitch has many
/// entities per key); entries are ordered by (key, id). Deletion is
/// lazy: entries are removed but nodes are not re-merged, which keeps
/// the structure valid at some space cost — the workloads the paper
/// implies (score editing) are strongly insert/read dominated.
///
/// The tree lives in memory; er builds it from the entity records when
/// an index is defined or a database is loaded.
class BTree {
 public:
  /// `max_entries` is the node fan-out (>= 4).
  explicit BTree(size_t max_entries = 64);
  ~BTree();

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;
  BTree(BTree&&) noexcept;
  BTree& operator=(BTree&&) noexcept;

  void Insert(int64_t key, uint64_t id);

  /// Removes the exact (key, id) entry; false if absent.
  bool Erase(int64_t key, uint64_t id);

  /// All ids for `key`, in id order.
  std::vector<uint64_t> Find(int64_t key) const;

  /// Full scan in (key, id) order; stops early if `fn` returns false.
  void ScanAll(const std::function<bool(int64_t, uint64_t)>& fn) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Height of the tree (1 = a single leaf). Exposed for tests.
  int Height() const;

  /// Verifies structural invariants (ordering, leaf chaining, uniform
  /// depth). Exposed for property tests.
  Status CheckInvariants() const;

 private:
  struct Node;
  struct Entry {
    int64_t key;
    uint64_t id;

    friend bool operator<(const Entry& a, const Entry& b) {
      return a.key != b.key ? a.key < b.key : a.id < b.id;
    }
  };

  Node* FindLeaf(int64_t key) const;
  // Splits `node` (which is full); inserts the separator into the parent.
  void SplitChild(Node* parent, size_t child_index);
  void InsertNonFull(Node* node, int64_t key, uint64_t id);

  std::unique_ptr<Node> root_;
  size_t max_entries_;
  size_t size_ = 0;
};

}  // namespace mdm::storage

#endif  // MDM_STORAGE_BTREE_H_
