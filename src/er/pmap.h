#ifndef MDM_ER_PMAP_H_
#define MDM_ER_PMAP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

namespace mdm::er {

/// Deterministic treap priority: a fixed avalanche mix of the key, so
/// the tree shape depends only on the key set (replay- and
/// snapshot-stable; no RNG state to carry).
inline uint64_t PMapMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

inline uint64_t PMapPriority(uint64_t key) { return PMapMix64(key); }
inline uint64_t PMapPriority(uint32_t key) {
  return PMapMix64(static_cast<uint64_t>(key));
}
inline uint64_t PMapPriority(int64_t key) {
  return PMapMix64(static_cast<uint64_t>(key));
}
inline uint64_t PMapPriority(const std::string& key) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return PMapMix64(h);
}

/// A persistent (immutable, structurally shared) ordered map — the
/// copy-on-write substrate behind er::Tables snapshots. Insert/Erase
/// path-copy O(log n) nodes and leave every previously taken copy of
/// the map untouched, so publishing a database snapshot is a handful of
/// root-pointer copies regardless of data volume, and readers traverse
/// their pinned version without any lock.
///
/// Implementation: a treap with deterministic hash-derived priorities,
/// maintained via path-copying split/merge. Iteration (ForEach) is
/// in key order; entity/relationship ids are monotonically assigned, so
/// key order doubles as creation order for the id-keyed sets.
///
/// Memory: the database holds several nodes per entity (its record,
/// its type set, its place in each ordering), so a node is kept small —
/// key, value, two child pointers and an intrusive reference count in
/// one allocation. The priority is recomputed from the key, and the
/// size is kept by the map, not by each node.
///
/// Thread safety: a PMap value is NOT synchronized — the owner mutates
/// it under the database's exclusive latch. Copies of the map (sharing
/// nodes) may be read freely from any thread: shared nodes are
/// immutable after publication, and their atomic reference counts
/// retire them once the last snapshot referencing a version drains.
template <typename K, typename V>
class PMap {
 public:
  PMap() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pointer to the value for `key`, or nullptr. The pointee lives as
  /// long as any map version containing the node does.
  const V* Find(const K& key) const {
    const Node* n = root_.get();
    while (n != nullptr) {
      if (key < n->key)
        n = n->left.get();
      else if (n->key < key)
        n = n->right.get();
      else
        return &n->value;
    }
    return nullptr;
  }

  bool Contains(const K& key) const { return Find(key) != nullptr; }

  /// Find for `n` keys at once: out[i] = Find(keys[i]). Each descent is
  /// a chain of dependent loads; walking up to kFindLanes of them in
  /// lockstep lets their cache misses overlap instead of queueing.
  void FindMany(const K* keys, size_t n, const V** out) const {
    for (size_t base = 0; base < n; base += kFindLanes) {
      const size_t m = n - base < kFindLanes ? n - base : kFindLanes;
      const Node* cur[kFindLanes];
      for (size_t i = 0; i < m; ++i) {
        cur[i] = root_.get();
        out[base + i] = nullptr;
      }
      for (size_t live = m; live > 0;) {
        live = 0;
        for (size_t i = 0; i < m; ++i) {
          const Node* node = cur[i];
          if (node == nullptr) continue;
          const K& key = keys[base + i];
          if (key < node->key) {
            cur[i] = node->left.get();
          } else if (node->key < key) {
            cur[i] = node->right.get();
          } else {
            out[base + i] = &node->value;
            cur[i] = nullptr;
          }
          if (cur[i] != nullptr) ++live;
        }
      }
    }
  }
  static constexpr size_t kFindLanes = 16;

  /// Inserts or overwrites. O(log n) expected; path-copies the spine.
  void Insert(const K& key, V value) {
    NodeRef l, e, r;
    SplitAt(root_, key, &l, &e, &r);
    if (!e) ++size_;
    NodeRef fresh = NewNode(key, std::move(value), NodeRef(), NodeRef());
    root_ = Merge(Merge(std::move(l), std::move(fresh)), std::move(r));
  }

  /// Removes `key` if present. O(log n) expected.
  void Erase(const K& key) {
    NodeRef l, e, r;
    SplitAt(root_, key, &l, &e, &r);
    if (e) --size_;
    root_ = Merge(std::move(l), std::move(r));
  }

  /// In-key-order traversal; return false from `fn` to stop early.
  bool ForEach(const std::function<bool(const K&, const V&)>& fn) const {
    return Walk(root_.get(), fn);
  }

 private:
  struct Node;

  /// Owning reference to an immutable node (an intrusive shared_ptr).
  class NodeRef {
   public:
    NodeRef() = default;
    NodeRef(const NodeRef& o) : p_(o.p_) {
      if (p_ != nullptr) p_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    NodeRef(NodeRef&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
    NodeRef& operator=(NodeRef o) noexcept {
      std::swap(p_, o.p_);
      return *this;
    }
    ~NodeRef() {
      if (p_ != nullptr &&
          p_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
        delete p_;
    }
    /// Takes the first reference to a freshly allocated node.
    static NodeRef Adopt(const Node* p) {
      NodeRef r;
      r.p_ = p;
      return r;
    }
    const Node* get() const { return p_; }
    const Node* operator->() const { return p_; }
    explicit operator bool() const { return p_ != nullptr; }

   private:
    const Node* p_ = nullptr;
  };

  // Field order keeps small-valued nodes in the smallest allocation.
  struct Node {
    Node(K k, V v, NodeRef l, NodeRef r)
        : key(std::move(k)),
          left(std::move(l)),
          right(std::move(r)),
          value(std::move(v)) {}

    K key;
    NodeRef left;
    NodeRef right;
    mutable std::atomic<uint32_t> refs{1};
    V value;
  };

  static NodeRef NewNode(K key, V value, NodeRef l, NodeRef r) {
    return NodeRef::Adopt(
        new Node(std::move(key), std::move(value), std::move(l), std::move(r)));
  }

  static NodeRef WithChildren(const NodeRef& n, NodeRef l, NodeRef r) {
    return NewNode(n->key, n->value, std::move(l), std::move(r));
  }

  /// Splits `n` into keys < key (*l), the key node if present (*e), and
  /// keys > key (*r). Path-copies the split spine.
  static void SplitAt(const NodeRef& n, const K& key, NodeRef* l, NodeRef* e,
                      NodeRef* r) {
    if (!n) {
      *l = NodeRef();
      *e = NodeRef();
      *r = NodeRef();
      return;
    }
    if (key < n->key) {
      NodeRef rl;
      SplitAt(n->left, key, l, e, &rl);
      *r = WithChildren(n, std::move(rl), n->right);
    } else if (n->key < key) {
      NodeRef lr;
      SplitAt(n->right, key, &lr, e, r);
      *l = WithChildren(n, n->left, std::move(lr));
    } else {
      *l = n->left;
      *e = n;
      *r = n->right;
    }
  }

  static NodeRef Merge(NodeRef a, NodeRef b) {
    if (!a) return b;
    if (!b) return a;
    if (PMapPriority(a->key) >= PMapPriority(b->key))
      return WithChildren(a, a->left, Merge(a->right, std::move(b)));
    return WithChildren(b, Merge(std::move(a), b->left), b->right);
  }

  static bool Walk(const Node* n,
                   const std::function<bool(const K&, const V&)>& fn) {
    if (n == nullptr) return true;
    if (!Walk(n->left.get(), fn)) return false;
    if (!fn(n->key, n->value)) return false;
    return Walk(n->right.get(), fn);
  }

  NodeRef root_;
  size_t size_ = 0;
};

}  // namespace mdm::er

#endif  // MDM_ER_PMAP_H_
