#ifndef MDM_ER_PMAP_H_
#define MDM_ER_PMAP_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>

namespace mdm::er {

/// A persistent (structurally shared) map from an unsigned id to V — the
/// copy-on-write substrate behind er::Tables snapshots. Copying a map is
/// one reference-count increment, so publishing a database snapshot is a
/// handful of root-pointer copies regardless of data volume, and readers
/// traverse their pinned version without any lock. Writes never change
/// what an earlier copy of the map sees.
///
/// Implementation: a bitmap-compressed 32-way radix trie over the key's
/// bits (a HAMT without the hash). A node at shift s indexes digit
/// (key >> s) & 31; leaves sit at shift 0, and the root's shift grows by
/// 5 bits as keys outgrow it. Each node is one allocation: an intrusive
/// reference count, a 32-bit occupancy bitmap, a leaf flag and a
/// capacity, followed by its slots packed in digit order (a slot's index
/// is the popcount of the bitmap below its bit) — child pointers in an
/// inner node, values in a leaf. A lookup is one dependent load per
/// level: four for keys below 2^20. Iteration (ForEach) is in key order;
/// entity/relationship ids are monotonically assigned, so key order
/// doubles as creation order for the id-keyed sets.
///
/// Writes: a node is edited in place when it and every node above it on
/// the key's path have reference count 1; otherwise the path from the
/// first shared node down is copied (at most one node per level). Only
/// the owner of a map value writes it, and every other holder of a node
/// (a published snapshot, another map copy) holds a reference to it or
/// to a node above it, so a count of 1 all the way down means no one
/// else can reach the node. The count is read with acquire ordering,
/// which orders the edit after any reader's release of its last
/// reference. Between two copies of a map, repeated writes therefore
/// share the nodes the first write copied.
///
/// Pointers returned by Find stay valid while the map value they came
/// from is unchanged (a pinned snapshot never changes); a write to that
/// same map value may move or overwrite the slot.
///
/// Thread safety: a PMap value is NOT synchronized — the owner mutates
/// it under the database's exclusive latch. Copies of the map (sharing
/// nodes) may be read freely from any thread.
template <typename K, typename V>
class PMap {
  static_assert(std::is_unsigned_v<K>, "PMap keys are unsigned ids");

 public:
  PMap() = default;
  PMap(const PMap& o) : root_(o.root_), shift_(o.shift_), size_(o.size_) {
    if (root_ != nullptr) root_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  PMap(PMap&& o) noexcept
      : root_(std::exchange(o.root_, nullptr)),
        shift_(std::exchange(o.shift_, 0)),
        size_(std::exchange(o.size_, 0)) {}
  PMap& operator=(PMap o) noexcept {
    std::swap(root_, o.root_);
    std::swap(shift_, o.shift_);
    std::swap(size_, o.size_);
    return *this;
  }
  ~PMap() { Release(root_); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pointer to the value for `key`, or nullptr.
  const V* Find(K key) const {
    const Node* n = root_;
    unsigned shift = shift_;
    if (n == nullptr || !Covers(key, shift)) return nullptr;
    for (;;) {
      const uint32_t bit = Bit(key, shift);
      if ((n->bitmap & bit) == 0) return nullptr;
      const unsigned i = Rank(n->bitmap, bit);
      if (shift == 0) return &Values(n)[i];
      n = Children(n)[i];
      shift -= kBits;
    }
  }

  bool Contains(K key) const { return Find(key) != nullptr; }

  /// Inserts or overwrites.
  void Insert(K key, V value) {
    if (root_ == nullptr) {
      shift_ = 0;
      while (!Covers(key, shift_)) shift_ += kBits;
    }
    while (!Covers(key, shift_)) GrowRoot();
    Node** slot = &root_;
    for (unsigned shift = shift_;; shift -= kBits) {
      if (*slot == nullptr) {
        *slot = Chain(key, shift, std::move(value));
        ++size_;
        return;
      }
      const uint32_t bit = Bit(key, shift);
      const bool present = ((*slot)->bitmap & bit) != 0;
      const unsigned count = std::popcount((*slot)->bitmap);
      Node* n = Own(slot, present ? count : count + 1);
      const unsigned i = Rank(n->bitmap, bit);
      if (present && shift == 0) {
        Values(n)[i] = std::move(value);
        return;
      }
      if (present) {
        slot = &Children(n)[i];
        continue;
      }
      if (shift == 0) {
        OpenSlot(Values(n), count, i, std::move(value));
      } else {
        OpenSlot(Children(n), count, i,
                 Chain(key, shift - kBits, std::move(value)));
      }
      n->bitmap |= bit;
      ++size_;
      return;
    }
  }

  /// Removes `key` if present. Nodes emptied by the removal are freed.
  void Erase(K key) {
    if (!Contains(key)) return;
    Node** path[kMaxShift / kBits + 1];
    unsigned depth = 0;
    Node** slot = &root_;
    for (unsigned shift = shift_;; shift -= kBits) {
      Node* n = Own(slot, std::popcount((*slot)->bitmap));
      path[depth++] = slot;
      if (shift == 0) break;
      slot = &Children(n)[Rank(n->bitmap, Bit(key, shift))];
    }
    --size_;
    for (unsigned shift = 0; depth-- > 0; shift += kBits) {
      Node* n = *path[depth];
      const uint32_t bit = Bit(key, shift);
      const unsigned count = std::popcount(n->bitmap);
      const unsigned i = Rank(n->bitmap, bit);
      if (shift == 0)
        CloseSlot(Values(n), count, i);
      else
        CloseSlot(Children(n), count, i);
      n->bitmap &= ~bit;
      if (n->bitmap != 0) return;
      Free(n);  // private and empty; its parent drops the slot next
      *path[depth] = nullptr;
    }
    shift_ = 0;  // the root itself emptied
  }

  /// In-key-order traversal; return false from `fn(key, value)` to stop
  /// early. Returns false iff `fn` stopped it.
  template <typename Fn>
  bool ForEach(Fn&& fn) const {
    return root_ == nullptr || Walk(root_, shift_, 0, fn);
  }

 private:
  static constexpr unsigned kBits = 5;
  static constexpr unsigned kMaxShift =
      (std::numeric_limits<K>::digits - 1) / kBits * kBits;

  struct Node {
    std::atomic<uint32_t> refs{1};
    uint32_t bitmap = 0;
    bool leaf = false;
    uint8_t capacity = 0;  // slots allocated; popcount(bitmap) are live
  };

  static constexpr size_t RoundUp(size_t n, size_t a) {
    return (n + a - 1) / a * a;
  }
  static constexpr size_t kChildOffset = RoundUp(sizeof(Node), alignof(Node*));
  static constexpr size_t kValueOffset = RoundUp(sizeof(Node), alignof(V));
  static_assert(alignof(V) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  static bool Covers(uint64_t key, unsigned shift) {
    return shift >= kMaxShift || (key >> shift >> kBits) == 0;
  }
  static uint32_t Bit(uint64_t key, unsigned shift) {
    return uint32_t{1} << ((key >> shift) & 31);
  }
  static unsigned Rank(uint32_t bitmap, uint32_t bit) {
    return std::popcount(bitmap & (bit - 1));
  }
  static unsigned CapacityFor(unsigned count) { return std::bit_ceil(count); }

  static Node** Children(Node* n) {
    return std::launder(reinterpret_cast<Node**>(
        reinterpret_cast<unsigned char*>(n) + kChildOffset));
  }
  static Node* const* Children(const Node* n) {
    return Children(const_cast<Node*>(n));
  }
  static V* Values(Node* n) {
    return std::launder(reinterpret_cast<V*>(
        reinterpret_cast<unsigned char*>(n) + kValueOffset));
  }
  static const V* Values(const Node* n) { return Values(const_cast<Node*>(n)); }

  static Node* Allocate(bool leaf, unsigned capacity) {
    const size_t bytes = leaf ? kValueOffset + capacity * sizeof(V)
                              : kChildOffset + capacity * sizeof(Node*);
    Node* n = new (::operator new(bytes)) Node;
    n->leaf = leaf;
    n->capacity = static_cast<uint8_t>(capacity);
    return n;
  }
  /// Frees the node's memory only; its slots must already be dead.
  static void Free(Node* n) {
    n->~Node();
    ::operator delete(n);
  }

  static void Release(Node* n) {
    // A count of 1 is ours alone: no other holder can raise it.
    if (n == nullptr ||
        (n->refs.load(std::memory_order_acquire) != 1 &&
         n->refs.fetch_sub(1, std::memory_order_acq_rel) != 1))
      return;
    const unsigned count = std::popcount(n->bitmap);
    if (n->leaf) {
      if constexpr (!std::is_trivially_destructible_v<V>)
        for (unsigned i = 0; i < count; ++i) Values(n)[i].~V();
    } else {
      for (unsigned i = 0; i < count; ++i) Release(Children(n)[i]);
    }
    Free(n);
  }

  /// Makes *slot private with room for `need` slots and returns it: the
  /// node itself when its count is 1 (the caller has made every node
  /// above it private already), else a copy that replaces it in *slot.
  static Node* Own(Node** slot, unsigned need) {
    Node* n = *slot;
    const unsigned count = std::popcount(n->bitmap);
    const bool private_node = n->refs.load(std::memory_order_acquire) == 1;
    if (private_node && need <= n->capacity) return n;
    Node* c = Allocate(n->leaf, CapacityFor(need));
    c->bitmap = n->bitmap;
    if (n->leaf) {
      for (unsigned i = 0; i < count; ++i) {
        if (private_node) {
          new (&Values(c)[i]) V(std::move(Values(n)[i]));
          Values(n)[i].~V();
        } else {
          new (&Values(c)[i]) V(Values(n)[i]);
        }
      }
    } else {
      std::memcpy(Children(c), Children(n), count * sizeof(Node*));
      if (!private_node)
        for (unsigned i = 0; i < count; ++i)
          Children(c)[i]->refs.fetch_add(1, std::memory_order_relaxed);
    }
    if (private_node)
      Free(n);  // moved out: only the memory is left
    else
      Release(n);  // drop this parent's reference; other holders keep it
    *slot = c;
    return c;
  }

  /// Shifts slots [i, count) up one (the node has room) and puts `x` at i.
  template <typename T>
  static void OpenSlot(T* slots, unsigned count, unsigned i, T x) {
    if (i == count) {
      new (&slots[count]) T(std::move(x));
      return;
    }
    new (&slots[count]) T(std::move(slots[count - 1]));
    for (unsigned j = count - 1; j > i; --j) slots[j] = std::move(slots[j - 1]);
    slots[i] = std::move(x);
  }
  /// Drops slot i (a child slot's node is already freed) and shifts the
  /// rest down.
  template <typename T>
  static void CloseSlot(T* slots, unsigned count, unsigned i) {
    for (unsigned j = i; j + 1 < count; ++j) slots[j] = std::move(slots[j + 1]);
    slots[count - 1].~T();
  }

  /// A fresh path holding only `key`, from a node at `shift` down to
  /// its leaf.
  static Node* Chain(uint64_t key, unsigned shift, V value) {
    Node* n = Allocate(true, 1);
    new (&Values(n)[0]) V(std::move(value));
    n->bitmap = Bit(key, 0);
    for (unsigned s = kBits; s <= shift; s += kBits) {
      Node* up = Allocate(false, 1);
      Children(up)[0] = n;
      up->bitmap = Bit(key, s);
      n = up;
    }
    return n;
  }

  /// Puts a new root above the current one, covering 5 more key bits.
  void GrowRoot() {
    Node* up = Allocate(false, 2);
    Children(up)[0] = root_;
    up->bitmap = 1;
    root_ = up;
    shift_ += kBits;
  }

  template <typename Fn>
  static bool Walk(const Node* n, unsigned shift, uint64_t prefix, Fn& fn) {
    uint32_t bits = n->bitmap;
    for (unsigned i = 0; bits != 0; ++i, bits &= bits - 1) {
      const uint64_t key =
          prefix | (static_cast<uint64_t>(std::countr_zero(bits)) << shift);
      if (shift == 0) {
        if (!fn(static_cast<K>(key), Values(n)[i])) return false;
      } else if (!Walk(Children(n)[i], shift - kBits, key, fn)) {
        return false;
      }
    }
    return true;
  }

  Node* root_ = nullptr;
  unsigned shift_ = 0;  // the root's shift
  size_t size_ = 0;
};

}  // namespace mdm::er

#endif  // MDM_ER_PMAP_H_
