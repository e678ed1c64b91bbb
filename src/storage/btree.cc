#include "storage/btree.h"

#include <algorithm>
#include <cassert>

#include "common/strings.h"

namespace mdm::storage {

struct BTree::Node {
  bool is_leaf;
  // Internal nodes: keys.size() + 1 == children.size(); subtree
  // children[i] holds entries e with keys[i-1] <= e < keys[i] in (key, id)
  // order, so the leaf chain is (key, id)-sorted. Duplicates of one key
  // may straddle a separator: a key search descends to the leftmost
  // leaf that can hold it, then walks the chain.
  std::vector<Entry> keys;
  std::vector<std::unique_ptr<Node>> children;  // internal only
  std::vector<Entry> entries;                   // leaf only
  Node* next = nullptr;                         // leaf chain

  explicit Node(bool leaf) : is_leaf(leaf) {}
};

BTree::BTree(size_t max_entries)
    : root_(std::make_unique<Node>(/*leaf=*/true)),
      max_entries_(max_entries < 4 ? 4 : max_entries) {}

BTree::~BTree() = default;
BTree::BTree(BTree&&) noexcept = default;
BTree& BTree::operator=(BTree&&) noexcept = default;

BTree::Node* BTree::FindLeaf(int64_t key) const {
  // Descend past every separator whose key is below `key`: that is the
  // LEFTMOST leaf that can contain `key`; the caller walks the leaf
  // chain rightward from there.
  Node* node = root_.get();
  while (!node->is_leaf) {
    size_t i = static_cast<size_t>(
        std::lower_bound(node->keys.begin(), node->keys.end(), key,
                         [](const Entry& s, int64_t k) { return s.key < k; }) -
        node->keys.begin());
    node = node->children[i].get();
  }
  return node;
}

void BTree::SplitChild(Node* parent, size_t child_index) {
  Node* child = parent->children[child_index].get();
  auto right = std::make_unique<Node>(child->is_leaf);
  Entry separator;
  if (child->is_leaf) {
    size_t mid = child->entries.size() / 2;
    separator = child->entries[mid];
    right->entries.assign(child->entries.begin() + mid, child->entries.end());
    child->entries.resize(mid);
    right->next = child->next;
    child->next = right.get();
  } else {
    size_t mid = child->keys.size() / 2;
    separator = child->keys[mid];
    right->keys.assign(child->keys.begin() + mid + 1, child->keys.end());
    for (size_t i = mid + 1; i < child->children.size(); ++i)
      right->children.push_back(std::move(child->children[i]));
    child->keys.resize(mid);
    child->children.resize(mid + 1);
  }
  parent->keys.insert(parent->keys.begin() + child_index, separator);
  parent->children.insert(parent->children.begin() + child_index + 1,
                          std::move(right));
}

void BTree::InsertNonFull(Node* node, int64_t key, uint64_t id) {
  const Entry e{key, id};
  while (!node->is_leaf) {
    size_t i = static_cast<size_t>(
        std::upper_bound(node->keys.begin(), node->keys.end(), e) -
        node->keys.begin());
    Node* child = node->children[i].get();
    bool full = child->is_leaf ? child->entries.size() >= max_entries_
                               : child->keys.size() >= max_entries_;
    if (full) {
      SplitChild(node, i);
      if (!(e < node->keys[i])) ++i;
      child = node->children[i].get();
    }
    node = child;
  }
  node->entries.insert(
      std::upper_bound(node->entries.begin(), node->entries.end(), e), e);
}

void BTree::Insert(int64_t key, uint64_t id) {
  Node* root = root_.get();
  bool full = root->is_leaf ? root->entries.size() >= max_entries_
                            : root->keys.size() >= max_entries_;
  if (full) {
    auto new_root = std::make_unique<Node>(/*leaf=*/false);
    new_root->children.push_back(std::move(root_));
    root_ = std::move(new_root);
    SplitChild(root_.get(), 0);
  }
  InsertNonFull(root_.get(), key, id);
  ++size_;
}

bool BTree::Erase(int64_t key, uint64_t id) {
  Node* leaf = FindLeaf(key);
  // Duplicates of `key` may continue into following leaves.
  while (leaf != nullptr) {
    auto it = std::lower_bound(
        leaf->entries.begin(), leaf->entries.end(), key,
        [](const Entry& e, int64_t k) { return e.key < k; });
    for (; it != leaf->entries.end() && it->key == key; ++it) {
      if (it->id == id) {
        leaf->entries.erase(it);
        --size_;
        return true;
      }
    }
    if (it != leaf->entries.end()) return false;  // passed all dups
    leaf = leaf->next;
    if (leaf != nullptr && !leaf->entries.empty() &&
        leaf->entries.front().key > key)
      return false;
  }
  return false;
}

std::vector<uint64_t> BTree::Find(int64_t key) const {
  std::vector<uint64_t> out;
  for (const Node* leaf = FindLeaf(key); leaf != nullptr; leaf = leaf->next) {
    auto it = std::lower_bound(
        leaf->entries.begin(), leaf->entries.end(), key,
        [](const Entry& e, int64_t k) { return e.key < k; });
    for (; it != leaf->entries.end(); ++it) {
      if (it->key != key) return out;
      out.push_back(it->id);
    }
  }
  return out;
}

void BTree::ScanAll(
    const std::function<bool(int64_t, uint64_t)>& fn) const {
  const Node* node = root_.get();
  while (!node->is_leaf) node = node->children.front().get();
  while (node != nullptr) {
    for (const Entry& e : node->entries)
      if (!fn(e.key, e.id)) return;
    node = node->next;
  }
}

int BTree::Height() const {
  int h = 1;
  const Node* node = root_.get();
  while (!node->is_leaf) {
    ++h;
    node = node->children.front().get();
  }
  return h;
}

Status BTree::CheckInvariants() const {
  // 1) Uniform leaf depth.
  struct Frame {
    const Node* node;
    int depth;
  };
  std::vector<Frame> stack{{root_.get(), 1}};
  int leaf_depth = -1;
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    if (f.node->is_leaf) {
      if (leaf_depth == -1) leaf_depth = f.depth;
      if (f.depth != leaf_depth)
        return Corruption("b+tree leaves at non-uniform depth");
      for (size_t i = 1; i < f.node->entries.size(); ++i) {
        const Entry& a = f.node->entries[i - 1];
        const Entry& b = f.node->entries[i];
        if (!(a < b))
          return Corruption("b+tree leaf entries out of order");
      }
    } else {
      if (f.node->children.size() != f.node->keys.size() + 1)
        return Corruption("b+tree internal child/key count mismatch");
      if (!std::is_sorted(f.node->keys.begin(), f.node->keys.end()))
        return Corruption("b+tree internal keys out of order");
      // Push children right-to-left so traversal visits leaves
      // left-to-right.
      for (size_t i = f.node->children.size(); i-- > 0;)
        stack.push_back({f.node->children[i].get(), f.depth + 1});
    }
  }
  // 2) Leaf chain yields (key, id)-sorted entries and exactly size_
  // items.
  size_t count = 0;
  Entry last{};
  bool ordered = true;
  ScanAll([&](int64_t key, uint64_t id) {
    const Entry e{key, id};
    if (count > 0 && !(last < e)) ordered = false;
    last = e;
    ++count;
    return true;
  });
  if (!ordered) return Corruption("b+tree leaf chain out of order");
  if (count != size_)
    return Corruption(
        StrFormat("b+tree size mismatch: chain has %zu, size() is %zu", count,
                  size_));
  return Status::OK();
}

}  // namespace mdm::storage
