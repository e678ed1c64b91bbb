#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/btree.h"
#include "storage/wal.h"

namespace mdm::storage {
namespace {

TEST(BTreeTest, InsertFindSmall) {
  BTree tree(4);
  tree.Insert(5, 100);
  tree.Insert(3, 101);
  tree.Insert(8, 102);
  EXPECT_EQ(tree.size(), 3u);
  auto hits = tree.Find(3);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 101u);
  EXPECT_EQ(tree.Find(8).size(), 1u);
  EXPECT_TRUE(tree.Find(7).empty());
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

TEST(BTreeTest, SplitsGrowHeight) {
  BTree tree(4);
  for (int64_t i = 0; i < 100; ++i) tree.Insert(i, static_cast<uint64_t>(i));
  EXPECT_GT(tree.Height(), 1);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  for (int64_t i = 0; i < 100; ++i)
    EXPECT_EQ(tree.Find(i), std::vector<uint64_t>{static_cast<uint64_t>(i)});
}

TEST(BTreeTest, DuplicateKeys) {
  BTree tree(4);
  for (uint64_t id = 10; id > 0; --id) tree.Insert(42, id);
  auto hits = tree.Find(42);
  EXPECT_EQ(hits.size(), 10u);
  EXPECT_TRUE(std::is_sorted(hits.begin(), hits.end()));  // id order
  // Erase a specific duplicate.
  EXPECT_TRUE(tree.Erase(42, 5));
  EXPECT_FALSE(tree.Erase(42, 5));
  hits = tree.Find(42);
  EXPECT_EQ(hits.size(), 9u);
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

TEST(BTreeTest, RangeScanOrderedAndBounded) {
  BTree tree(8);
  for (int64_t i = 100; i >= 0; --i)
    tree.Insert(i * 2, static_cast<uint64_t>(i));  // even keys 0..200
  // A range scan is a full scan that skips below `lo` and stops past
  // `hi`; the early stop must end the walk.
  std::vector<int64_t> keys;
  int visited = 0;
  tree.ScanAll([&](int64_t k, uint64_t) {
    ++visited;
    if (k > 30) return false;
    if (k >= 10) keys.push_back(k);
    return true;
  });
  ASSERT_EQ(keys.size(), 11u);  // 10,12,...,30
  EXPECT_EQ(keys.front(), 10);
  EXPECT_EQ(keys.back(), 30);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(visited, 17);  // 0..30, then 32 stops it
}

TEST(BTreeTest, PropertyAgainstMultimap) {
  // Randomized property test: the tree behaves exactly like a sorted
  // multimap under mixed inserts and erases.
  Rng rng(2026);
  BTree tree(6);
  std::multimap<int64_t, uint64_t> model;
  for (int step = 0; step < 5000; ++step) {
    int64_t key = rng.Range(0, 200);
    if (rng.Bernoulli(0.3) && !model.empty()) {
      // Erase a random existing (key, rid).
      auto it = model.lower_bound(key);
      if (it == model.end()) it = model.begin();
      bool tree_erased = tree.Erase(it->first, it->second);
      EXPECT_TRUE(tree_erased);
      model.erase(it);
    } else {
      uint64_t id = static_cast<uint64_t>(step);
      tree.Insert(key, id);
      model.emplace(key, id);
    }
  }
  EXPECT_EQ(tree.size(), model.size());
  ASSERT_TRUE(tree.CheckInvariants().ok());
  // Every model key is found with the same multiplicity.
  for (int64_t k = 0; k <= 200; ++k) {
    EXPECT_EQ(tree.Find(k).size(), model.count(k)) << "key " << k;
  }
  // Full scan matches the model ordering: by key, then by id (ids are
  // inserted in increasing order, which is the model's order within a
  // key).
  std::vector<std::pair<int64_t, uint64_t>> scanned;
  tree.ScanAll([&](int64_t k, uint64_t id) {
    scanned.emplace_back(k, id);
    return true;
  });
  std::vector<std::pair<int64_t, uint64_t>> expected(model.begin(),
                                                     model.end());
  EXPECT_EQ(scanned, expected);
}

TEST(WalTest, CommittedOpsReplayInOrder) {
  MemoryWalSink sink;
  WalWriter wal(&sink);
  auto t1 = wal.Begin();
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(wal.LogOp(*t1, "op1").ok());
  ASSERT_TRUE(wal.LogOp(*t1, "op2").ok());
  ASSERT_TRUE(wal.Commit(*t1).ok());

  std::vector<std::string> applied;
  auto n = WalRecover(sink.bytes(), [&](const WalRecord& rec) {
    applied.push_back(rec.payload);
    return Status::OK();
  });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 4u);  // begin, 2 ops, commit
  ASSERT_EQ(applied.size(), 2u);
  EXPECT_EQ(applied[0], "op1");
  EXPECT_EQ(applied[1], "op2");
}

TEST(WalTest, UncommittedAndAbortedOpsAreDiscarded) {
  MemoryWalSink sink;
  WalWriter wal(&sink);
  auto t1 = wal.Begin();  // committed
  auto t2 = wal.Begin();  // aborted
  auto t3 = wal.Begin();  // never finished (crash)
  ASSERT_TRUE(wal.LogOp(*t1, "keep").ok());
  ASSERT_TRUE(wal.LogOp(*t2, "aborted").ok());
  ASSERT_TRUE(wal.LogOp(*t3, "in-flight").ok());
  ASSERT_TRUE(wal.Abort(*t2).ok());
  ASSERT_TRUE(wal.Commit(*t1).ok());

  std::vector<std::string> applied;
  ASSERT_TRUE(WalRecover(sink.bytes(), [&](const WalRecord& rec) {
                applied.push_back(rec.payload);
                return Status::OK();
              })
                  .ok());
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0], "keep");
}

TEST(WalTest, TornTailStopsReplayCleanly) {
  MemoryWalSink sink;
  WalWriter wal(&sink);
  auto t1 = wal.Begin();
  ASSERT_TRUE(wal.LogOp(*t1, "committed-op").ok());
  ASSERT_TRUE(wal.Commit(*t1).ok());
  size_t good_size = sink.bytes().size();
  auto t2 = wal.Begin();
  ASSERT_TRUE(wal.LogOp(*t2, "will-be-torn").ok());
  ASSERT_TRUE(wal.Commit(*t2).ok());
  // Crash: cut the log mid-way through txn 2's records.
  sink.TruncateTo(good_size + 3);

  std::vector<std::string> applied;
  ASSERT_TRUE(WalRecover(sink.bytes(), [&](const WalRecord& rec) {
                applied.push_back(rec.payload);
                return Status::OK();
              })
                  .ok());
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0], "committed-op");
}

TEST(WalTest, CorruptMiddleRecordEndsReplayAtCorruption) {
  MemoryWalSink sink;
  WalWriter wal(&sink);
  auto t1 = wal.Begin();
  ASSERT_TRUE(wal.LogOp(*t1, "op-a").ok());
  ASSERT_TRUE(wal.Commit(*t1).ok());
  // Flip a byte inside the first record's payload area.
  auto& bytes = const_cast<std::vector<uint8_t>&>(sink.bytes());
  bytes[10] ^= 0xFF;
  std::vector<std::string> applied;
  ASSERT_TRUE(WalRecover(sink.bytes(), [&](const WalRecord& rec) {
                applied.push_back(rec.payload);
                return Status::OK();
              })
                  .ok());
  EXPECT_TRUE(applied.empty());
}

}  // namespace
}  // namespace mdm::storage
