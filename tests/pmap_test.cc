// er::PMap, the persistent id-keyed map under er::Tables, checked
// against std::map: a seeded model fuzz with copies taken along the
// way, the root-growth boundaries of the radix trie, and white-box
// checks that a write edits in place exactly when no copy shares the
// path.
#include "er/pmap.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"

namespace mdm::er {
namespace {

template <typename K, typename V>
std::map<K, V> Contents(const PMap<K, V>& m) {
  std::map<K, V> out;
  K last = 0;
  bool first = true;
  m.ForEach([&](const K& k, const V& v) {
    EXPECT_TRUE(first || last < k) << "ForEach out of key order at " << k;
    first = false;
    last = k;
    out.emplace(k, v);
    return true;
  });
  return out;
}

template <typename K, typename V>
void ExpectSame(const PMap<K, V>& m, const std::map<K, V>& model) {
  ASSERT_EQ(m.size(), model.size());
  EXPECT_EQ(m.empty(), model.empty());
  EXPECT_EQ(Contents(m), model);
  for (const auto& [k, v] : model) {
    const V* found = m.Find(k);
    ASSERT_NE(found, nullptr) << k;
    EXPECT_EQ(*found, v) << k;
  }
}

// Keys mix a dense id range (full leaves), sparse ids that force root
// growth, and the extremes of the key space.
uint64_t DrawKey(Rng& rng) {
  switch (rng.Uniform(8)) {
    case 0:
      return rng.Next();
    case 1:
      return std::numeric_limits<uint64_t>::max() - rng.Uniform(40);
    case 2:
      return (uint64_t{1} << 32) + rng.Uniform(70);
    case 3:
      return rng.Uniform(40);
    default:
      return rng.Uniform(3000);
  }
}

class PMapModelFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PMapModelFuzz, MatchesStdMapAndCopiesNeverChange) {
  Rng rng(GetParam());
  PMap<uint64_t, std::string> m;
  std::map<uint64_t, std::string> model;
  // Copies taken at random points, each with the model it must keep.
  std::vector<std::pair<PMap<uint64_t, std::string>,
                        std::map<uint64_t, std::string>>>
      copies;
  for (int step = 0; step < 6000; ++step) {
    const uint64_t key = DrawKey(rng);
    switch (rng.Uniform(10)) {
      case 0:
      case 1:
      case 2: {  // insert or overwrite
        std::string v = "v" + std::to_string(step);
        m.Insert(key, v);
        model[key] = v;
        break;
      }
      case 3: {  // overwrite an existing key
        if (model.empty()) break;
        auto it = model.lower_bound(key);
        if (it == model.end()) it = model.begin();
        it->second = "o" + std::to_string(step);
        m.Insert(it->first, it->second);
        break;
      }
      case 4:
      case 5: {  // erase, present or not
        auto it = model.lower_bound(key);
        const uint64_t victim =
            it != model.end() && rng.Uniform(2) == 0 ? it->first : key;
        m.Erase(victim);
        model.erase(victim);
        break;
      }
      case 6: {  // find, present or not
        const std::string* found = m.Find(key);
        auto it = model.find(key);
        ASSERT_EQ(found != nullptr, it != model.end()) << key;
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second);
        }
        EXPECT_EQ(m.Contains(key), it != model.end());
        break;
      }
      case 7: {  // ordered walk that stops early
        const size_t stop = rng.Uniform(model.size() + 1);
        std::vector<uint64_t> seen;
        const bool finished = m.ForEach([&](uint64_t k, const std::string&) {
          if (seen.size() == stop) return false;
          seen.push_back(k);
          return true;
        });
        EXPECT_EQ(finished, stop == model.size());
        std::vector<uint64_t> want;
        for (const auto& kv : model) {
          if (want.size() == stop) break;
          want.push_back(kv.first);
        }
        EXPECT_EQ(seen, want);
        break;
      }
      case 8: {  // take a copy; later writes must not reach it
        copies.emplace_back(m, model);
        break;
      }
      case 9: {  // drop a copy, so the paths it shared become private
        if (copies.empty()) break;
        const size_t i = rng.Uniform(copies.size());
        ExpectSame(copies[i].first, copies[i].second);
        copies.erase(copies.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    ASSERT_EQ(m.size(), model.size()) << "step " << step;
    if (step % 500 == 0) ExpectSame(m, model);
  }
  ExpectSame(m, model);
  for (const auto& [copy, want] : copies) ExpectSame(copy, want);

  // Erase everything, in random order, down to empty; the copies keep
  // their contents throughout.
  std::vector<uint64_t> keys;
  for (const auto& kv : model) keys.push_back(kv.first);
  for (size_t i = keys.size(); i > 1; --i)
    std::swap(keys[i - 1], keys[rng.Uniform(i)]);
  for (uint64_t k : keys) {
    m.Erase(k);
    model.erase(k);
  }
  ExpectSame(m, model);
  EXPECT_TRUE(m.empty());
  for (const auto& [copy, want] : copies) ExpectSame(copy, want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PMapModelFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(PMapTest, KeysAcrossEveryRootGrowthBoundary) {
  const std::vector<uint64_t> keys = {
      0, 31, 32, 1023, 1024, uint64_t{1} << 32,
      std::numeric_limits<uint64_t>::max()};
  // Insert in both orders: growth from a small root, and a root sized
  // for the largest key first.
  for (bool ascending : {true, false}) {
    PMap<uint64_t, uint64_t> m;
    std::map<uint64_t, uint64_t> model;
    for (size_t i = 0; i < keys.size(); ++i) {
      const uint64_t k = ascending ? keys[i] : keys[keys.size() - 1 - i];
      m.Insert(k, ~k);
      model[k] = ~k;
      ExpectSame(m, model);
      const uint64_t next = k + 1;  // wraps at the top of the key space
      EXPECT_EQ(m.Contains(next), model.count(next) == 1) << next;
    }
    // Neighbours of each boundary are absent.
    for (uint64_t k : {uint64_t{1}, uint64_t{30}, uint64_t{33},
                       uint64_t{1022}, uint64_t{1025},
                       (uint64_t{1} << 32) - 1, (uint64_t{1} << 32) + 1,
                       std::numeric_limits<uint64_t>::max() - 1})
      EXPECT_EQ(m.Find(k), nullptr) << k;
    // Erase down to empty, then reuse the map.
    for (uint64_t k : keys) {
      m.Erase(k);
      model.erase(k);
      ExpectSame(m, model);
    }
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.Find(0), nullptr);
    m.Insert(5, 6);
    ASSERT_NE(m.Find(5), nullptr);
    EXPECT_EQ(*m.Find(5), 6u);
  }

  PMap<uint32_t, int> narrow;
  narrow.Insert(std::numeric_limits<uint32_t>::max(), 1);
  narrow.Insert(0, 2);
  EXPECT_EQ(*narrow.Find(std::numeric_limits<uint32_t>::max()), 1);
  EXPECT_EQ(*narrow.Find(0), 2);
  EXPECT_EQ(narrow.Find(1u << 31), nullptr);
}

TEST(PMapTest, WritesEditInPlaceOnlyWhenNoCopySharesThePath) {
  PMap<uint64_t, std::string> m;
  for (uint64_t k = 0; k < 2000; ++k) m.Insert(k, "a");

  // Private path: an overwrite reuses the slot.
  const std::string* slot = m.Find(700);
  m.Insert(700, "b");
  EXPECT_EQ(m.Find(700), slot);
  EXPECT_EQ(*slot, "b");

  // Shared path: the write copies the path; the copy keeps "b".
  {
    PMap<uint64_t, std::string> copy = m;
    m.Insert(700, "c");
    EXPECT_NE(m.Find(700), slot);
    EXPECT_EQ(copy.Find(700), slot);
    EXPECT_EQ(*copy.Find(700), "b");
    EXPECT_EQ(*m.Find(700), "c");

    // After that first write the path is private again: a second write
    // to the same leaf, and one to a sibling key, edit in place.
    const std::string* fresh = m.Find(700);
    m.Insert(700, "d");
    m.Insert(701, "e");
    EXPECT_EQ(m.Find(700), fresh);
    EXPECT_EQ(*copy.Find(701), "a");
    // Erasing on a path the copy still shares leaves the copy whole.
    m.Erase(1500);
    EXPECT_NE(copy.Find(1500), nullptr);
    EXPECT_EQ(copy.size(), 2000u);
    EXPECT_EQ(m.size(), 1999u);
  }

  // With the copy gone every node is private again.
  const std::string* again = m.Find(1200);
  m.Insert(1200, "f");
  EXPECT_EQ(m.Find(1200), again);
}

}  // namespace
}  // namespace mdm::er
