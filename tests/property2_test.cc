// Second property-test batch: heap-file model equivalence and executor
// strategy equivalence (push-down vs naive must agree on every query).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <type_traits>

#include "common/random.h"
#include "common/strings.h"
#include "ddl/parser.h"
#include "er/database.h"
#include "net/connection.h"
#include "quel/quel.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"

namespace mdm {
namespace {

// ----------------------------------------------------------------------
// Heap file vs a std::map model, across buffer-pool sizes (eviction
// pressure is part of the parameter sweep).
// ----------------------------------------------------------------------

struct HeapParam {
  uint64_t seed;
  uint64_t pool_frames;
  int32_t ops;
  // Explicit tail field: with no padding, every byte gtest prints into
  // the case name is defined, so the name is the same in every build.
  int32_t reserved = 0;
};
static_assert(sizeof(HeapParam) == 24 &&
                  std::has_unique_object_representations_v<HeapParam>,
              "HeapParam must have no padding");

class HeapFilePropertyTest : public testing::TestWithParam<HeapParam> {};

TEST_P(HeapFilePropertyTest, ModelEquivalenceUnderEviction) {
  const HeapParam p = GetParam();
  storage::MemoryDiskManager dm;
  storage::BufferPool pool(&dm, p.pool_frames);
  auto first = storage::HeapFile::Create(&pool);
  ASSERT_TRUE(first.ok());
  storage::HeapFile hf(&pool, *first);

  std::map<std::string, std::string> model;  // rid-key -> record
  auto rid_key = [](const storage::Rid& rid) {
    return StrFormat("%u:%u", rid.page_id, rid.slot);
  };
  std::vector<std::pair<storage::Rid, std::string>> live;

  Rng rng(p.seed);
  for (int op = 0; op < p.ops; ++op) {
    double roll = rng.NextDouble();
    if (roll < 0.55) {
      std::string rec(rng.Range(1, 300),
                      static_cast<char>('a' + rng.Uniform(26)));
      auto rid = hf.Append(rec);
      ASSERT_TRUE(rid.ok());
      model[rid_key(*rid)] = rec;
      live.emplace_back(*rid, rec);
    } else if (roll < 0.75 && !live.empty()) {
      size_t idx = rng.Uniform(live.size());
      ASSERT_TRUE(hf.Delete(live[idx].first).ok());
      model.erase(rid_key(live[idx].first));
      live.erase(live.begin() + idx);
    } else if (!live.empty()) {
      size_t idx = rng.Uniform(live.size());
      std::string rec(rng.Range(1, 200), 'u');
      Status s = hf.Update(live[idx].first, rec);
      if (s.ok()) {
        model[rid_key(live[idx].first)] = rec;
        live[idx].second = rec;
      } else {
        // In-place update can fail when the page is full; the record
        // must be unchanged.
        std::string out;
        ASSERT_TRUE(hf.Read(live[idx].first, &out).ok());
        EXPECT_EQ(out, live[idx].second);
      }
    }
  }
  // Full-scan equivalence.
  std::map<std::string, std::string> scanned;
  ASSERT_TRUE(hf.Scan([&](const storage::Rid& rid, std::string_view rec) {
                  scanned[rid_key(rid)] = std::string(rec);
                  return true;
                })
                  .ok());
  EXPECT_EQ(scanned, model);
  // Point reads agree.
  for (const auto& [rid, expected] : live) {
    std::string out;
    ASSERT_TRUE(hf.Read(rid, &out).ok());
    EXPECT_EQ(out, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HeapFilePropertyTest,
    testing::Values(HeapParam{1, 2, 300},     // brutal eviction pressure
                    HeapParam{7, 8, 1000},
                    HeapParam{42, 64, 3000}));

// ----------------------------------------------------------------------
// QUEL: push-down and naive evaluation must produce identical rows for
// randomized databases and a family of queries.
// ----------------------------------------------------------------------

class QuelStrategyPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(QuelStrategyPropertyTest, PushdownMatchesNaive) {
  Rng rng(GetParam());
  er::Database db;
  ASSERT_TRUE(ddl::ExecuteDdl(R"(
    define entity CHORD (name = integer)
    define entity NOTE (name = integer, octave = integer)
    define ordering note_in_chord (NOTE) under CHORD
  )",
                              &db)
                  .ok());
  int chords = static_cast<int>(rng.Range(2, 8));
  int note_name = 0;
  for (int c = 0; c < chords; ++c) {
    auto chord = db.CreateEntity("CHORD");
    ASSERT_TRUE(db.SetAttribute(*chord, "name", rel::Value::Int(c)).ok());
    int notes = static_cast<int>(rng.Range(0, 6));
    for (int n = 0; n < notes; ++n) {
      auto note = db.CreateEntity("NOTE");
      ASSERT_TRUE(
          db.SetAttribute(*note, "name", rel::Value::Int(note_name++)).ok());
      ASSERT_TRUE(db.SetAttribute(*note, "octave",
                                  rel::Value::Int(rng.Range(2, 6)))
                      .ok());
      ASSERT_TRUE(db.AppendChild("note_in_chord", *chord, *note).ok());
    }
  }
  const std::string queries[] = {
      "range of n1, n2 is NOTE\n"
      "retrieve (n1.name) where n1 before n2 in note_in_chord",
      "range of n1, n2 is NOTE\n"
      "retrieve (n1.name, n2.name) where n1 after n2 in note_in_chord "
      "and n2.octave = 4",
      "range of n is NOTE\nrange of c is CHORD\n"
      "retrieve (n.name, c.name) where n under c in note_in_chord "
      "and c.name > 1",
      "range of n is NOTE\nretrieve (n.name) "
      "where n.octave >= 3 and n.octave <= 4 or n.name = 0",
      "range of n is NOTE\nrange of c is CHORD\n"
      "retrieve (k = count(n)) where n under c in note_in_chord "
      "and not c.name = 0",
      "retrieve unique (NOTE.octave)",
  };
  mdm::Connection session = mdm::Connection::Local(&db);
  for (const std::string& q : queries) {
    auto fast = session.Execute(q);
    auto slow = session.local_session()->ExecuteNaive(q);
    ASSERT_TRUE(fast.ok()) << q << " -> " << fast.status().ToString();
    ASSERT_TRUE(slow.ok()) << q << " -> " << slow.status().ToString();
    // Compare as multisets of stringified rows (join order may differ).
    auto rows = [](const quel::ResultSet& rs) {
      std::vector<std::string> out;
      for (const auto& row : rs.rows) {
        std::string s;
        for (const auto& v : row) s += v.ToString() + "|";
        out.push_back(s);
      }
      std::sort(out.begin(), out.end());
      return out;
    };
    EXPECT_EQ(rows(*fast), rows(*slow)) << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuelStrategyPropertyTest,
                         testing::Values(2, 29, 578, 1080, 9001));

}  // namespace
}  // namespace mdm
