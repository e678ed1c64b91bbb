// Second property-test batch: executor strategy equivalence (push-down
// vs naive must agree on every query).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "common/strings.h"
#include "ddl/parser.h"
#include "er/database.h"
#include "net/connection.h"
#include "quel/quel.h"

namespace mdm {
namespace {

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
