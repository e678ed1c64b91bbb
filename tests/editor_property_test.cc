// A simulated score-editor client (§2): random editing sessions against
// the MDM, checking that the temporal hierarchy's invariants hold after
// every burst of edits — the consistency a shared data manager must
// guarantee its clients.
#include <gtest/gtest.h>

#include <set>
#include <type_traits>

#include "cmn/schema.h"
#include "cmn/score_builder.h"
#include "cmn/temporal.h"
#include "common/random.h"
#include "er/database.h"
#include "mtime/tempo_map.h"

namespace mdm::cmn {
namespace {

struct EditorParam {
  uint64_t seed;
  int32_t edits;
  // Explicit tail field: with no padding, every byte gtest prints into
  // the case name is defined, so the name is the same in every build.
  int32_t reserved = 0;
};
static_assert(sizeof(EditorParam) == 16 &&
                  std::has_unique_object_representations_v<EditorParam>,
              "EditorParam must have no padding");

class EditorPropertyTest : public testing::TestWithParam<EditorParam> {};

TEST_P(EditorPropertyTest, HierarchyInvariantsSurviveRandomEditing) {
  const EditorParam param = GetParam();
  er::Database db;
  ASSERT_TRUE(InstallCmnSchema(&db).ok());
  ScoreBuilder builder(&db);
  auto score = builder.CreateScore("editing session");
  auto movement = builder.AddMovement(*score, "I");
  auto voice = builder.AddVoice(1);
  std::vector<er::EntityId> measures;
  for (int m = 1; m <= 4; ++m) {
    auto measure = builder.AddMeasure(*movement, m, {4, 4});
    measures.push_back(*measure);
  }

  std::vector<er::EntityId> live_notes;
  std::vector<er::EntityId> live_chords;
  Rng rng(param.seed);

  for (int edit = 0; edit < param.edits; ++edit) {
    double roll = rng.NextDouble();
    if (roll < 0.5) {
      // Insert a note (possibly creating a chord at a random sync).
      er::EntityId measure = measures[rng.Uniform(measures.size())];
      Rational beat(rng.Range(0, 15), 4);  // sixteenth grid in 4/4
      auto sync = builder.GetOrAddSync(measure, beat);
      ASSERT_TRUE(sync.ok());
      er::EntityId chord;
      auto chords_here = db.Children(kChordInSync, *sync);
      if (!chords_here->empty() && rng.Bernoulli(0.5)) {
        chord = chords_here->front();
      } else {
        auto fresh = builder.AddChord(*sync, *voice,
                                      Rational(1, 1 + rng.Uniform(4)));
        ASSERT_TRUE(fresh.ok());
        chord = *fresh;
        live_chords.push_back(chord);
      }
      auto note =
          builder.AddNoteMidi(chord, 48 + static_cast<int>(rng.Uniform(36)));
      ASSERT_TRUE(note.ok());
      live_notes.push_back(*note);
    } else if (roll < 0.75 && !live_notes.empty()) {
      // Delete a random note entirely.
      size_t idx = rng.Uniform(live_notes.size());
      ASSERT_TRUE(db.DeleteEntity(live_notes[idx]).ok());
      live_notes.erase(live_notes.begin() + idx);
    } else if (!live_chords.empty()) {
      // Delete a whole chord (its notes detach but survive as roots;
      // a real editor would cascade — exercise both paths).
      size_t idx = rng.Uniform(live_chords.size());
      er::EntityId chord = live_chords[idx];
      auto notes = db.Children(kNoteInChord, chord);
      ASSERT_TRUE(notes.ok());
      if (rng.Bernoulli(0.5)) {
        // Cascade by hand first.
        for (er::EntityId note : *notes) {
          ASSERT_TRUE(db.DeleteEntity(note).ok());
          live_notes.erase(
              std::find(live_notes.begin(), live_notes.end(), note));
        }
      }
      ASSERT_TRUE(db.DeleteEntity(chord).ok());
      live_chords.erase(live_chords.begin() + idx);
    }

    if (edit % 64 != 63) continue;
    // ---- invariant audit ----
    // 1. Syncs in every measure are strictly sorted by beat.
    for (er::EntityId measure : measures) {
      auto syncs = db.Children(kSyncInMeasure, measure);
      ASSERT_TRUE(syncs.ok());
      Rational prev(-1);
      for (er::EntityId sync : *syncs) {
        auto beat = db.GetAttribute(sync, "beat");
        ASSERT_TRUE(beat.ok());
        ASSERT_TRUE(prev < beat->AsRational());
        prev = beat->AsRational();
      }
    }
    // 2. Every live note is under at most one chord, and that chord
    // lists it exactly once.
    for (er::EntityId note : live_notes) {
      auto parent = db.ParentOf(kNoteInChord, note);
      ASSERT_TRUE(parent.ok());
      if (*parent == er::kInvalidEntityId) continue;  // orphaned by edits
      auto sibs = db.Children(kNoteInChord, *parent);
      ASSERT_TRUE(sibs.ok());
      EXPECT_EQ(std::count(sibs->begin(), sibs->end(), note), 1);
    }
    // 3. Performance extraction never fails and never emits deleted
    // notes.
    mtime::TempoMap tempo;
    auto performed = ExtractPerformance(&db, *score, tempo);
    ASSERT_TRUE(performed.ok());
    std::set<er::EntityId> live_set(live_notes.begin(), live_notes.end());
    for (const PerformedNote& pn : *performed)
      EXPECT_TRUE(live_set.count(pn.source_note) != 0);
    // 4. No dangling refs anywhere.
    EXPECT_EQ(db.CountDanglingRefs(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sessions, EditorPropertyTest,
                         testing::Values(EditorParam{1, 128},
                                         EditorParam{58, 512},
                                         EditorParam{17, 1024}));

}  // namespace
}  // namespace mdm::cmn
