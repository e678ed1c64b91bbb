// Property-based tests: randomized sweeps over the core invariants,
// parameterized with TEST_P across sizes, seeds and configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <type_traits>
#include <numeric>
#include <set>

#include "common/random.h"
#include "common/rational.h"
#include "er/database.h"
#include "midi/midi.h"
#include "mtime/tempo_map.h"
#include "sound/sound.h"
#include "storage/btree.h"

namespace mdm {
namespace {

// ----------------------------------------------------------------------
// Rational: field axioms and ordering under random values.
// ----------------------------------------------------------------------

class RationalPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(RationalPropertyTest, FieldAxiomsHold) {
  Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    Rational a(rng.Range(-50, 50), rng.Range(1, 24));
    Rational b(rng.Range(-50, 50), rng.Range(1, 24));
    Rational c(rng.Range(-50, 50), rng.Range(1, 24));
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a + Rational(0), a);
    EXPECT_EQ(a * Rational(1), a);
    EXPECT_EQ(a - a, Rational(0));
    if (!b.IsZero()) {
      EXPECT_EQ((a / b) * b, a);
    }
    // Normalization invariant.
    Rational sum = a + b;
    EXPECT_GT(sum.den(), 0);
    EXPECT_EQ(std::gcd(std::abs(sum.num()), sum.den()), 1);
  }
}

TEST_P(RationalPropertyTest, OrderingIsTotalAndConsistent) {
  Rng rng(GetParam() * 31 + 5);
  for (int i = 0; i < 300; ++i) {
    Rational a(rng.Range(-40, 40), rng.Range(1, 16));
    Rational b(rng.Range(-40, 40), rng.Range(1, 16));
    // Trichotomy.
    int relations = (a < b ? 1 : 0) + (b < a ? 1 : 0) + (a == b ? 1 : 0);
    EXPECT_EQ(relations, 1);
    // Consistency with subtraction.
    EXPECT_EQ(a < b, (a - b).IsNegative());
    // Consistency with double conversion (values are small enough).
    if (a != b) {
      EXPECT_EQ(a < b, a.ToDouble() < b.ToDouble());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RationalPropertyTest,
                         testing::Values(1, 7, 42, 1987, 99991));

// ----------------------------------------------------------------------
// Hierarchical ordering: random mutations never break invariants.
// ----------------------------------------------------------------------

struct OrderingParam {
  uint64_t seed;
  int32_t n_parents;
  int32_t n_children;
  int32_t ops;
  // Explicit tail field: with no padding, every byte gtest prints into
  // the case name is defined, so the name is the same in every build.
  int32_t reserved = 0;
};
static_assert(sizeof(OrderingParam) == 24 &&
                  std::has_unique_object_representations_v<OrderingParam>,
              "OrderingParam must have no padding");

class OrderingPropertyTest : public testing::TestWithParam<OrderingParam> {};

TEST_P(OrderingPropertyTest, ModelEquivalenceUnderRandomOps) {
  const OrderingParam p = GetParam();
  er::Database db;
  ASSERT_TRUE(db.DefineEntityType({"P", {}}).ok());
  ASSERT_TRUE(db.DefineEntityType({"C", {}}).ok());
  ASSERT_TRUE(db.DefineOrdering({"ord", {"C"}, "P"}).ok());

  std::vector<er::EntityId> parents, children;
  for (int i = 0; i < p.n_parents; ++i)
    parents.push_back(*db.CreateEntity("P"));
  for (int i = 0; i < p.n_children; ++i)
    children.push_back(*db.CreateEntity("C"));

  // Reference model: parent -> ordered children.
  std::map<er::EntityId, std::vector<er::EntityId>> model;
  std::map<er::EntityId, er::EntityId> parent_of;

  Rng rng(p.seed);
  for (int op = 0; op < p.ops; ++op) {
    er::EntityId child = children[rng.Uniform(children.size())];
    if (parent_of.count(child) == 0 && rng.Bernoulli(0.7)) {
      er::EntityId parent = parents[rng.Uniform(parents.size())];
      size_t pos = model[parent].empty()
                       ? 0
                       : rng.Uniform(model[parent].size() + 1);
      ASSERT_TRUE(db.InsertChildAt("ord", parent, child, pos).ok());
      model[parent].insert(model[parent].begin() + pos, child);
      parent_of[child] = parent;
    } else if (parent_of.count(child) != 0) {
      ASSERT_TRUE(db.RemoveChild("ord", child).ok());
      auto& sibs = model[parent_of[child]];
      sibs.erase(std::find(sibs.begin(), sibs.end(), child));
      parent_of.erase(child);
    }
  }

  // Invariant 1: children lists match the model exactly (order too).
  for (er::EntityId parent : parents) {
    auto kids = db.Children("ord", parent);
    ASSERT_TRUE(kids.ok());
    EXPECT_EQ(*kids, model[parent]);
  }
  // Invariant 2: ParentOf matches; PositionOf is each child's index.
  for (er::EntityId child : children) {
    auto parent = db.ParentOf("ord", child);
    ASSERT_TRUE(parent.ok());
    if (parent_of.count(child) == 0) {
      EXPECT_EQ(*parent, er::kInvalidEntityId);
    } else {
      EXPECT_EQ(*parent, parent_of[child]);
      auto pos = db.PositionOf("ord", child);
      ASSERT_TRUE(pos.ok());
      const auto& sibs = model[parent_of[child]];
      EXPECT_EQ(sibs[*pos], child);
    }
  }
  // Invariant 3: Before agrees with model positions for same-parent
  // pairs and is false otherwise.
  Rng probe(p.seed ^ 0xABCD);
  for (int i = 0; i < 200; ++i) {
    er::EntityId a = children[probe.Uniform(children.size())];
    er::EntityId b = children[probe.Uniform(children.size())];
    auto before = db.Before("ord", a, b);
    ASSERT_TRUE(before.ok());
    bool expected = false;
    if (a != b && parent_of.count(a) != 0 && parent_of.count(b) != 0 &&
        parent_of[a] == parent_of[b]) {
      const auto& sibs = model[parent_of[a]];
      expected = std::find(sibs.begin(), sibs.end(), a) <
                 std::find(sibs.begin(), sibs.end(), b);
    }
    EXPECT_EQ(*before, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OrderingPropertyTest,
    testing::Values(OrderingParam{3, 1, 8, 50},
                    OrderingParam{11, 4, 32, 300},
                    OrderingParam{2026, 8, 64, 1000},
                    OrderingParam{77, 2, 128, 2000}));

// ----------------------------------------------------------------------
// Recursive orderings: random insertion attempts never create cycles.
// ----------------------------------------------------------------------

class RecursivePropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(RecursivePropertyTest, NoCycleEverForms) {
  er::Database db;
  ASSERT_TRUE(db.DefineEntityType({"G", {}}).ok());
  ASSERT_TRUE(db.DefineOrdering({"nest", {"G"}, "G"}).ok());
  std::vector<er::EntityId> groups;
  for (int i = 0; i < 40; ++i) groups.push_back(*db.CreateEntity("G"));
  Rng rng(GetParam());
  int accepted = 0, rejected = 0;
  for (int op = 0; op < 500; ++op) {
    er::EntityId parent = groups[rng.Uniform(groups.size())];
    er::EntityId child = groups[rng.Uniform(groups.size())];
    Status s = db.AppendChild("nest", parent, child);
    if (s.ok()) ++accepted;
    else ++rejected;
    if (rng.Bernoulli(0.2)) {
      er::EntityId victim = groups[rng.Uniform(groups.size())];
      (void)db.RemoveChild("nest", victim);
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
  // Verify acyclicity: from every node, walking P-edges terminates.
  for (er::EntityId g : groups) {
    std::set<er::EntityId> seen;
    er::EntityId cur = g;
    while (cur != er::kInvalidEntityId) {
      ASSERT_TRUE(seen.insert(cur).second)
          << "cycle detected through entity " << cur;
      cur = *db.ParentOf("nest", cur);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecursivePropertyTest,
                         testing::Values(5, 1987, 0xBAC4));

// ----------------------------------------------------------------------
// B+tree fan-out sweep.
// ----------------------------------------------------------------------

class BTreeFanoutTest : public testing::TestWithParam<int> {};

TEST_P(BTreeFanoutTest, InvariantsAcrossFanouts) {
  storage::BTree tree(static_cast<size_t>(GetParam()));
  std::multimap<int64_t, uint64_t> model;
  Rng rng(0x5EED);
  for (int i = 0; i < 3000; ++i) {
    int64_t key = rng.Range(-500, 500);
    uint64_t id = static_cast<uint64_t>(i);
    tree.Insert(key, id);
    model.emplace(key, id);
    if (i % 512 == 0) {
      ASSERT_TRUE(tree.CheckInvariants().ok());
    }
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.size(), model.size());
  for (int64_t probe = -500; probe <= 500; probe += 37)
    EXPECT_EQ(tree.Find(probe).size(), model.count(probe)) << probe;
}

INSTANTIATE_TEST_SUITE_P(Fanouts, BTreeFanoutTest,
                         testing::Values(4, 8, 32, 128, 512));

// ----------------------------------------------------------------------
// Tempo map: beats->seconds->beats round trip across random plans.
// ----------------------------------------------------------------------

class TempoMapPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(TempoMapPropertyTest, InverseAndMonotone) {
  Rng rng(GetParam());
  mtime::TempoMap map;
  int64_t beat = 0;
  for (int seg = 0; seg < 8; ++seg) {
    double bpm = 40.0 + static_cast<double>(rng.Uniform(160));
    mtime::TempoShape shape =
        rng.Bernoulli(0.5)
            ? mtime::TempoShape::kConstant
            : (rng.Bernoulli(0.5) ? mtime::TempoShape::kAccelerando
                                  : mtime::TempoShape::kRitardando);
    ASSERT_TRUE(map.AddSegment(Rational(beat), bpm, shape).ok());
    beat += rng.Range(2, 12);
  }
  double prev = -1;
  for (int i = 0; i <= beat + 8; ++i) {
    double t = map.ToSeconds(Rational(i));
    EXPECT_GT(t, prev) << "time must be strictly increasing at beat " << i;
    prev = t;
    Rational back = map.ToBeats(t, 7680);
    EXPECT_NEAR(back.ToDouble(), static_cast<double>(i), 2e-3)
        << "round trip at beat " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TempoMapPropertyTest,
                         testing::Values(3, 14, 159, 2653));

// ----------------------------------------------------------------------
// Sound codecs: lossless round trip on random-ish signals.
// ----------------------------------------------------------------------

// gtest names each case after a byte dump of its CodecParam, so the
// struct has no padding: `tag` fills the four bytes after `length`,
// which were uninitialized and made the case names change between
// builds. Its values keep the names the suite already lists; the test
// body does not read it.
struct CodecParam {
  uint64_t seed;
  int32_t length;
  uint32_t tag;
};
static_assert(sizeof(CodecParam) == 16 &&
                  std::has_unique_object_representations_v<CodecParam>,
              "CodecParam must have no padding");

class DeltaCodecPropertyTest : public testing::TestWithParam<CodecParam> {};

TEST_P(DeltaCodecPropertyTest, BitExactRoundTrip) {
  const CodecParam p = GetParam();
  Rng rng(p.seed);
  sound::PcmBuffer pcm;
  pcm.sample_rate = 8000;
  int16_t v = 0;
  for (int i = 0; i < p.length; ++i) {
    // Random walk with occasional jumps — adversarial for delta coding.
    if (rng.Bernoulli(0.02)) {
      v = static_cast<int16_t>(rng.Range(-32000, 32000));
    } else {
      v = static_cast<int16_t>(
          std::clamp<int64_t>(v + rng.Range(-300, 300), INT16_MIN,
                              INT16_MAX));
    }
    pcm.samples.push_back(v);
  }
  auto decoded = sound::DecodeDelta(sound::EncodeDelta(pcm));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->samples, pcm.samples);
  // Silence codec also round-trips exactly when nothing is below the
  // threshold... use threshold 0 to make it lossless here.
  auto silent = sound::DecodeSilence(sound::EncodeSilence(pcm, 0));
  ASSERT_TRUE(silent.ok());
  for (size_t i = 0; i < pcm.samples.size(); ++i) {
    if (pcm.samples[i] != 0) {
      EXPECT_EQ(silent->samples[i], pcm.samples[i]) << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DeltaCodecPropertyTest,
                         testing::Values(CodecParam{1, 100, 0xFFFFFFFF},
                                         CodecParam{9, 5000, 0x5510},
                                         CodecParam{77, 20000, 0x7FFD}));

// ----------------------------------------------------------------------
// SMF: write/read round trip over random tracks.
// ----------------------------------------------------------------------

class SmfPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(SmfPropertyTest, NoteStreamSurvives) {
  Rng rng(GetParam());
  std::vector<cmn::PerformedNote> notes;
  double t = 0;
  for (int i = 0; i < 200; ++i) {
    cmn::PerformedNote pn;
    pn.midi_key = static_cast<int>(rng.Range(21, 108));
    pn.velocity = static_cast<int>(rng.Range(1, 127));
    pn.start_seconds = t;
    pn.end_seconds = t + 0.05 + rng.NextDouble() * 0.5;
    notes.push_back(pn);
    t += rng.NextDouble() * 0.25;
  }
  midi::MidiTrack track = midi::TrackFromPerformance(notes);
  auto parsed = midi::ReadSmf(midi::WriteSmf(track, 960));
  ASSERT_TRUE(parsed.ok());
  // Same number of note-ons with identical keys in order.
  std::vector<int> sent, received;
  for (const auto& e : track.events)
    if (e.kind == midi::MidiEvent::Kind::kNoteOn) sent.push_back(e.key);
  for (const auto& e : parsed->events)
    if (e.kind == midi::MidiEvent::Kind::kNoteOn)
      received.push_back(e.key);
  EXPECT_EQ(sent, received);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmfPropertyTest,
                         testing::Values(4, 44, 444));

}  // namespace
}  // namespace mdm
