#include <gtest/gtest.h>

#include "er/database.h"
#include "er/schema.h"
#include "storage/wal.h"

namespace mdm::er {
namespace {

using rel::Value;
using rel::ValueType;

EntityTypeDef SimpleType(const std::string& name) {
  return EntityTypeDef{name, {{"name", ValueType::kString, ""}}};
}

class ErSchemaTest : public testing::Test {
 protected:
  ErSchema schema_;
};

TEST_F(ErSchemaTest, EntityTypeDefinitionAndLookup) {
  ASSERT_TRUE(schema_.AddEntityType(SimpleType("COMPOSITION")).ok());
  EXPECT_NE(schema_.FindEntityType("COMPOSITION"), nullptr);
  // Lookup is case-insensitive, like QUEL identifiers.
  EXPECT_NE(schema_.FindEntityType("composition"), nullptr);
  EXPECT_EQ(schema_.FindEntityType("NOPE"), nullptr);
  EXPECT_EQ(schema_.AddEntityType(SimpleType("COMPOSITION")).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ErSchemaTest, DuplicateAttributesRejected) {
  EntityTypeDef def{"X",
                    {{"a", ValueType::kInt, ""}, {"A", ValueType::kInt, ""}}};
  EXPECT_EQ(schema_.AddEntityType(def).code(), StatusCode::kAlreadyExists);
}

TEST_F(ErSchemaTest, RefAttributeRequiresTarget) {
  EntityTypeDef def{"COMPOSITION",
                    {{"composition_date", ValueType::kRef, "DATE"}}};
  EXPECT_EQ(schema_.AddEntityType(def).code(), StatusCode::kNotFound);
  ASSERT_TRUE(schema_.AddEntityType(SimpleType("DATE")).ok());
  EXPECT_TRUE(schema_.AddEntityType(def).ok());
}

TEST_F(ErSchemaTest, RelationshipValidation) {
  ASSERT_TRUE(schema_.AddEntityType(SimpleType("PERSON")).ok());
  ASSERT_TRUE(schema_.AddEntityType(SimpleType("COMPOSITION")).ok());
  RelationshipDef composer{
      "COMPOSER",
      {{"composer", "PERSON"}, {"composition", "COMPOSITION"}},
      {}};
  EXPECT_TRUE(schema_.AddRelationship(composer).ok());
  EXPECT_EQ(schema_.AddRelationship(composer).code(),
            StatusCode::kAlreadyExists);
  RelationshipDef single{"BAD", {{"only", "PERSON"}}, {}};
  EXPECT_EQ(schema_.AddRelationship(single).code(),
            StatusCode::kInvalidArgument);
  RelationshipDef missing{"BAD2",
                          {{"a", "PERSON"}, {"b", "GHOST"}},
                          {}};
  EXPECT_EQ(schema_.AddRelationship(missing).code(), StatusCode::kNotFound);
}

TEST_F(ErSchemaTest, OrderingValidationAndNameGeneration) {
  ASSERT_TRUE(schema_.AddEntityType(SimpleType("NOTE")).ok());
  ASSERT_TRUE(schema_.AddEntityType(SimpleType("CHORD")).ok());
  // Missing parent type.
  OrderingDef bad{"", {"NOTE"}, "GHOST"};
  EXPECT_EQ(schema_.AddOrdering(bad).code(), StatusCode::kNotFound);
  // Anonymous ordering gets a generated name (paper: name is optional).
  OrderingDef anon{"", {"NOTE"}, "CHORD"};
  ASSERT_TRUE(schema_.AddOrdering(anon).ok());
  EXPECT_NE(schema_.FindOrdering("note_under_chord"), nullptr);
  // A second anonymous ordering over the same types gets a distinct name.
  ASSERT_TRUE(schema_.AddOrdering(anon).ok());
  EXPECT_NE(schema_.FindOrdering("note_under_chord_2"), nullptr);
}

TEST_F(ErSchemaTest, RecursiveOrderingDetected) {
  ASSERT_TRUE(schema_.AddEntityType(SimpleType("BEAM_GROUP")).ok());
  ASSERT_TRUE(schema_.AddEntityType(SimpleType("CHORD")).ok());
  OrderingDef beams{"beam", {"BEAM_GROUP", "CHORD"}, "BEAM_GROUP"};
  EXPECT_TRUE(beams.IsRecursive());
  ASSERT_TRUE(schema_.AddOrdering(beams).ok());
  OrderingDef plain{"notes", {"CHORD"}, "BEAM_GROUP"};
  EXPECT_FALSE(plain.IsRecursive());
}

TEST_F(ErSchemaTest, HoGraphDotContainsOrderingEdges) {
  ASSERT_TRUE(schema_.AddEntityType(SimpleType("NOTE")).ok());
  ASSERT_TRUE(schema_.AddEntityType(SimpleType("CHORD")).ok());
  ASSERT_TRUE(schema_.AddOrdering({"note_in_chord", {"NOTE"}, "CHORD"}).ok());
  std::string dot = schema_.ToHoGraphDot();
  EXPECT_NE(dot.find("\"CHORD\" -> \"NOTE\""), std::string::npos);
  EXPECT_NE(dot.find("note_in_chord"), std::string::npos);
}

TEST_F(ErSchemaTest, EncodeDecodeRoundTrip) {
  ASSERT_TRUE(schema_.AddEntityType(SimpleType("PERSON")).ok());
  ASSERT_TRUE(schema_.AddEntityType(SimpleType("COMPOSITION")).ok());
  ASSERT_TRUE(schema_
                  .AddRelationship({"COMPOSER",
                                    {{"composer", "PERSON"},
                                     {"composition", "COMPOSITION"}},
                                    {{"share", ValueType::kFloat, ""}}})
                  .ok());
  ASSERT_TRUE(
      schema_.AddOrdering({"movements", {"COMPOSITION"}, "COMPOSITION"}).ok());
  ByteWriter w;
  schema_.Encode(&w);
  ByteReader r(w.data());
  ErSchema decoded;
  ASSERT_TRUE(ErSchema::Decode(&r, &decoded).ok());
  EXPECT_NE(decoded.FindEntityType("PERSON"), nullptr);
  EXPECT_NE(decoded.FindRelationship("COMPOSER"), nullptr);
  const OrderingDef* o = decoded.FindOrdering("movements");
  ASSERT_NE(o, nullptr);
  EXPECT_TRUE(o->IsRecursive());
}

// ----------------------------------------------------------------------
// Database: the paper's running example (notes in chords).
// ----------------------------------------------------------------------

class DatabaseTest : public testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.DefineEntityType(
                       {"CHORD", {{"name", ValueType::kInt, ""}}})
                    .ok());
    ASSERT_TRUE(db_.DefineEntityType({"NOTE",
                                      {{"name", ValueType::kInt, ""},
                                       {"pitch", ValueType::kString, ""}}})
                    .ok());
    auto name = db_.DefineOrdering({"note_in_chord", {"NOTE"}, "CHORD"});
    ASSERT_TRUE(name.ok());
  }

  EntityId MakeNote(int name) {
    auto id = db_.CreateEntity("NOTE");
    EXPECT_TRUE(id.ok());
    EXPECT_TRUE(db_.SetAttribute(*id, "name", Value::Int(name)).ok());
    return *id;
  }

  Database db_;
};

TEST_F(DatabaseTest, CreateAndReadAttributes) {
  auto chord = db_.CreateEntity("CHORD");
  ASSERT_TRUE(chord.ok());
  ASSERT_TRUE(db_.SetAttribute(*chord, "name", Value::Int(7)).ok());
  auto v = db_.GetAttribute(*chord, "name");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInt(), 7);
  // Unset attributes read as null.
  auto note = db_.CreateEntity("NOTE");
  ASSERT_TRUE(note.ok());
  auto pitch = db_.GetAttribute(*note, "pitch");
  ASSERT_TRUE(pitch.ok());
  EXPECT_TRUE(pitch->is_null());
}

TEST_F(DatabaseTest, AttributeTypeEnforced) {
  auto chord = db_.CreateEntity("CHORD");
  ASSERT_TRUE(chord.ok());
  EXPECT_EQ(db_.SetAttribute(*chord, "name", Value::String("x")).code(),
            StatusCode::kTypeError);
  EXPECT_EQ(db_.SetAttribute(*chord, "ghost", Value::Int(1)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.CreateEntity("GHOST").status().code(), StatusCode::kNotFound);
}

TEST_F(DatabaseTest, OrderedChildrenAndOrdinalAccess) {
  auto chord = db_.CreateEntity("CHORD");
  ASSERT_TRUE(chord.ok());
  EntityId u = MakeNote(1), v = MakeNote(2), w = MakeNote(3), x = MakeNote(4);
  ASSERT_TRUE(db_.AppendChild("note_in_chord", *chord, u).ok());
  ASSERT_TRUE(db_.AppendChild("note_in_chord", *chord, v).ok());
  ASSERT_TRUE(db_.AppendChild("note_in_chord", *chord, x).ok());
  ASSERT_TRUE(db_.InsertChildAt("note_in_chord", *chord, w, 2).ok());

  auto kids = db_.Children("note_in_chord", *chord);
  ASSERT_TRUE(kids.ok());
  EXPECT_EQ(*kids, (std::vector<EntityId>{u, v, w, x}));

  // "the third child of the parent labeled y" (fig 6) is w.
  auto third = db_.NthChild("note_in_chord", *chord, 2);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(*third, w);
  auto pos = db_.PositionOf("note_in_chord", w);
  ASSERT_TRUE(pos.ok());
  EXPECT_EQ(*pos, 2u);
  EXPECT_EQ(db_.NthChild("note_in_chord", *chord, 9).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(DatabaseTest, BeforeAfterUnderSemantics) {
  auto c1 = db_.CreateEntity("CHORD");
  auto c2 = db_.CreateEntity("CHORD");
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EntityId a = MakeNote(1), b = MakeNote(2), c = MakeNote(3);
  ASSERT_TRUE(db_.AppendChild("note_in_chord", *c1, a).ok());
  ASSERT_TRUE(db_.AppendChild("note_in_chord", *c1, b).ok());
  ASSERT_TRUE(db_.AppendChild("note_in_chord", *c2, c).ok());

  EXPECT_TRUE(*db_.Before("note_in_chord", a, b));
  EXPECT_FALSE(*db_.Before("note_in_chord", b, a));
  EXPECT_TRUE(*db_.After("note_in_chord", b, a));
  EXPECT_FALSE(*db_.Before("note_in_chord", a, a));
  // §5.6: different parents are not comparable -> false, not an error.
  EXPECT_FALSE(*db_.Before("note_in_chord", a, c));
  EXPECT_FALSE(*db_.After("note_in_chord", a, c));

  EXPECT_TRUE(*db_.Under("note_in_chord", a, *c1));
  EXPECT_FALSE(*db_.Under("note_in_chord", a, *c2));
  EXPECT_EQ(*db_.ParentOf("note_in_chord", c), *c2);
  EXPECT_EQ(*db_.ParentOf("note_in_chord", *c1), kInvalidEntityId);
}

TEST_F(DatabaseTest, ChildHasOnePositionPerOrdering) {
  auto c1 = db_.CreateEntity("CHORD");
  auto c2 = db_.CreateEntity("CHORD");
  EntityId n = MakeNote(1);
  ASSERT_TRUE(db_.AppendChild("note_in_chord", *c1, n).ok());
  // Same parent again, or a different parent: both violate "only one
  // second object".
  EXPECT_EQ(db_.AppendChild("note_in_chord", *c1, n).code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(db_.AppendChild("note_in_chord", *c2, n).code(),
            StatusCode::kConstraintViolation);
  // After removal it may be re-inserted elsewhere.
  ASSERT_TRUE(db_.RemoveChild("note_in_chord", n).ok());
  EXPECT_TRUE(db_.AppendChild("note_in_chord", *c2, n).ok());
}

TEST_F(DatabaseTest, TypeCheckingOnOrderingInsert) {
  auto chord = db_.CreateEntity("CHORD");
  auto note = db_.CreateEntity("NOTE");
  // Parent and child swapped.
  EXPECT_EQ(db_.AppendChild("note_in_chord", *note, *chord).code(),
            StatusCode::kTypeError);
  EXPECT_EQ(db_.AppendChild("ghost_ordering", *chord, *note).code(),
            StatusCode::kNotFound);
}

TEST_F(DatabaseTest, MultipleOrderingsWithSharedChild) {
  // The paper's "multiple parents": NOTE under CHORD and NOTE under
  // STAFF are independent orderings.
  ASSERT_TRUE(db_.DefineEntityType(SimpleType("STAFF")).ok());
  ASSERT_TRUE(db_.DefineOrdering({"note_on_staff", {"NOTE"}, "STAFF"}).ok());
  auto chord = db_.CreateEntity("CHORD");
  auto staff = db_.CreateEntity("STAFF");
  EntityId n1 = MakeNote(1), n2 = MakeNote(2);
  ASSERT_TRUE(db_.AppendChild("note_in_chord", *chord, n1).ok());
  ASSERT_TRUE(db_.AppendChild("note_in_chord", *chord, n2).ok());
  // Reverse order on the staff: the orderings do not interfere.
  ASSERT_TRUE(db_.AppendChild("note_on_staff", *staff, n2).ok());
  ASSERT_TRUE(db_.AppendChild("note_on_staff", *staff, n1).ok());
  EXPECT_TRUE(*db_.Before("note_in_chord", n1, n2));
  EXPECT_TRUE(*db_.Before("note_on_staff", n2, n1));
}

TEST_F(DatabaseTest, InhomogeneousOrdering) {
  // §5.5: a VOICE is an ordered sequence of CHORDs and RESTs intermixed.
  ASSERT_TRUE(db_.DefineEntityType(SimpleType("REST")).ok());
  ASSERT_TRUE(db_.DefineEntityType(SimpleType("VOICE")).ok());
  ASSERT_TRUE(
      db_.DefineOrdering({"voice_seq", {"CHORD", "REST"}, "VOICE"}).ok());
  auto voice = db_.CreateEntity("VOICE");
  auto chord1 = db_.CreateEntity("CHORD");
  auto rest = db_.CreateEntity("REST");
  auto chord2 = db_.CreateEntity("CHORD");
  ASSERT_TRUE(db_.AppendChild("voice_seq", *voice, *chord1).ok());
  ASSERT_TRUE(db_.AppendChild("voice_seq", *voice, *rest).ok());
  ASSERT_TRUE(db_.AppendChild("voice_seq", *voice, *chord2).ok());
  // "the second object under voice V" is the rest.
  auto second = db_.NthChild("voice_seq", *voice, 1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, *rest);
  EXPECT_EQ(*db_.TypeOf(*second), "REST");
  // NOTE is not an admitted child type.
  EntityId n = MakeNote(1);
  EXPECT_EQ(db_.AppendChild("voice_seq", *voice, n).code(),
            StatusCode::kTypeError);
}

TEST_F(DatabaseTest, RecursiveOrderingAllowsNestingButNoCycles) {
  // Fig 8: beam groups contain beam groups and chords.
  ASSERT_TRUE(db_.DefineEntityType(SimpleType("BEAM_GROUP")).ok());
  ASSERT_TRUE(db_.DefineOrdering(
                     {"beams", {"BEAM_GROUP", "CHORD"}, "BEAM_GROUP"})
                  .ok());
  auto g1 = db_.CreateEntity("BEAM_GROUP");
  auto g2 = db_.CreateEntity("BEAM_GROUP");
  auto g3 = db_.CreateEntity("BEAM_GROUP");
  auto c1 = db_.CreateEntity("CHORD");
  ASSERT_TRUE(db_.AppendChild("beams", *g1, *g2).ok());
  ASSERT_TRUE(db_.AppendChild("beams", *g2, *g3).ok());
  ASSERT_TRUE(db_.AppendChild("beams", *g3, *c1).ok());
  // Self-cycle and ancestor cycles rejected (§5.5 restrictions).
  EXPECT_EQ(db_.AppendChild("beams", *g1, *g1).code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(db_.AppendChild("beams", *g3, *g1).code(),
            StatusCode::kConstraintViolation);
  // g1 currently has no parent; adding it under g3 would make
  // g1 -> g2 -> g3 -> g1.
  auto parent = db_.ParentOf("beams", *g1);
  ASSERT_TRUE(parent.ok());
  EXPECT_EQ(*parent, kInvalidEntityId);
}

TEST_F(DatabaseTest, Fig8BeamGroupInstanceGraph) {
  // Reconstructs fig 8(c): g1 = (c1, g2=(c2, c3, c4), g3=(c5, c6)).
  ASSERT_TRUE(db_.DefineEntityType(SimpleType("BEAM_GROUP")).ok());
  ASSERT_TRUE(db_.DefineOrdering(
                     {"beams", {"BEAM_GROUP", "CHORD"}, "BEAM_GROUP"})
                  .ok());
  auto g1 = db_.CreateEntity("BEAM_GROUP");
  auto g2 = db_.CreateEntity("BEAM_GROUP");
  auto g3 = db_.CreateEntity("BEAM_GROUP");
  EntityId chords[6];
  for (int i = 0; i < 6; ++i) {
    auto c = db_.CreateEntity("CHORD");
    ASSERT_TRUE(c.ok());
    chords[i] = *c;
  }
  ASSERT_TRUE(db_.AppendChild("beams", *g1, chords[0]).ok());
  ASSERT_TRUE(db_.AppendChild("beams", *g1, *g2).ok());
  ASSERT_TRUE(db_.AppendChild("beams", *g1, *g3).ok());
  ASSERT_TRUE(db_.AppendChild("beams", *g2, chords[1]).ok());
  ASSERT_TRUE(db_.AppendChild("beams", *g2, chords[2]).ok());
  ASSERT_TRUE(db_.AppendChild("beams", *g2, chords[3]).ok());
  ASSERT_TRUE(db_.AppendChild("beams", *g3, chords[4]).ok());
  ASSERT_TRUE(db_.AppendChild("beams", *g3, chords[5]).ok());

  auto dot = db_.InstanceGraphDot("beams", *g1, "");
  ASSERT_TRUE(dot.ok());
  // All nine nodes appear, with P-edges and S-edges.
  EXPECT_NE(dot->find("label=\"P\""), std::string::npos);
  EXPECT_NE(dot->find("label=\"S\""), std::string::npos);
  EXPECT_NE(dot->find("BEAM_GROUP#"), std::string::npos);
  EXPECT_NE(dot->find("CHORD#"), std::string::npos);
}

TEST_F(DatabaseTest, DeleteEntityDetachesEverywhere) {
  auto chord = db_.CreateEntity("CHORD");
  EntityId a = MakeNote(1), b = MakeNote(2), c = MakeNote(3);
  ASSERT_TRUE(db_.AppendChild("note_in_chord", *chord, a).ok());
  ASSERT_TRUE(db_.AppendChild("note_in_chord", *chord, b).ok());
  ASSERT_TRUE(db_.AppendChild("note_in_chord", *chord, c).ok());
  ASSERT_TRUE(db_.DeleteEntity(b).ok());
  auto kids = db_.Children("note_in_chord", *chord);
  ASSERT_TRUE(kids.ok());
  EXPECT_EQ(*kids, (std::vector<EntityId>{a, c}));
  EXPECT_FALSE(db_.Exists(b));
  // Deleting the parent turns children into roots.
  ASSERT_TRUE(db_.DeleteEntity(*chord).ok());
  EXPECT_EQ(*db_.ParentOf("note_in_chord", a), kInvalidEntityId);
  auto count = db_.CountEntities("NOTE");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 2u);
}

TEST_F(DatabaseTest, RelationshipsConnectAndCascadeOnDelete) {
  ASSERT_TRUE(db_.DefineEntityType(SimpleType("PERSON")).ok());
  ASSERT_TRUE(db_.DefineEntityType(SimpleType("COMPOSITION")).ok());
  ASSERT_TRUE(db_.DefineRelationship(
                     {"COMPOSER",
                      {{"composer", "PERSON"}, {"composition", "COMPOSITION"}},
                      {}})
                  .ok());
  auto bach = db_.CreateEntity("PERSON");
  auto fugue = db_.CreateEntity("COMPOSITION");
  auto ri = db_.Connect("COMPOSER", {{"composer", *bach},
                                     {"composition", *fugue}});
  ASSERT_TRUE(ri.ok());
  EXPECT_EQ(*db_.CountRelationships("COMPOSER"), 1u);
  // Unbound role rejected.
  EXPECT_EQ(db_.Connect("COMPOSER", {{"composer", *bach}}).status().code(),
            StatusCode::kInvalidArgument);
  // Wrong role type rejected.
  EXPECT_EQ(db_.Connect("COMPOSER", {{"composer", *fugue},
                                     {"composition", *bach}})
                .status()
                .code(),
            StatusCode::kTypeError);
  // Deleting a participant deletes the relationship instance.
  ASSERT_TRUE(db_.DeleteEntity(*bach).ok());
  EXPECT_EQ(*db_.CountRelationships("COMPOSER"), 0u);
}

TEST_F(DatabaseTest, RefAttributesValidated) {
  ASSERT_TRUE(db_.DefineEntityType(
                     {"DATE",
                      {{"year", ValueType::kInt, ""}}})
                  .ok());
  ASSERT_TRUE(db_.DefineEntityType(
                     {"COMPOSITION",
                      {{"title", ValueType::kString, ""},
                       {"composition_date", ValueType::kRef, "DATE"}}})
                  .ok());
  auto date = db_.CreateEntity("DATE");
  auto comp = db_.CreateEntity("COMPOSITION");
  auto note = db_.CreateEntity("NOTE");
  ASSERT_TRUE(
      db_.SetAttribute(*comp, "composition_date", Value::Ref(*date)).ok());
  // Wrong target type.
  EXPECT_EQ(
      db_.SetAttribute(*comp, "composition_date", Value::Ref(*note)).code(),
      StatusCode::kTypeError);
  // Missing target.
  EXPECT_EQ(
      db_.SetAttribute(*comp, "composition_date", Value::Ref(999)).code(),
      StatusCode::kNotFound);
  EXPECT_EQ(db_.CountDanglingRefs(), 0u);
  ASSERT_TRUE(db_.DeleteEntity(*date).ok());
  EXPECT_EQ(db_.CountDanglingRefs(), 1u);
}

TEST_F(DatabaseTest, SnapshotRestoreRoundTrip) {
  auto chord = db_.CreateEntity("CHORD");
  EntityId a = MakeNote(10), b = MakeNote(20);
  ASSERT_TRUE(db_.AppendChild("note_in_chord", *chord, a).ok());
  ASSERT_TRUE(db_.AppendChild("note_in_chord", *chord, b).ok());
  ASSERT_TRUE(db_.SetAttribute(a, "pitch", Value::String("G4")).ok());

  ByteWriter w;
  db_.Snapshot(&w);
  ByteReader r(w.data());
  Database restored;
  ASSERT_TRUE(Database::Restore(&r, &restored).ok());

  EXPECT_EQ(restored.TotalEntities(), db_.TotalEntities());
  auto kids = restored.Children("note_in_chord", *chord);
  ASSERT_TRUE(kids.ok());
  EXPECT_EQ(*kids, (std::vector<EntityId>{a, b}));
  auto pitch = restored.GetAttribute(a, "pitch");
  ASSERT_TRUE(pitch.ok());
  EXPECT_EQ(pitch->AsString(), "G4");
  // Ids continue without collision after restore.
  auto fresh = restored.CreateEntity("NOTE");
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(db_.Exists(*fresh));
  EXPECT_GT(*fresh, b);
}

TEST_F(DatabaseTest, JournalReplayReproducesDatabase) {
  storage::MemoryWalSink sink;
  storage::WalWriter wal(&sink);

  Database source;
  source.AttachJournal(&wal);
  ASSERT_TRUE(source
                  .DefineEntityType({"CHORD", {{"name", ValueType::kInt, ""}}})
                  .ok());
  ASSERT_TRUE(source
                  .DefineEntityType({"NOTE", {{"name", ValueType::kInt, ""}}})
                  .ok());
  ASSERT_TRUE(
      source.DefineOrdering({"note_in_chord", {"NOTE"}, "CHORD"}).ok());
  auto chord = source.CreateEntity("CHORD");
  auto n1 = source.CreateEntity("NOTE");
  auto n2 = source.CreateEntity("NOTE");
  ASSERT_TRUE(source.SetAttribute(*n1, "name", Value::Int(60)).ok());
  ASSERT_TRUE(source.AppendChild("note_in_chord", *chord, *n1).ok());
  ASSERT_TRUE(source.AppendChild("note_in_chord", *chord, *n2).ok());
  ASSERT_TRUE(source.RemoveChild("note_in_chord", *n2).ok());
  ASSERT_TRUE(source.DeleteEntity(*n2).ok());

  Database replica;
  ASSERT_TRUE(replica.ReplayJournal(sink.bytes()).ok());
  EXPECT_EQ(replica.TotalEntities(), source.TotalEntities());
  auto kids = replica.Children("note_in_chord", *chord);
  ASSERT_TRUE(kids.ok());
  EXPECT_EQ(*kids, (std::vector<EntityId>{*n1}));
  EXPECT_EQ(replica.GetAttribute(*n1, "name")->AsInt(), 60);
  EXPECT_FALSE(replica.Exists(*n2));
}

TEST_F(DatabaseTest, JournalReplaysRelationshipOps) {
  storage::MemoryWalSink sink;
  storage::WalWriter wal(&sink);
  Database source;
  source.AttachJournal(&wal);
  ASSERT_TRUE(source.DefineEntityType(SimpleType("PERSON")).ok());
  ASSERT_TRUE(source.DefineEntityType(SimpleType("COMPOSITION")).ok());
  ASSERT_TRUE(source
                  .DefineRelationship(
                      {"COMPOSER",
                       {{"composer", "PERSON"},
                        {"composition", "COMPOSITION"}},
                       {{"share", rel::ValueType::kFloat, ""}}})
                  .ok());
  auto bach = source.CreateEntity("PERSON");
  auto a = source.CreateEntity("COMPOSITION");
  auto b = source.CreateEntity("COMPOSITION");
  auto link_a = source.Connect("COMPOSER", {{"composer", *bach},
                                            {"composition", *a}});
  auto link_b = source.Connect("COMPOSER", {{"composer", *bach},
                                            {"composition", *b}});
  ASSERT_TRUE(link_a.ok());
  ASSERT_TRUE(link_b.ok());
  ASSERT_TRUE(source
                  .SetRelationshipAttribute(*link_a, "share",
                                            Value::Float(0.75))
                  .ok());
  ASSERT_TRUE(source.Disconnect(*link_b).ok());

  Database replica;
  ASSERT_TRUE(replica.ReplayJournal(sink.bytes()).ok());
  EXPECT_EQ(*replica.CountRelationships("COMPOSER"), 1u);
  bool checked = false;
  ASSERT_TRUE(replica
                  .ForEachRelationship(
                      "COMPOSER",
                      [&](const RelationshipInstance& ri) {
                        EXPECT_EQ(ri.id, *link_a);
                        EXPECT_EQ(ri.role_refs[0], *bach);
                        EXPECT_DOUBLE_EQ(ri.attrs[0].AsFloat(), 0.75);
                        checked = true;
                        return true;
                      })
                  .ok());
  EXPECT_TRUE(checked);
}

TEST_F(DatabaseTest, JournalGroupTransaction) {
  storage::MemoryWalSink sink;
  storage::WalWriter wal(&sink);
  Database source;
  source.AttachJournal(&wal);
  ASSERT_TRUE(source.DefineEntityType(SimpleType("X")).ok());
  size_t before_commit = 0;
  {
    WriteTxn txn(&source);
    ASSERT_TRUE(txn->CreateEntity("X").ok());
    ASSERT_TRUE(txn->CreateEntity("X").ok());
    before_commit = sink.bytes().size();
    ASSERT_TRUE(txn.Commit().ok());
  }

  // Without the commit record, replay sees an unfinished transaction and
  // applies only the auto-committed schema op.
  std::vector<uint8_t> torn(sink.bytes().begin(),
                            sink.bytes().begin() + before_commit);
  Database replica;
  ASSERT_TRUE(replica.ReplayJournal(torn).ok());
  EXPECT_EQ(replica.TotalEntities(), 0u);
  EXPECT_NE(replica.schema().FindEntityType("X"), nullptr);

  Database full;
  ASSERT_TRUE(full.ReplayJournal(sink.bytes()).ok());
  EXPECT_EQ(full.TotalEntities(), 2u);
}

}  // namespace
}  // namespace mdm::er
