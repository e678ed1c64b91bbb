#include <gtest/gtest.h>

#include <cstdint>

#include "rel/schema.h"
#include "rel/table.h"
#include "rel/value.h"
#include "storage/disk_manager.h"

namespace mdm::rel {
namespace {

TEST(ValueTest, TypesAndToString) {
  EXPECT_EQ(Value::Null().type(), ValueType::kNull);
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::Int(-7).ToString(), "-7");
  EXPECT_EQ(Value::Float(2.5).ToString(), "2.5");
  EXPECT_EQ(Value::String("x").ToString(), "'x'");
  EXPECT_EQ(Value::Rat(Rational(3, 4)).ToString(), "3/4");
  EXPECT_EQ(Value::Ref(17).ToString(), "#17");
}

TEST(ValueTest, CompareSemantics) {
  EXPECT_EQ(*Value::Int(1).Compare(Value::Int(2)), -1);
  EXPECT_EQ(*Value::Int(2).Compare(Value::Float(2.0)), 0);  // numeric
  EXPECT_EQ(*Value::Float(3.5).Compare(Value::Int(3)), 1);
  EXPECT_EQ(*Value::String("a").Compare(Value::String("b")), -1);
  EXPECT_EQ(*Value::Rat(Rational(1, 3)).Compare(Value::Rat(Rational(1, 2))),
            -1);
  EXPECT_EQ(*Value::Null().Compare(Value::Null()), 0);
  EXPECT_EQ(*Value::Null().Compare(Value::Int(0)), -1);
  // Cross-type comparison errors.
  EXPECT_EQ(Value::Int(1).Compare(Value::String("1")).status().code(),
            StatusCode::kTypeError);
  EXPECT_FALSE(Value::Int(1).Equals(Value::String("1")));
  EXPECT_TRUE(Value::Int(2).Equals(Value::Float(2.0)));
}

TEST(ValueTest, NumericCompareIsExact) {
  constexpr int64_t k53 = int64_t{1} << 53;  // 2^53: doubles stop at ints
  // int with int never rounds through a double.
  EXPECT_EQ(*Value::Int(k53 + 1).Compare(Value::Int(k53)), 1);
  EXPECT_EQ(*Value::Int(k53).Compare(Value::Int(k53 + 1)), -1);
  EXPECT_FALSE(Value::Int(k53 + 1).Equals(Value::Int(k53)));
  EXPECT_EQ(*Value::Int(INT64_MAX).Compare(Value::Int(INT64_MAX - 1)), 1);
  // int with float is exact too: 2^53 + 1 is not the double 2^53, but
  // an integral double equals the int it converts to (AttrKeyFor's
  // canonical key), in both argument orders.
  EXPECT_EQ(*Value::Int(k53 + 1).Compare(Value::Float(9007199254740992.0)), 1);
  EXPECT_EQ(*Value::Float(9007199254740992.0).Compare(Value::Int(k53 + 1)),
            -1);
  EXPECT_EQ(*Value::Int(k53).Compare(Value::Float(9007199254740992.0)), 0);
  EXPECT_TRUE(Value::Float(9007199254740992.0).Equals(Value::Int(k53)));
  EXPECT_FALSE(Value::Float(9007199254740992.0).Equals(Value::Int(k53 + 1)));
  // Fractions break ties on either side of zero.
  EXPECT_EQ(*Value::Int(3).Compare(Value::Float(3.5)), -1);
  EXPECT_EQ(*Value::Int(4).Compare(Value::Float(3.5)), 1);
  EXPECT_EQ(*Value::Int(-3).Compare(Value::Float(-3.5)), 1);
  EXPECT_EQ(*Value::Int(-4).Compare(Value::Float(-3.5)), -1);
  EXPECT_EQ(*Value::Int(0).Compare(Value::Float(-0.0)), 0);
  // Past the int64 range every double is beyond every int; -2^63 is the
  // one boundary double an int equals.
  constexpr double k2to63 = 9223372036854775808.0;
  EXPECT_EQ(*Value::Int(INT64_MAX).Compare(Value::Float(k2to63)), -1);
  EXPECT_EQ(*Value::Int(INT64_MIN).Compare(Value::Float(-k2to63)), 0);
  EXPECT_EQ(*Value::Int(INT64_MIN).Compare(Value::Float(-1e19)), 1);
  EXPECT_EQ(*Value::Float(1e300).Compare(Value::Int(INT64_MAX)), 1);
}

TEST(ValueTest, EncodeDecodeAllTypes) {
  std::vector<Value> values = {
      Value::Null(),          Value::Bool(true),
      Value::Int(-123456789), Value::Float(2.71828),
      Value::String("hello"), Value::Rat(Rational(-5, 8)),
      Value::Ref(42)};
  ByteWriter w;
  for (const Value& v : values) v.Encode(&w);
  ByteReader r(w.data());
  for (const Value& expected : values) {
    Value got;
    ASSERT_TRUE(Value::Decode(&r, &got).ok());
    EXPECT_TRUE(got.Equals(expected)) << expected.ToString();
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(ValueTest, DecodeRejectsGarbage) {
  ByteWriter w;
  w.PutU8(99);  // invalid tag
  ByteReader r(w.data());
  Value v;
  EXPECT_EQ(Value::Decode(&r, &v).code(), StatusCode::kCorruption);
}

TEST(SchemaTest, TupleValidation) {
  RelSchema schema({{"id", ValueType::kInt, ""},
                    {"title", ValueType::kString, ""},
                    {"weight", ValueType::kFloat, ""}});
  EXPECT_TRUE(
      CheckTuple(schema, {Value::Int(1), Value::String("x"), Value::Float(1.5)})
          .ok());
  // Int accepted for float column; null anywhere.
  EXPECT_TRUE(
      CheckTuple(schema, {Value::Int(1), Value::Null(), Value::Int(2)}).ok());
  EXPECT_EQ(CheckTuple(schema, {Value::Int(1), Value::String("x")}).code(),
            StatusCode::kTypeError);
  EXPECT_EQ(CheckTuple(schema, {Value::String("no"), Value::String("x"),
                                Value::Null()})
                .code(),
            StatusCode::kTypeError);
  EXPECT_TRUE(schema.IndexOf("TITLE").has_value());  // case-insensitive
  EXPECT_FALSE(schema.IndexOf("ghost").has_value());
}

class TableTest : public testing::Test {
 protected:
  TableTest() : pool_(&dm_, 64), catalog_(&pool_) {}

  Table* MakeTable() {
    auto t = catalog_.CreateTable(
        "notes", RelSchema({{"id", ValueType::kInt, ""},
                            {"pitch", ValueType::kString, ""}}));
    EXPECT_TRUE(t.ok());
    return *t;
  }

  storage::MemoryDiskManager dm_;
  storage::BufferPool pool_;
  Catalog catalog_;
};

TEST_F(TableTest, InsertGetScanDelete) {
  Table* t = MakeTable();
  std::vector<storage::Rid> rids;
  for (int i = 0; i < 100; ++i) {
    auto rid = t->Insert({Value::Int(i), Value::String("p" + std::to_string(i))});
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  auto tuple = t->Get(rids[42]);
  ASSERT_TRUE(tuple.ok());
  EXPECT_EQ((*tuple)[0].AsInt(), 42);
  ASSERT_TRUE(t->Delete(rids[42]).ok());
  EXPECT_FALSE(t->Get(rids[42]).ok());
  auto count = t->Count();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 99u);
  // Type errors rejected at insert.
  EXPECT_EQ(t->Insert({Value::String("x"), Value::Null()}).status().code(),
            StatusCode::kTypeError);
}

TEST_F(TableTest, IndexMaintainedAcrossMutations) {
  Table* t = MakeTable();
  ASSERT_TRUE(t->CreateIndex("id").ok());
  EXPECT_TRUE(t->HasIndex("id"));
  EXPECT_EQ(t->CreateIndex("id").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(t->CreateIndex("pitch").code(), StatusCode::kTypeError);
  std::vector<storage::Rid> rids;
  for (int i = 0; i < 50; ++i) {
    auto rid = t->Insert({Value::Int(i % 10), Value::String("x")});
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  int hits = 0;
  ASSERT_TRUE(t->IndexScan("id", 3, 3,
                           [&](const storage::Rid&, const Tuple&) {
                             ++hits;
                             return true;
                           })
                  .ok());
  EXPECT_EQ(hits, 5);
  // Update moves the key.
  ASSERT_TRUE(t->Update(rids[0], {Value::Int(99), Value::String("x")}).ok());
  hits = 0;
  ASSERT_TRUE(t->IndexScan("id", 99, 99,
                           [&](const storage::Rid&, const Tuple&) {
                             ++hits;
                             return true;
                           })
                  .ok());
  EXPECT_EQ(hits, 1);
  // Delete removes from the index.
  ASSERT_TRUE(t->Delete(rids[0]).ok());
  hits = 0;
  ASSERT_TRUE(t->IndexScan("id", 99, 99,
                           [&](const storage::Rid&, const Tuple&) {
                             ++hits;
                             return true;
                           })
                  .ok());
  EXPECT_EQ(hits, 0);
}

TEST_F(TableTest, GrowingUpdateRelocatesRecord) {
  Table* t = MakeTable();
  ASSERT_TRUE(t->CreateIndex("id").ok());
  auto rid = t->Insert({Value::Int(7), Value::String("small")});
  ASSERT_TRUE(rid.ok());
  // Fill the page so the grown record cannot stay.
  for (int i = 0; i < 100; ++i)
    ASSERT_TRUE(
        t->Insert({Value::Int(1000 + i), Value::String(std::string(30, 'f'))})
            .ok());
  ASSERT_TRUE(
      t->Update(*rid, {Value::Int(7), Value::String(std::string(3000, 'y'))})
          .ok());
  // The index still finds the (possibly moved) record.
  int hits = 0;
  ASSERT_TRUE(t->IndexScan("id", 7, 7,
                           [&](const storage::Rid&, const Tuple& tuple) {
                             ++hits;
                             EXPECT_EQ(tuple[1].AsString().size(), 3000u);
                             return true;
                           })
                  .ok());
  EXPECT_EQ(hits, 1);
}

TEST_F(TableTest, CatalogSaveLoadRoundTrip) {
  Table* t = MakeTable();
  auto rid = t->Insert({Value::Int(578), Value::String("g-moll")});
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(catalog_.Save().ok());

  Catalog reloaded(&pool_);
  ASSERT_TRUE(reloaded.Load().ok());
  auto t2 = reloaded.GetTable("notes");
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ((*t2)->schema().size(), 2u);
  auto tuple = (*t2)->Get(*rid);
  ASSERT_TRUE(tuple.ok());
  EXPECT_EQ((*tuple)[0].AsInt(), 578);
  EXPECT_EQ(reloaded.GetTable("ghost").status().code(),
            StatusCode::kNotFound);
}

TEST_F(TableTest, CatalogDuplicateAndDrop) {
  MakeTable();
  EXPECT_EQ(catalog_
                .CreateTable("notes", RelSchema({{"x", ValueType::kInt, ""}}))
                .status()
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog_.TableNames().size(), 1u);
  EXPECT_TRUE(catalog_.DropTable("notes").ok());
  EXPECT_EQ(catalog_.DropTable("notes").code(), StatusCode::kNotFound);
}

TEST_F(TableTest, ManyTablesSaveLoad) {
  // Catalog blob spans multiple chained pages.
  for (int i = 0; i < 120; ++i) {
    auto t = catalog_.CreateTable(
        "table_with_a_rather_long_name_" + std::to_string(i),
        RelSchema({{"alpha", ValueType::kInt, ""},
                   {"beta", ValueType::kString, ""},
                   {"gamma", ValueType::kFloat, ""}}));
    ASSERT_TRUE(t.ok());
  }
  ASSERT_TRUE(catalog_.Save().ok());
  Catalog reloaded(&pool_);
  ASSERT_TRUE(reloaded.Load().ok());
  EXPECT_EQ(reloaded.TableNames().size(), 120u);
}

}  // namespace
}  // namespace mdm::rel
