#include <gtest/gtest.h>

#include <cstdint>

#include "rel/value.h"

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

}  // namespace
}  // namespace mdm::rel
