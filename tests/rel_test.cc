#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/random.h"
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

static_assert(sizeof(Value) == 16, "a tag and an 8-byte payload");

// A reference model of Value: the same semantics over a std::variant,
// written independently of value.cc's packed layout — int/float order
// goes through long double, which holds every int64 and every double
// exactly on x86-64.
struct RefTag {
  uint64_t id;
  bool operator==(const RefTag&) const = default;
};
using Model = std::variant<std::monostate, bool, int64_t, double, std::string,
                           Rational, RefTag>;

Value FromModel(const Model& m) {
  switch (m.index()) {
    case 1: return Value::Bool(std::get<bool>(m));
    case 2: return Value::Int(std::get<int64_t>(m));
    case 3: return Value::Float(std::get<double>(m));
    case 4: return Value::String(std::get<std::string>(m));
    case 5: return Value::Rat(std::get<Rational>(m));
    case 6: return Value::Ref(std::get<RefTag>(m).id);
  }
  return Value::Null();
}

std::vector<uint8_t> ModelEncode(const Model& m) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(m.index()));
  switch (m.index()) {
    case 1: w.PutU8(std::get<bool>(m) ? 1 : 0); break;
    case 2: w.PutI64(std::get<int64_t>(m)); break;
    case 3: w.PutF64(std::get<double>(m)); break;
    case 4: w.PutString(std::get<std::string>(m)); break;
    case 5:
      w.PutI64(std::get<Rational>(m).num());
      w.PutI64(std::get<Rational>(m).den());
      break;
    case 6: w.PutU64(std::get<RefTag>(m).id); break;
  }
  return w.data();
}

template <typename T>
int Sign(const T& a, const T& b) {
  return a < b ? -1 : (b < a ? 1 : 0);
}

std::optional<int> ModelCompare(const Model& a, const Model& b) {
  const bool an = a.index() == 0, bn = b.index() == 0;
  if (an || bn) return an && bn ? 0 : (an ? -1 : 1);
  auto numeric = [](const Model& m) -> std::optional<long double> {
    if (m.index() == 2) return static_cast<long double>(std::get<int64_t>(m));
    if (m.index() == 3) return static_cast<long double>(std::get<double>(m));
    return std::nullopt;
  };
  auto x = numeric(a), y = numeric(b);
  if (x.has_value() && y.has_value()) {
    if (std::isnan(*x) || std::isnan(*y)) return 0;  // NaN is unordered
    return Sign(*x, *y);
  }
  if (a.index() != b.index()) return std::nullopt;
  switch (a.index()) {
    case 1: return Sign(std::get<bool>(a), std::get<bool>(b));
    case 4: return Sign(std::get<std::string>(a), std::get<std::string>(b));
    case 5: return Sign(std::get<Rational>(a), std::get<Rational>(b));
    case 6: return Sign(std::get<RefTag>(a).id, std::get<RefTag>(b).id);
  }
  return std::nullopt;
}

bool ModelEquals(const Model& a, const Model& b) {
  if (a.index() != b.index()) {
    std::optional<int> c = ModelCompare(a, b);
    return c.has_value() && *c == 0;
  }
  return a == b;
}

std::string RandomString(Rng& rng) {
  static constexpr size_t kLengths[] = {0, 1, 7, 15, 16, 17, 64};
  std::string s(kLengths[rng.Uniform(std::size(kLengths))], 'a');
  for (char& c : s) c = static_cast<char>('a' + rng.Uniform(3));
  // Embedded NULs, which a C-string path would cut short.
  if (!s.empty() && rng.Bernoulli(0.3)) s[rng.Uniform(s.size())] = '\0';
  return s;
}

int64_t RandomRationalPart(Rng& rng) {
  constexpr int64_t k31 = int64_t{1} << 31;
  static constexpr int64_t kEdges[] = {
      1, 2, 3, k31 - 1, k31, k31 + 1, 3 * k31, int64_t{1} << 40,
      std::numeric_limits<int64_t>::max()};
  int64_t v = rng.Bernoulli(0.5) ? kEdges[rng.Uniform(std::size(kEdges))]
                                 : rng.Range(1, 12);
  return v;
}

Model RandomModel(Rng& rng) {
  constexpr int64_t k31 = int64_t{1} << 31;
  switch (rng.Uniform(7)) {
    case 0: return std::monostate{};
    case 1: return rng.Bernoulli(0.5);
    case 2: {
      static constexpr int64_t kEdges[] = {
          0, -1, k31, -k31, int64_t{1} << 53, (int64_t{1} << 53) + 1,
          std::numeric_limits<int64_t>::max(),
          std::numeric_limits<int64_t>::min()};
      return rng.Bernoulli(0.5) ? kEdges[rng.Uniform(std::size(kEdges))]
                                : rng.Range(-3, 3);
    }
    case 3: {
      static constexpr double kEdges[] = {
          0.0, -0.0, 0.5, -2.5, 9007199254740992.0, 9223372036854775808.0,
          -9223372036854775808.0, 1e300,
          std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN()};
      return rng.Bernoulli(0.5) ? kEdges[rng.Uniform(std::size(kEdges))]
                                : static_cast<double>(rng.Range(-3, 3));
    }
    case 4: return RandomString(rng);
    case 5: {
      // Numerators and denominators on both sides of the 32-bit inline
      // limit (±2^31, a denominator of 2^31), then normalized.
      int64_t num = rng.Bernoulli(0.2) ? -k31 : RandomRationalPart(rng);
      if (num > 0 && rng.Bernoulli(0.5)) num = -num;
      return Rational(num, RandomRationalPart(rng));
    }
    default:
      return RefTag{rng.Bernoulli(0.5) ? rng.Next() : rng.Uniform(4)};
  }
}

std::vector<uint8_t> Encoded(const Value& v) {
  ByteWriter w;
  v.Encode(&w);
  return w.data();
}

class ValueModelFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValueModelFuzz, MatchesVariantModel) {
  static_assert(std::numeric_limits<long double>::digits >= 64,
                "the model orders int64/double through long double");
  Rng rng(GetParam());
  // A pool of values and the models they must equal; each step either
  // checks a pair or copies, moves, self-assigns or destroys members.
  std::vector<Value> pool;
  std::vector<Model> model;
  for (int step = 0; step < 4000; ++step) {
    if (pool.size() < 4 || rng.Uniform(4) == 0) {
      model.push_back(RandomModel(rng));
      pool.push_back(FromModel(model.back()));
      continue;
    }
    const size_t i = rng.Uniform(pool.size());
    const size_t j = rng.Uniform(pool.size());
    switch (rng.Uniform(8)) {
      case 0:  // copy-assign, i == j included
        pool[i] = pool[j];
        model[i] = model[j];
        break;
      case 1: {  // move-assign: the source is left null
        pool[i] = std::move(pool[j]);
        model[i] = model[j];
        if (i != j) {
          ASSERT_TRUE(pool[j].is_null());
          model[j] = std::monostate{};
        }
        break;
      }
      case 2: {  // copy-construct, then destroy the original
        Value copy(pool[j]);
        pool.erase(pool.begin() + static_cast<ptrdiff_t>(j));
        Model m = model[j];
        model.erase(model.begin() + static_cast<ptrdiff_t>(j));
        ASSERT_EQ(Encoded(copy), ModelEncode(m));
        pool.push_back(std::move(copy));
        model.push_back(std::move(m));
        break;
      }
      case 3: {  // destroy
        pool.erase(pool.begin() + static_cast<ptrdiff_t>(i));
        model.erase(model.begin() + static_cast<ptrdiff_t>(i));
        break;
      }
      default: {
        const Value& a = pool[i];
        const Value& b = pool[j];
        SCOPED_TRACE(a.ToString() + " vs " + b.ToString());
        ASSERT_EQ(Encoded(a), ModelEncode(model[i]));
        ASSERT_EQ(static_cast<size_t>(a.type()), model[i].index());
        const std::optional<int> want = ModelCompare(model[i], model[j]);
        ASSERT_EQ(a.TryCompare(b), want);
        Result<int> c = a.Compare(b);
        ASSERT_EQ(c.ok(), want.has_value());
        if (c.ok()) {
          ASSERT_EQ(*c, *want);
        }
        ASSERT_EQ(a.Equals(b), ModelEquals(model[i], model[j]));
        // Decode yields the same value, byte for byte.
        const std::vector<uint8_t> bytes = Encoded(a);
        ByteReader r(bytes);
        Value back;
        ASSERT_TRUE(Value::Decode(&r, &back).ok());
        ASSERT_EQ(Encoded(back), bytes);
        break;
      }
    }
  }
  // Self-move through an alias keeps the value.
  for (size_t i = 0; i < pool.size(); ++i) {
    Value& alias = pool[i];
    pool[i] = std::move(alias);
    ASSERT_EQ(Encoded(pool[i]), ModelEncode(model[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueModelFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(ValueTest, RationalsAtTheInlineBoundary) {
  constexpr int64_t k31 = int64_t{1} << 31;
  // Inline (both halves fit in 32 bits) and boxed rationals compare and
  // round-trip exactly, across the boundary.
  const std::vector<Rational> sorted = {
      Rational(-k31 - 1, 1), Rational(-k31, 1), Rational(-1, k31 - 1),
      Rational(-1, k31), Rational(1, k31 + 1), Rational(1, k31),
      Rational(1, k31 - 1), Rational(k31 - 1, 1), Rational(k31, 1),
      Rational(k31 + 1, 1)};
  for (size_t i = 0; i < sorted.size(); ++i) {
    const Value v = Value::Rat(sorted[i]);
    EXPECT_EQ(v.AsRational(), sorted[i]);
    for (size_t j = 0; j < sorted.size(); ++j) {
      const int want = i < j ? -1 : (i > j ? 1 : 0);
      EXPECT_EQ(*v.Compare(Value::Rat(sorted[j])), want) << i << " " << j;
      EXPECT_EQ(v.Equals(Value::Rat(sorted[j])), i == j);
    }
  }
}

}  // namespace
}  // namespace mdm::rel
