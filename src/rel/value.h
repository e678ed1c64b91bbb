#ifndef MDM_REL_VALUE_H_
#define MDM_REL_VALUE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "common/rational.h"
#include "common/result.h"
#include "common/status.h"

namespace mdm::rel {

/// Attribute domain types supported by the MDM.
///
/// kRef holds the surrogate id of an entity instance: the paper's
/// "1-to-n relationship represented implicitly as an attribute"
/// (e.g. `composition_date = DATE` in §5.1) becomes a kRef attribute.
/// kRational exists because score time is exact rational beats (§7.2).
enum class ValueType : uint8_t {
  kNull = 0,
  kBool = 1,
  kInt = 2,
  kFloat = 3,
  kString = 4,
  kRational = 5,
  kRef = 6,
};

const char* ValueTypeName(ValueType t);
/// Parses "integer", "string", "float", "bool", "rational" as used in the
/// paper's DDL (`title = string`). Entity-type names are resolved to kRef
/// by the DDL layer, not here.
bool ParseValueType(const std::string& name, ValueType* out);

/// A dynamically typed attribute value, 16 bytes: a type tag and an
/// 8-byte payload. Bools, ints, floats and refs are stored inline, and
/// so is a rational whose numerator and denominator both fit in 32 bits
/// (every score time the CMN layer builds). A string, or a rational too
/// wide for the inline form, lives in an immutable, atomically
/// refcounted box the payload points to: copying the value shares the
/// box, so a copy never allocates. Each value has exactly one
/// representation (a rational is boxed iff it does not fit inline),
/// which keeps equality a per-type comparison.
class Value {
 public:
  Value() noexcept : type_(ValueType::kNull), boxed_(false), bits_(0) {}
  Value(const Value& o) noexcept
      : type_(o.type_), boxed_(o.boxed_), bits_(o.bits_) {
    if (boxed_) box_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Value(Value&& o) noexcept
      : type_(o.type_), boxed_(o.boxed_), bits_(o.bits_) {
    o.type_ = ValueType::kNull;
    o.boxed_ = false;
  }
  Value& operator=(const Value& o) noexcept {
    Value copy(o);
    Swap(copy);
    return *this;
  }
  Value& operator=(Value&& o) noexcept {
    Value moved(std::move(o));
    Swap(moved);
    return *this;
  }
  ~Value() {
    if (boxed_) Release();
  }

  static Value Null() { return Value(); }
  static Value Bool(bool b) {
    Value v(ValueType::kBool);
    v.b_ = b;
    return v;
  }
  static Value Int(int64_t i) {
    Value v(ValueType::kInt);
    v.i_ = i;
    return v;
  }
  static Value Float(double d) {
    Value v(ValueType::kFloat);
    v.d_ = d;
    return v;
  }
  static Value String(std::string s);
  static Value Rat(const Rational& r);
  static Value Ref(uint64_t entity_id) {
    Value v(ValueType::kRef);
    v.bits_ = entity_id;
    return v;
  }

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }

  bool AsBool() const {
    assert(type_ == ValueType::kBool);
    return b_;
  }
  int64_t AsInt() const {
    assert(type_ == ValueType::kInt);
    return i_;
  }
  double AsFloat() const {
    assert(type_ == ValueType::kFloat);
    return d_;
  }
  const std::string& AsString() const {
    assert(type_ == ValueType::kString);
    return static_cast<const StringBox*>(box_)->s;
  }
  Rational AsRational() const {
    assert(type_ == ValueType::kRational);
    if (boxed_) return static_cast<const RationalBox*>(box_)->r;
    return Rational(q_.num, q_.den);
  }
  uint64_t AsRef() const {
    assert(type_ == ValueType::kRef);
    return bits_;
  }

  /// Display form ("'title'", "42", "3/4", "#17", "null").
  std::string ToString() const;

  /// Total order within a type; comparing different non-null types is a
  /// TypeError, except int with float, which compare exactly by numeric
  /// value. Null compares equal to null and less than everything.
  Result<int> Compare(const Value& other) const;
  /// Compare without building a Status: nullopt where Compare would
  /// return a TypeError (the executor's per-row form).
  std::optional<int> TryCompare(const Value& other) const;

  /// True iff same type and equal (null == null). Never errors.
  bool Equals(const Value& other) const;

  void Encode(ByteWriter* w) const;
  static Status Decode(ByteReader* r, Value* out);

 private:
  struct Box {
    std::atomic<uint32_t> refs{1};
  };
  struct StringBox : Box {
    explicit StringBox(std::string v) : s(std::move(v)) {}
    const std::string s;
  };
  struct RationalBox : Box {
    explicit RationalBox(const Rational& v) : r(v) {}
    const Rational r;
  };
  /// An inline rational: normalized, den > 0.
  struct SmallRational {
    int32_t num;
    int32_t den;
  };

  explicit Value(ValueType t) : type_(t), boxed_(false), bits_(0) {}
  void Swap(Value& o) noexcept {
    std::swap(type_, o.type_);
    std::swap(boxed_, o.boxed_);
    std::swap(bits_, o.bits_);
  }
  /// Drops this value's reference to its box, freeing it on the last.
  void Release() noexcept;

  ValueType type_;
  bool boxed_;  // the payload is box_
  union {
    uint64_t bits_;  // also the kRef payload
    bool b_;
    int64_t i_;
    double d_;
    SmallRational q_;
    Box* box_;
  };
};

static_assert(sizeof(Value) == 16, "a Value is a tag and an 8-byte payload");

}  // namespace mdm::rel

#endif  // MDM_REL_VALUE_H_
