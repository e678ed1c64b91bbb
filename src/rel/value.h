#ifndef MDM_REL_VALUE_H_
#define MDM_REL_VALUE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <variant>

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

/// A dynamically typed attribute value.
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(Payload(b)); }
  static Value Int(int64_t i) { return Value(Payload(i)); }
  static Value Float(double d) { return Value(Payload(d)); }
  static Value String(std::string s) { return Value(Payload(std::move(s))); }
  static Value Rat(const Rational& r) { return Value(Payload(r)); }
  static Value Ref(uint64_t entity_id) { return Value(Payload(RefTag{entity_id})); }

  ValueType type() const;
  bool is_null() const { return type() == ValueType::kNull; }

  bool AsBool() const { return std::get<bool>(v_); }
  int64_t AsInt() const { return std::get<int64_t>(v_); }
  double AsFloat() const { return std::get<double>(v_); }
  const std::string& AsString() const { return std::get<std::string>(v_); }
  const Rational& AsRational() const { return std::get<Rational>(v_); }
  uint64_t AsRef() const { return std::get<RefTag>(v_).id; }

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
  struct RefTag {
    uint64_t id;
    friend bool operator==(const RefTag&, const RefTag&) = default;
  };
  using Payload = std::variant<std::monostate, bool, int64_t, double,
                               std::string, Rational, RefTag>;
  explicit Value(Payload p) : v_(std::move(p)) {}

  Payload v_;
};

}  // namespace mdm::rel

#endif  // MDM_REL_VALUE_H_
