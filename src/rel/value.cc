#include "rel/value.h"

#include <cmath>
#include <cstdint>

#include "common/strings.h"

namespace mdm::rel {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull: return "null";
    case ValueType::kBool: return "bool";
    case ValueType::kInt: return "integer";
    case ValueType::kFloat: return "float";
    case ValueType::kString: return "string";
    case ValueType::kRational: return "rational";
    case ValueType::kRef: return "ref";
  }
  return "unknown";
}

bool ParseValueType(const std::string& name, ValueType* out) {
  std::string n = AsciiLower(name);
  if (n == "integer" || n == "int") {
    *out = ValueType::kInt;
  } else if (n == "string") {
    *out = ValueType::kString;
  } else if (n == "float" || n == "double") {
    *out = ValueType::kFloat;
  } else if (n == "bool" || n == "boolean") {
    *out = ValueType::kBool;
  } else if (n == "rational") {
    *out = ValueType::kRational;
  } else {
    return false;
  }
  return true;
}

Value Value::String(std::string s) {
  Value v(ValueType::kString);
  v.boxed_ = true;
  v.box_ = new StringBox(std::move(s));
  return v;
}

Value Value::Rat(const Rational& r) {
  Value v(ValueType::kRational);
  // Normalized, so den > 0; both halves must survive the narrowing.
  if (r.num() >= INT32_MIN && r.num() <= INT32_MAX && r.den() <= INT32_MAX) {
    v.q_ = SmallRational{static_cast<int32_t>(r.num()),
                         static_cast<int32_t>(r.den())};
  } else {
    v.boxed_ = true;
    v.box_ = new RationalBox(r);
  }
  return v;
}

void Value::Release() noexcept {
  if (box_->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  if (type_ == ValueType::kString)
    delete static_cast<StringBox*>(box_);
  else
    delete static_cast<RationalBox*>(box_);
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull: return "null";
    case ValueType::kBool: return AsBool() ? "true" : "false";
    case ValueType::kInt: return std::to_string(AsInt());
    case ValueType::kFloat: return StrFormat("%g", AsFloat());
    case ValueType::kString: return "'" + AsString() + "'";
    case ValueType::kRational: return AsRational().ToString();
    case ValueType::kRef: return StrFormat("#%llu",
                                           (unsigned long long)AsRef());
  }
  return "?";
}

namespace {

/// Exact numeric order of an int and a double: -1, 0 or 1 as `i` is
/// below, equal to or above `d` (no rounding of `i` through a double).
int CompareIntFloat(int64_t i, double d) {
  // NaN is unordered; like a float/float comparison, it compares equal.
  if (std::isnan(d)) return 0;
  // Past the int64 range every double is beyond every int. Inside it,
  // trunc(d) converts exactly, so the integral parts compare as ints and
  // the fraction breaks a tie. An integral d thus equals exactly the int
  // it converts to — the one AttrKeyFor maps it onto.
  if (d >= 9223372036854775808.0) return -1;
  if (d < -9223372036854775808.0) return 1;
  const double t = std::trunc(d);
  const int64_t ti = static_cast<int64_t>(t);
  if (i != ti) return i < ti ? -1 : 1;
  return d > t ? -1 : (d < t ? 1 : 0);
}

}  // namespace

std::optional<int> Value::TryCompare(const Value& other) const {
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  // Int/float compare numerically across the two types, and exactly:
  // two ints never round through a double.
  if (type() == ValueType::kInt && other.type() == ValueType::kInt) {
    if (AsInt() < other.AsInt()) return -1;
    return AsInt() > other.AsInt() ? 1 : 0;
  }
  if (type() == ValueType::kInt && other.type() == ValueType::kFloat)
    return CompareIntFloat(AsInt(), other.AsFloat());
  if (type() == ValueType::kFloat && other.type() == ValueType::kInt)
    return -CompareIntFloat(other.AsInt(), AsFloat());
  if (type() != other.type()) return std::nullopt;
  switch (type()) {
    case ValueType::kFloat: {
      double a = AsFloat();
      double b = other.AsFloat();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case ValueType::kBool:
      return static_cast<int>(AsBool()) - static_cast<int>(other.AsBool());
    case ValueType::kString: {
      int c = AsString().compare(other.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case ValueType::kRational: {
      if (!boxed_ && !other.boxed_) {
        // Both halves fit in 32 bits, so the cross products are exact.
        const int64_t a = int64_t{q_.num} * other.q_.den;
        const int64_t b = int64_t{other.q_.num} * q_.den;
        return a < b ? -1 : (a > b ? 1 : 0);
      }
      const Rational a = AsRational();
      const Rational b = other.AsRational();
      if (a < b) return -1;
      return b < a ? 1 : 0;
    }
    case ValueType::kRef: {
      if (AsRef() < other.AsRef()) return -1;
      if (AsRef() > other.AsRef()) return 1;
      return 0;
    }
    default:
      return std::nullopt;
  }
}

Result<int> Value::Compare(const Value& other) const {
  std::optional<int> c = TryCompare(other);
  if (c.has_value()) return *c;
  return TypeError(StrFormat("cannot compare %s with %s",
                             ValueTypeName(type()),
                             ValueTypeName(other.type())));
}

bool Value::Equals(const Value& other) const {
  if (type() != other.type()) {
    // Int/float numeric equality across types.
    Result<int> c = Compare(other);
    return c.ok() && *c == 0;
  }
  switch (type_) {
    case ValueType::kNull: return true;
    case ValueType::kBool: return b_ == other.b_;
    case ValueType::kInt: return i_ == other.i_;
    case ValueType::kFloat: return d_ == other.d_;
    case ValueType::kString:
      return box_ == other.box_ || AsString() == other.AsString();
    case ValueType::kRational:
      // One representation per value: an inline and a boxed rational
      // are never equal.
      if (boxed_ != other.boxed_) return false;
      if (!boxed_) return q_.num == other.q_.num && q_.den == other.q_.den;
      return AsRational() == other.AsRational();
    case ValueType::kRef: return bits_ == other.bits_;
  }
  return false;
}

void Value::Encode(ByteWriter* w) const {
  w->PutU8(static_cast<uint8_t>(type()));
  switch (type()) {
    case ValueType::kNull: break;
    case ValueType::kBool: w->PutU8(AsBool() ? 1 : 0); break;
    case ValueType::kInt: w->PutI64(AsInt()); break;
    case ValueType::kFloat: w->PutF64(AsFloat()); break;
    case ValueType::kString: w->PutString(AsString()); break;
    case ValueType::kRational: {
      const Rational r = AsRational();
      w->PutI64(r.num());
      w->PutI64(r.den());
      break;
    }
    case ValueType::kRef: w->PutU64(AsRef()); break;
  }
}

Status Value::Decode(ByteReader* r, Value* out) {
  uint8_t tag;
  MDM_RETURN_IF_ERROR(r->GetU8(&tag));
  if (tag > static_cast<uint8_t>(ValueType::kRef))
    return Corruption(StrFormat("bad value tag %u", tag));
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      *out = Value::Null();
      return Status::OK();
    case ValueType::kBool: {
      uint8_t b;
      MDM_RETURN_IF_ERROR(r->GetU8(&b));
      *out = Value::Bool(b != 0);
      return Status::OK();
    }
    case ValueType::kInt: {
      int64_t i;
      MDM_RETURN_IF_ERROR(r->GetI64(&i));
      *out = Value::Int(i);
      return Status::OK();
    }
    case ValueType::kFloat: {
      double d;
      MDM_RETURN_IF_ERROR(r->GetF64(&d));
      *out = Value::Float(d);
      return Status::OK();
    }
    case ValueType::kString: {
      std::string s;
      MDM_RETURN_IF_ERROR(r->GetString(&s));
      *out = Value::String(std::move(s));
      return Status::OK();
    }
    case ValueType::kRational: {
      int64_t num, den;
      MDM_RETURN_IF_ERROR(r->GetI64(&num));
      MDM_RETURN_IF_ERROR(r->GetI64(&den));
      if (den == 0) return Corruption("rational with zero denominator");
      *out = Value::Rat(Rational(num, den));
      return Status::OK();
    }
    case ValueType::kRef: {
      uint64_t id;
      MDM_RETURN_IF_ERROR(r->GetU64(&id));
      *out = Value::Ref(id);
      return Status::OK();
    }
  }
  return Internal("unreachable value decode");
}

}  // namespace mdm::rel
