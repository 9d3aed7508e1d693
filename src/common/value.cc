#include "common/value.h"

#include <bit>
#include <sstream>

#include "common/bytes.h"

namespace uberrt {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull: return "NULL";
    case ValueType::kInt: return "INT";
    case ValueType::kDouble: return "DOUBLE";
    case ValueType::kString: return "STRING";
    case ValueType::kBool: return "BOOL";
  }
  return "UNKNOWN";
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble: {
      std::ostringstream os;
      os << AsDouble();
      return os.str();
    }
    case ValueType::kString:
      return AsString();
    case ValueType::kBool:
      return AsBool() ? "true" : "false";
  }
  return "NULL";
}

bool Value::operator<(const Value& other) const {
  ValueType a = type();
  ValueType b = other.type();
  // Nulls sort first.
  if (a == ValueType::kNull || b == ValueType::kNull) {
    return a == ValueType::kNull && b != ValueType::kNull;
  }
  bool a_num = a != ValueType::kString;
  bool b_num = b != ValueType::kString;
  if (a_num && b_num) return ToNumeric() < other.ToNumeric();
  if (a == ValueType::kString && b == ValueType::kString) {
    return AsString() < other.AsString();
  }
  // Mixed string/numeric: numerics sort before strings.
  return a_num;
}

int RowSchema::FieldIndex(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

std::string RowSchema::ToString() const {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) os << ", ";
    os << fields_[i].name << " " << ValueTypeName(fields_[i].type);
  }
  os << ")";
  return os.str();
}

void AppendValue(std::string* out, const Value& v) {
  out->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      bytes::PutLE64(out, static_cast<uint64_t>(v.AsInt()));
      break;
    case ValueType::kDouble:
      bytes::PutLE64(out, std::bit_cast<uint64_t>(v.AsDouble()));
      break;
    case ValueType::kString:
      bytes::PutString(out, v.AsString());
      break;
    case ValueType::kBool:
      out->push_back(v.AsBool() ? 1 : 0);
      break;
  }
}

std::string EncodeRow(const Row& row) {
  std::string out;
  bytes::PutLE32(&out, static_cast<uint32_t>(row.size()));
  for (const Value& v : row) AppendValue(&out, v);
  return out;
}

Result<Row> DecodeRow(std::string_view data) {
  bytes::ByteReader in(data);
  uint32_t count = 0;
  if (!in.U32(&count)) return Status::Corruption("row header truncated");
  // Every field needs at least its 1-byte tag; a count beyond the remaining
  // bytes is corruption (and must not drive a huge reserve()).
  if (count > in.remaining()) return Status::Corruption("row count implausible");
  Row row;
  row.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t tag = 0;
    if (!in.U8(&tag)) return Status::Corruption("row body truncated");
    switch (static_cast<ValueType>(tag)) {
      case ValueType::kNull:
        row.push_back(Value::Null());
        break;
      case ValueType::kInt: {
        uint64_t raw;
        if (!in.U64(&raw)) return Status::Corruption("int truncated");
        row.push_back(Value(static_cast<int64_t>(raw)));
        break;
      }
      case ValueType::kDouble: {
        uint64_t bits;
        if (!in.U64(&bits)) return Status::Corruption("double truncated");
        row.push_back(Value(std::bit_cast<double>(bits)));
        break;
      }
      case ValueType::kString: {
        std::string_view s;
        if (!in.String(&s)) return Status::Corruption("string truncated");
        row.push_back(Value(std::string(s)));
        break;
      }
      case ValueType::kBool: {
        uint8_t b = 0;
        if (!in.U8(&b)) return Status::Corruption("bool truncated");
        row.push_back(Value(b != 0));
        break;
      }
      default:
        return Status::Corruption("unknown value tag");
    }
  }
  return row;
}

}  // namespace uberrt
