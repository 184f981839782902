#include "simrank/common/json_writer.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "simrank/common/macros.h"

namespace simrank {

void JsonEscape(std::string_view value, std::string* out) {
  for (const char c : value) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

std::string JsonDouble(double value) {
  if (!std::isfinite(value)) return "null";
  // Most entries of a single-source row are +0.0; -0.0 keeps "-0" below.
  if (value == 0.0 && !std::signbit(value)) return "0";
  char buf[32];
  // 15 digits suffice for most values; escalate until the text parses back
  // to the identical bit pattern (17 always does).
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_.push_back('{');
  stack_.push_back(Frame::kObject);
  has_members_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  OIPSIM_CHECK_MSG(!stack_.empty() && stack_.back() == Frame::kObject,
                   "JsonWriter::EndObject outside an object");
  OIPSIM_CHECK_MSG(!pending_key_,
                   "JsonWriter::EndObject after a Key with no value");
  out_.push_back('}');
  stack_.pop_back();
  has_members_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_.push_back('[');
  stack_.push_back(Frame::kArray);
  has_members_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  OIPSIM_CHECK_MSG(!stack_.empty() && stack_.back() == Frame::kArray,
                   "JsonWriter::EndArray outside an array");
  out_.push_back(']');
  stack_.pop_back();
  has_members_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  OIPSIM_CHECK_MSG(!stack_.empty() && stack_.back() == Frame::kObject,
                   "JsonWriter::Key outside an object");
  OIPSIM_CHECK_MSG(!pending_key_, "JsonWriter::Key after an unconsumed Key");
  if (has_members_.back()) out_.push_back(',');
  has_members_.back() = true;
  out_.push_back('"');
  JsonEscape(key, &out_);
  out_.append("\":");
  pending_key_ = true;
  return *this;
}

void JsonWriter::BeforeValue() {
  if (stack_.empty()) {
    OIPSIM_CHECK_MSG(!root_emitted_,
                     "JsonWriter: a document has exactly one root value");
    root_emitted_ = true;
    return;
  }
  if (stack_.back() == Frame::kObject) {
    OIPSIM_CHECK_MSG(pending_key_,
                     "JsonWriter: object values must follow a Key");
    pending_key_ = false;
    return;
  }
  if (has_members_.back()) out_.push_back(',');
  has_members_.back() = true;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_.push_back('"');
  JsonEscape(value, &out_);
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeforeValue();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  out_.append(buf);
  return *this;
}

JsonWriter& JsonWriter::Uint(uint64_t value) {
  BeforeValue();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  out_.append(buf);
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  BeforeValue();
  out_.append(JsonDouble(value));
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_.append(value ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_.append("null");
  return *this;
}

const std::string& JsonWriter::str() const {
  OIPSIM_CHECK_MSG(stack_.empty(),
                   "JsonWriter::str with %zu unclosed containers",
                   stack_.size());
  return out_;
}

}  // namespace simrank
