#pragma once
// Minimal JSON value type, parser and canonical writer for the service
// layer (docs/service.md).
//
// Scope is deliberately small: the wire protocol and the scenario spec
// format are line-delimited JSON documents that the service both reads and
// writes, and the result cache keys on a *canonical* rendering of the spec
// — so the one property this module must guarantee is that dump() is a
// pure function of the value (object keys sorted, integers rendered without
// exponent, a fixed shortest-roundtrip rendering for doubles).  No external
// dependency: the container bakes in no JSON library and the repo's policy
// is to stub rather than install (ROADMAP.md).
//
// Parsing is strict UTF-8-agnostic byte parsing of RFC 8259 documents with
// two conveniences: a byte offset is reported on error (for structured
// rejects, never throws), and numbers that fit an int64 exactly are kept as
// integers so canonical dumps of specs are stable across parse/dump cycles.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace deep::svc {

struct ParseResult;

/// One JSON value.  Objects keep their members in a std::map, so iteration
/// — and therefore dump() — is always key-sorted: parsing a document and
/// dumping it back yields the canonical form regardless of member order in
/// the input.
class Json {
 public:
  enum class Type { Null, Bool, Int, Double, String, Array, Object };

  Json() = default;  // null
  Json(bool b) : type_(Type::Bool), bool_(b) {}  // NOLINT
  Json(std::int64_t i) : type_(Type::Int), int_(i) {}  // NOLINT
  Json(int i) : type_(Type::Int), int_(i) {}  // NOLINT
  Json(double d) : type_(Type::Double), double_(d) {}  // NOLINT
  Json(std::string s) : type_(Type::String), str_(std::move(s)) {}  // NOLINT
  Json(const char* s) : type_(Type::String), str_(s) {}  // NOLINT

  static Json array() {
    Json j;
    j.type_ = Type::Array;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::Object;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_int() const { return type_ == Type::Int; }
  bool is_number() const {
    return type_ == Type::Int || type_ == Type::Double;
  }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  bool as_bool() const { return bool_; }
  std::int64_t as_int() const {
    return type_ == Type::Double ? static_cast<std::int64_t>(double_) : int_;
  }
  double as_double() const {
    return type_ == Type::Int ? static_cast<double>(int_) : double_;
  }
  const std::string& as_string() const { return str_; }

  std::vector<Json>& items() { return arr_; }
  const std::vector<Json>& items() const { return arr_; }
  std::map<std::string, Json>& members() { return obj_; }
  const std::map<std::string, Json>& members() const { return obj_; }

  void push_back(Json v) {
    type_ = Type::Array;
    arr_.push_back(std::move(v));
  }
  /// Sets a member (the value becomes an object if it was null).
  Json& set(const std::string& key, Json v) {
    type_ = Type::Object;
    return obj_[key] = std::move(v);
  }
  /// Member lookup; nullptr when absent or not an object.
  const Json* find(std::string_view key) const {
    if (type_ != Type::Object) return nullptr;
    auto it = obj_.find(std::string(key));
    return it == obj_.end() ? nullptr : &it->second;
  }

  /// Canonical rendering: keys sorted (by construction), no whitespace,
  /// "%.17g"-roundtripped doubles, plain int64 integers.  Two structurally
  /// equal values always dump to byte-identical strings.
  std::string dump() const;

  /// Escapes `s` as a JSON string literal including the quotes.
  static std::string escape(std::string_view s);

  /// Deepest nesting of arrays and objects parse() accepts.  The parser
  /// recurses once per level, so without a cap one line of 200,000 `[`
  /// overflows the stack; a deeper document is an error at the byte offset
  /// of the first bracket past the cap.  Service specs nest 4 levels.
  static constexpr int kMaxDepth = 64;

  using ParseResult = svc::ParseResult;
  /// Parses one JSON document; trailing non-whitespace is an error.
  static svc::ParseResult parse(std::string_view text);

 private:
  Type type_ = Type::Null;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0;
  std::string str_;
  std::vector<Json> arr_;
  std::map<std::string, Json> obj_;
};

/// Outcome of Json::parse — nested logically, defined at namespace scope so
/// it can hold a complete Json by value.
struct ParseResult {
  bool ok = false;
  Json value;
  std::string error;       // empty on success
  std::size_t offset = 0;  // byte offset of the error
};

/// FNV-1a 64-bit hash of `bytes` — the result-cache key hash applied to the
/// canonical spec rendering.  Stable across platforms and runs.
std::uint64_t fnv1a64(std::string_view bytes);

/// Lower-case hex rendering of a 64-bit hash (16 chars).
std::string hex64(std::uint64_t v);

}  // namespace deep::svc
