#include "svc/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace deep::svc {

namespace {

void dump_to(const Json& v, std::string& out);

void dump_double(double d, std::string& out) {
  if (std::isfinite(d)) {
    char buf[32];
    // Shortest rendering that round-trips: try increasing precision.  This
    // keeps canonical dumps short AND stable (a pure function of the bits).
    for (int prec = 1; prec <= 17; ++prec) {
      std::snprintf(buf, sizeof buf, "%.*g", prec, d);
      if (std::strtod(buf, nullptr) == d) break;
    }
    out += buf;
  } else {
    out += "null";  // RFC 8259 has no NaN/Inf
  }
}

void dump_to(const Json& v, std::string& out) {
  switch (v.type()) {
    case Json::Type::Null:
      out += "null";
      break;
    case Json::Type::Bool:
      out += v.as_bool() ? "true" : "false";
      break;
    case Json::Type::Int:
      out += std::to_string(v.as_int());
      break;
    case Json::Type::Double:
      dump_double(v.as_double(), out);
      break;
    case Json::Type::String:
      out += Json::escape(v.as_string());
      break;
    case Json::Type::Array: {
      out += '[';
      bool first = true;
      for (const Json& item : v.items()) {
        if (!first) out += ',';
        first = false;
        dump_to(item, out);
      }
      out += ']';
      break;
    }
    case Json::Type::Object: {
      out += '{';
      bool first = true;
      for (const auto& [key, val] : v.members()) {
        if (!first) out += ',';
        first = false;
        out += Json::escape(key);
        out += ':';
        dump_to(val, out);
      }
      out += '}';
      break;
    }
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json::ParseResult run() {
    Json::ParseResult r;
    Json v;
    if (!parse_value(v)) {
      r.error = error_;
      r.offset = pos_;
      return r;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      r.error = "trailing characters after document";
      r.offset = pos_;
      return r;
    }
    r.ok = true;
    r.value = std::move(v);
    return r;
  }

 private:
  bool fail(const char* msg) {
    error_ = msg;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word)
      return fail("invalid literal");
    pos_ += word.size();
    return true;
  }

  bool parse_value(Json& out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of document");
    const char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == Json::kMaxDepth)
          return fail("arrays and objects nested deeper than Json::kMaxDepth");
        ++depth_;
        const bool ok = c == '{' ? parse_object(out) : parse_array(out);
        --depth_;
        return ok;
      }
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Json(std::move(s));
        return true;
      }
      case 't':
        out = Json(true);
        return literal("true");
      case 'f':
        out = Json(false);
        return literal("false");
      case 'n':
        out = Json();
        return literal("null");
      default:
        return parse_number(out);
    }
  }

  bool parse_object(Json& out) {
    out = Json::object();
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return fail("expected object key");
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':')
        return fail("expected ':' after object key");
      ++pos_;
      Json val;
      if (!parse_value(val)) return false;
      out.set(key, std::move(val));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(Json& out) {
    out = Json::array();
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      Json val;
      if (!parse_value(val)) return false;
      out.push_back(std::move(val));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("invalid \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are passed
          // through as two 3-byte sequences — the service never emits them).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default:
          return fail("invalid escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(Json& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ == start || (text_[start] == '-' && pos_ == start + 1))
      return fail("invalid number");
    const std::string token(text_.substr(start, pos_ - start));
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        out = Json(static_cast<std::int64_t>(v));
        return true;
      }
    }
    out = Json(std::strtod(token.c_str(), nullptr));
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
  int depth_ = 0;  // arrays and objects open around pos_
};

}  // namespace

std::string Json::dump() const {
  std::string out;
  dump_to(*this, out);
  return out;
}

std::string Json::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

Json::ParseResult Json::parse(std::string_view text) {
  return Parser(text).run();
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace deep::svc
