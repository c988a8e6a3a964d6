#pragma once
// Flag-value parsing shared by deepsim and deepsimd: a missing value, or one
// that is not a whole number in range, is a usage error naming the flag.

#include <charconv>
#include <cstdio>
#include <string>
#include <system_error>

namespace deep::tools {

/// Reads the value after flag argv[i] into `out`, stepping `i` past it.
inline bool flag_text(int argc, char** argv, int& i, std::string& out) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "%s needs a value\n", argv[i]);
    return false;
  }
  out = argv[++i];
  return true;
}

/// Parses `text`, the value of `flag`, as a decimal integer of type T.
template <typename T>
bool parse_int(const char* flag, const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, out);
  if (ec == std::errc() && stop == end) return true;
  std::fprintf(stderr, "%s: '%.64s' is not an integer in range\n", flag,
               text.c_str());
  return false;
}

/// flag_text() then parse_int().
template <typename T>
bool flag_int(int argc, char** argv, int& i, T& out) {
  std::string text;
  return flag_text(argc, argv, i, text) && parse_int(argv[i - 1], text, out);
}

}  // namespace deep::tools
