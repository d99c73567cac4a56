#include "src/util/string_util.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cerrno>

namespace gnmr {
namespace util {

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r' || s[b] == '\n'))
    ++b;
  while (e > b &&
         (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r' ||
          s[e - 1] == '\n'))
    --e;
  return s.substr(b, e - b);
}

Result<int64_t> ParseInt64(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return Status::ParseError("empty integer field");
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  int64_t v = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) return Status::ParseError("integer out of range: " + buf);
  if (end == nullptr || *end != '\0')
    return Status::ParseError("trailing characters in integer: " + buf);
  return v;
}

Result<double> ParseDouble(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return Status::ParseError("empty float field");
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) return Status::ParseError("float out of range: " + buf);
  if (end == nullptr || *end != '\0')
    return Status::ParseError("trailing characters in float: " + buf);
  return v;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

}  // namespace util
}  // namespace gnmr
