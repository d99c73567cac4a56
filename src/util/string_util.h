// Small string helpers shared across modules.
#ifndef GNMR_UTIL_STRING_UTIL_H_
#define GNMR_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace gnmr {
namespace util {

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Parses a signed 64-bit integer; whole string must be consumed.
Result<int64_t> ParseInt64(std::string_view s);

/// Parses a double; whole string must be consumed.
Result<double> ParseDouble(std::string_view s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

}  // namespace util
}  // namespace gnmr

#endif  // GNMR_UTIL_STRING_UTIL_H_
