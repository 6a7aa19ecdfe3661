// String formatting helpers (GCC 12 lacks <format>, so these wrap snprintf).

#ifndef ARRAYDB_UTIL_STRINGS_H_
#define ARRAYDB_UTIL_STRINGS_H_

#include <cstdarg>
#include <string>
#include <vector>

namespace arraydb::util {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Joins `parts` with `sep` between elements.
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

/// Renders a byte count with a human-friendly unit, e.g. "1.50 GB".
std::string HumanBytes(double bytes);

/// Left-pads or truncates `s` to exactly `width` characters.
std::string PadRight(const std::string& s, size_t width);
std::string PadLeft(const std::string& s, size_t width);

}  // namespace arraydb::util

#endif  // ARRAYDB_UTIL_STRINGS_H_
