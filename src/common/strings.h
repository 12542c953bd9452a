// printf-style formatting into std::string plus human-readable unit helpers.
#ifndef SRC_COMMON_STRINGS_H_
#define SRC_COMMON_STRINGS_H_

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace maya {

// printf-style formatting. Format errors CHECK-fail.
std::string StrFormat(const char* format, ...) __attribute__((format(printf, 1, 2)));

std::string Join(const std::vector<std::string>& parts, const std::string& separator);

// 1536 -> "1.50 KiB"; 3221225472 -> "3.00 GiB".
std::string HumanBytes(double bytes);
// Microseconds -> "812 us" / "38.1 ms" / "2.74 s" / "45.2 min".
std::string HumanDuration(double microseconds);

// Bit-exact double <-> 16-hex-digit IEEE-754 pattern: how the JSON codecs
// carry doubles that must survive a round trip unchanged.
std::string DoubleBits(double value);
Result<double> DoubleFromBits(std::string_view hex);

}  // namespace maya

#endif  // SRC_COMMON_STRINGS_H_
