#include "src/common/strings.h"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "src/common/check.h"

namespace maya {

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  CHECK_GE(needed, 0) << "bad format string";
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, args_copy);
  va_end(args_copy);
  return out;
}

std::string Join(const std::vector<std::string>& parts, const std::string& separator) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out += separator;
    }
    out += parts[i];
  }
  return out;
}

std::string HumanBytes(double bytes) {
  static constexpr const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int unit = 0;
  while (bytes >= 1024.0 && unit < 4) {
    bytes /= 1024.0;
    ++unit;
  }
  return StrFormat("%.2f %s", bytes, kUnits[unit]);
}

std::string HumanDuration(double microseconds) {
  if (microseconds < 1e3) {
    return StrFormat("%.0f us", microseconds);
  }
  if (microseconds < 1e6) {
    return StrFormat("%.2f ms", microseconds / 1e3);
  }
  if (microseconds < 60e6) {
    return StrFormat("%.2f s", microseconds / 1e6);
  }
  return StrFormat("%.1f min", microseconds / 60e6);
}

std::string DoubleBits(double value) {
  return StrFormat("%016llx",
                   static_cast<unsigned long long>(std::bit_cast<uint64_t>(value)));
}

Result<double> DoubleFromBits(const std::string& hex) {
  if (hex.size() != 16) {
    return Status::InvalidArgument("double bit pattern must be 16 hex digits: '" + hex + "'");
  }
  char* end = nullptr;
  const unsigned long long bits = std::strtoull(hex.c_str(), &end, 16);
  if (end != hex.c_str() + hex.size()) {
    return Status::InvalidArgument("bad double bit pattern '" + hex + "'");
  }
  return std::bit_cast<double>(static_cast<uint64_t>(bits));
}

}  // namespace maya
