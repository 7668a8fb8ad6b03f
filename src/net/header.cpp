#include "net/header.hpp"

#include <iomanip>
#include <sstream>

namespace ofmtl {

std::string PacketHeader::to_string() const {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& info : field_registry()) {
    if (!has(info.id)) continue;
    if (!first) out << ", ";
    first = false;
    out << info.name << "=";
    if (info.bits > 64) {
      // Zero-pad the low word under a nonzero high word so the digits read
      // as one 128-bit number (hi=1, lo=0x23 is not hi=0x12, lo=0x3).
      const U128 value = get(info.id);
      out << std::hex;
      if (value.hi != 0) out << value.hi << std::setw(16) << std::setfill('0');
      out << value.lo << std::dec;
    } else {
      out << get64(info.id);
    }
  }
  out << "}";
  return out.str();
}

}  // namespace ofmtl
