#include "net/fields.hpp"

#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace ofmtl {

std::string_view to_string(MatchMethod method) {
  switch (method) {
    case MatchMethod::kExact: return "Exact Matching (EM)";
    case MatchMethod::kLongestPrefix: return "Wildcard matching (LPM)";
    case MatchMethod::kRange: return "Wildcard matching (RM)";
  }
  throw std::logic_error("unknown MatchMethod");
}

std::string format_field_value(FieldId id, const U128& value) {
  std::ostringstream out;
  if (field_bits(id) > 64) {
    // Zero-pad the low word under a nonzero high word so the digits read
    // as one 128-bit number (hi=1, lo=0x23 is not hi=0x12, lo=0x3).
    out << std::hex;
    if (value.hi != 0) out << value.hi << std::setw(16) << std::setfill('0');
  }
  out << value.lo;
  return out.str();
}

std::optional<FieldId> field_from_name(std::string_view name) {
  for (const auto& info : field_registry()) {
    if (info.name == name) return info.id;
  }
  return std::nullopt;
}

}  // namespace ofmtl
