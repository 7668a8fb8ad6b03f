#include "net/header.hpp"

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
    out << info.name << "=" << format_field_value(info.id, get(info.id));
  }
  out << "}";
  return out.str();
}

}  // namespace ofmtl
