#include "flow/flow_entry.hpp"

#include <sstream>
#include <stdexcept>

namespace ofmtl {

const char* FlowMatch::fit_error(FieldId id, const FieldMatch& match) {
  switch (match.kind) {
    case MatchKind::kAny:
      return nullptr;
    case MatchKind::kExact:
      return fits_field(id, match.value) ? nullptr : "exact value wider than its field";
    case MatchKind::kPrefix:
      return match.prefix.width() == field_bits(id)
                 ? nullptr
                 : "prefix width is not the field's width";
    case MatchKind::kRange:
      return fits_field(id, U128{match.range.lo}) && fits_field(id, U128{match.range.hi})
                 ? nullptr
                 : "range beyond its field";
    case MatchKind::kMasked:
      return fits_field(id, match.value) && fits_field(id, match.mask)
                 ? nullptr
                 : "masked value or mask wider than its field";
  }
  return "unknown match kind";
}

void FlowMatch::set(FieldId id, const FieldMatch& match) {
  if (const char* error = fit_error(id, match)) {
    throw std::invalid_argument(std::string("FlowMatch::set: ") + error);
  }
  U128 value{};
  U128 aux{};
  std::uint8_t length = 0;
  switch (match.kind) {
    case MatchKind::kAny:
      break;
    case MatchKind::kExact:
      value = match.value;
      break;
    case MatchKind::kPrefix:
      value = match.prefix.value();
      aux = high_mask128(match.prefix.length()) >> (128 - match.prefix.width());
      length = static_cast<std::uint8_t>(match.prefix.length());
      break;
    case MatchKind::kRange:
      value = U128{match.range.lo};
      aux = U128{match.range.hi};
      break;
    case MatchKind::kMasked:
      value = match.value;
      aux = match.mask;
      break;
  }
  const std::size_t i = index(id);
  value_[i] = value.lo;
  aux_[i] = aux.lo;
  if (const std::size_t w = wide_field_slot(id); w < kWideFieldCount) {
    value_hi_[w] = value.hi;
    aux_hi_[w] = aux.hi;
  }
  kind_[i] = match.kind;
  prefix_len_[i] = length;
}

std::string FlowMatch::to_string() const {
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (std::size_t i = 0; i < kFieldCount; ++i) {
    if (kind_[i] == MatchKind::kAny) continue;
    if (!first) out << ", ";
    first = false;
    const auto id = static_cast<FieldId>(i);
    out << field_name(id) << " ";
    switch (kind_[i]) {
      case MatchKind::kExact:
        out << "== " << format_field_value(id, value128(i));
        break;
      case MatchKind::kPrefix:
        out << "in " << get(id).prefix.to_string();
        break;
      case MatchKind::kRange:
        out << "in [" << value_[i] << "," << aux_[i] << "]";
        break;
      case MatchKind::kMasked:
        out << "&" << format_field_value(id, aux128(i))
            << " == " << format_field_value(id, value128(i));
        break;
      case MatchKind::kAny:
        break;
    }
  }
  out << "]";
  return out.str();
}

}  // namespace ofmtl
