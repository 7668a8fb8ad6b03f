// The OpenFlow v1.3 match-field registry: the 15 common matching fields of the
// paper's Table II, with their bit widths and required matching method, plus
// the 64-bit metadata register used to pass state between lookup tables.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

#include "net/types.hpp"

namespace ofmtl {

/// Matching method an OpenFlow field requires (Table II, column 3).
enum class MatchMethod : std::uint8_t {
  kExact,          ///< EM  — all bits compared (hash LUT in the architecture).
  kLongestPrefix,  ///< LPM — wildcard suffix (multi-bit trie).
  kRange,          ///< RM  — narrowest enclosing range (port fields).
};

[[nodiscard]] std::string_view to_string(MatchMethod method);

/// The 15 common OpenFlow v1.3 match fields analysed by the paper (Table II),
/// in the paper's order. kMetadata is the inter-table register (not counted
/// among the 15).
enum class FieldId : std::uint8_t {
  kInPort = 0,
  kEthSrc,
  kEthDst,
  kEthType,
  kVlanId,
  kVlanPcp,
  kMplsLabel,
  kIpv4Src,
  kIpv4Dst,
  kIpv6Src,
  kIpv6Dst,
  kIpProto,
  kIpTos,
  kSrcPort,
  kDstPort,
  kMetadata,
};

inline constexpr std::size_t kMatchFieldCount = 15;  // Table II rows.
inline constexpr std::size_t kFieldCount = 16;       // + metadata.

/// Static description of one match field.
struct FieldInfo {
  FieldId id;
  std::string_view name;
  unsigned bits;
  MatchMethod method;
};

/// Registry of all fields, indexed by FieldId. The widths and matching
/// methods are exactly those of Table II.
[[nodiscard]] const std::array<FieldInfo, kFieldCount>& field_registry();

[[nodiscard]] const FieldInfo& field_info(FieldId id);

[[nodiscard]] inline unsigned field_bits(FieldId id) { return field_info(id).bits; }
[[nodiscard]] inline MatchMethod field_method(FieldId id) {
  return field_info(id).method;
}
[[nodiscard]] inline std::string_view field_name(FieldId id) {
  return field_info(id).name;
}

/// Whether `value` fits in the field's width: no bit set at or above
/// field_bits(id).
[[nodiscard]] inline bool fits_field(FieldId id, const U128& value) {
  return (value >> field_bits(id)) == U128{};
}

/// Number of 16-bit partitions a wide LPM field decomposes into (paper
/// Section V.A: Ethernet = 3 tries, IPv4 = 2 tries, IPv6 = 8 tries).
[[nodiscard]] constexpr unsigned partition_count(unsigned field_bits_) {
  return (field_bits_ + 15) / 16;
}

[[nodiscard]] std::optional<FieldId> field_from_name(std::string_view name);

}  // namespace ofmtl
