// The OpenFlow v1.3 match-field registry: the 15 common matching fields of the
// paper's Table II, with their bit widths and required matching method, plus
// the 64-bit metadata register used to pass state between lookup tables.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
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
inline constexpr std::array<FieldInfo, kFieldCount> kFieldRegistry = {{
    {FieldId::kInPort, "Ingress Port", 32, MatchMethod::kExact},
    {FieldId::kEthSrc, "Source Ethernet", 48, MatchMethod::kLongestPrefix},
    {FieldId::kEthDst, "Destination Ethernet", 48, MatchMethod::kLongestPrefix},
    {FieldId::kEthType, "Ethernet Type", 16, MatchMethod::kExact},
    {FieldId::kVlanId, "VLAN ID", 13, MatchMethod::kExact},
    {FieldId::kVlanPcp, "VLAN Priority", 3, MatchMethod::kExact},
    {FieldId::kMplsLabel, "MPLS Label", 20, MatchMethod::kExact},
    {FieldId::kIpv4Src, "Source IPv4", 32, MatchMethod::kLongestPrefix},
    {FieldId::kIpv4Dst, "Destination IPv4", 32, MatchMethod::kLongestPrefix},
    {FieldId::kIpv6Src, "Source IPv6", 128, MatchMethod::kLongestPrefix},
    {FieldId::kIpv6Dst, "Destination IPv6", 128, MatchMethod::kLongestPrefix},
    {FieldId::kIpProto, "IPv4 Protocol", 8, MatchMethod::kExact},
    {FieldId::kIpTos, "IPv4 ToS", 6, MatchMethod::kExact},
    {FieldId::kSrcPort, "Source Port", 16, MatchMethod::kRange},
    {FieldId::kDstPort, "Destination Port", 16, MatchMethod::kRange},
    {FieldId::kMetadata, "Metadata", 64, MatchMethod::kExact},
}};
static_assert([] {
  for (std::size_t i = 0; i < kFieldCount; ++i) {
    if (static_cast<std::size_t>(kFieldRegistry[i].id) != i) return false;
  }
  return true;
}());

[[nodiscard]] constexpr const std::array<FieldInfo, kFieldCount>& field_registry() {
  return kFieldRegistry;
}

[[nodiscard]] constexpr const FieldInfo& field_info(FieldId id) {
  return kFieldRegistry.at(static_cast<std::size_t>(id));
}

[[nodiscard]] constexpr unsigned field_bits(FieldId id) { return field_info(id).bits; }
[[nodiscard]] constexpr MatchMethod field_method(FieldId id) {
  return field_info(id).method;
}
[[nodiscard]] constexpr std::string_view field_name(FieldId id) {
  return field_info(id).name;
}

/// Whether `value` fits in the field's width: no bit set at or above
/// field_bits(id).
[[nodiscard]] constexpr bool fits_field(FieldId id, const U128& value) {
  return (value >> field_bits(id)) == U128{};
}

/// kIpv6Src and kIpv6Dst, adjacent in FieldId order, are the only fields
/// wider than 64 bits. Packed layouts (PacketHeader, FlowMatch) keep one low
/// word per field and give these two slots 0 and 1 of a high-word array.
inline constexpr std::size_t kWideFieldCount = 2;
static_assert(static_cast<unsigned>(FieldId::kIpv6Dst) ==
              static_cast<unsigned>(FieldId::kIpv6Src) + 1);

/// The high-word slot of a 128-bit field; >= kWideFieldCount (unsigned wrap)
/// for every other field.
[[nodiscard]] constexpr std::size_t wide_field_slot(FieldId id) {
  return static_cast<std::size_t>(id) - static_cast<std::size_t>(FieldId::kIpv6Src);
}

/// A field value as text: decimal for fields of 64 bits or less, one 128-bit
/// hex number for IPv6 (the low word zero-padded under a nonzero high word).
[[nodiscard]] std::string format_field_value(FieldId id, const U128& value);

/// Number of 16-bit partitions a wide LPM field decomposes into (paper
/// Section V.A: Ethernet = 3 tries, IPv4 = 2 tries, IPv6 = 8 tries).
[[nodiscard]] constexpr unsigned partition_count(unsigned field_bits_) {
  return (field_bits_ + 15) / 16;
}

[[nodiscard]] std::optional<FieldId> field_from_name(std::string_view name);

}  // namespace ofmtl
