// Flow entries: a match over OpenFlow fields + priority + instructions.
// FlowMatch is also the generic "filter"/"rule" representation used by the
// classification algorithms (the paper uses filter and rule interchangeably).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "flow/instruction.hpp"
#include "net/fields.hpp"
#include "net/header.hpp"
#include "net/prefix.hpp"

namespace ofmtl {

/// How one field of a rule constrains packets.
enum class MatchKind : std::uint8_t {
  kAny,     ///< field not matched (wildcard)
  kExact,   ///< all bits compared
  kPrefix,  ///< high `length` bits compared (LPM syntax)
  kRange,   ///< inclusive [lo, hi] (RM syntax)
  kMasked,  ///< arbitrary bitmask (metadata matches)
};

/// Constraint on a single field: the API value type that FlowMatch::set packs
/// and FlowMatch::get rebuilds. A small tagged struct rather than a variant.
struct FieldMatch {
  MatchKind kind = MatchKind::kAny;
  U128 value{};             // kExact / kMasked
  U128 mask{};              // kMasked
  Prefix prefix{};          // kPrefix
  ValueRange range{};       // kRange

  [[nodiscard]] static FieldMatch any() { return {}; }
  [[nodiscard]] static FieldMatch exact(U128 value) {
    FieldMatch m;
    m.kind = MatchKind::kExact;
    m.value = value;
    return m;
  }
  [[nodiscard]] static FieldMatch exact(std::uint64_t value) {
    return exact(U128{value});
  }
  [[nodiscard]] static FieldMatch of_prefix(const Prefix& prefix) {
    FieldMatch m;
    m.kind = MatchKind::kPrefix;
    m.prefix = prefix;
    return m;
  }
  [[nodiscard]] static FieldMatch of_range(std::uint64_t lo, std::uint64_t hi) {
    FieldMatch m;
    m.kind = MatchKind::kRange;
    m.range = ValueRange{lo, hi};
    return m;
  }
  [[nodiscard]] static FieldMatch masked(U128 value, U128 mask) {
    FieldMatch m;
    m.kind = MatchKind::kMasked;
    m.value = value & mask;
    m.mask = mask;
    return m;
  }

  [[nodiscard]] bool matches(const U128& key) const {
    switch (kind) {
      case MatchKind::kAny: return true;
      case MatchKind::kExact: return key == value;
      case MatchKind::kPrefix: return prefix.matches(key);
      case MatchKind::kRange: return key.hi == 0 && range.contains(key.lo);
      case MatchKind::kMasked: return (key & mask) == value;
    }
    return false;
  }

  friend bool operator==(const FieldMatch&, const FieldMatch&) = default;
};

/// A match across all OpenFlow fields. Fields default to kAny.
///
/// Packed the way PacketHeader is: per field one 64-bit value word, one
/// 64-bit aux word, a kind byte and a prefix-length byte, with values
/// right-aligned in the field's width. The aux word holds the mask of a
/// kMasked constraint, the bits a kPrefix constraint compares, and the high
/// end of a kRange (whose low end is the value word); it is zero otherwise.
/// Only kIpv6Src and kIpv6Dst carry high value/aux words. FieldMatch stays
/// the API value type: set() packs one, get() rebuilds it.
class FlowMatch {
 public:
  FlowMatch() = default;

  /// Why `match` does not fit field `id` (an exact or masked value wider
  /// than field_bits(id), a prefix whose width is not field_bits(id), a
  /// range beyond the field, an unknown kind), or nullptr if it does.
  [[nodiscard]] static const char* fit_error(FieldId id, const FieldMatch& match);

  /// Packs `match` into field `id`. A constraint that does not fit (see
  /// fit_error) throws std::invalid_argument and leaves the match unchanged.
  void set(FieldId id, const FieldMatch& match);

  /// The constraint on field `id`, rebuilt from the packed words: equal to
  /// what set() was given (members its kind does not use are zero).
  [[nodiscard]] FieldMatch get(FieldId id) const {
    const std::size_t i = index(id);
    FieldMatch m;
    m.kind = kind_[i];
    switch (m.kind) {
      case MatchKind::kAny:
        break;
      case MatchKind::kExact:
        m.value = value128(i);
        break;
      case MatchKind::kPrefix:
        m.prefix = Prefix{value128(i), prefix_len_[i], field_bits(id)};
        break;
      case MatchKind::kRange:
        m.range = ValueRange{value_[i], aux_[i]};
        break;
      case MatchKind::kMasked:
        m.value = value128(i);
        m.mask = aux128(i);
        break;
    }
    return m;
  }
  [[nodiscard]] MatchKind kind(FieldId id) const { return kind_[index(id)]; }
  [[nodiscard]] bool constrains(FieldId id) const {
    return kind(id) != MatchKind::kAny;
  }

  /// Compares the packed words directly; no FieldMatch is rebuilt.
  [[nodiscard]] bool matches(const PacketHeader& header) const {
    for (std::size_t i = 0; i < kFieldCount; ++i) {
      if (kind_[i] == MatchKind::kAny) continue;
      if (!field_matches(i, header.get(static_cast<FieldId>(i)))) return false;
    }
    return true;
  }

  /// Bitset of constrained fields (bit i = FieldId i; kFieldCount is 16).
  [[nodiscard]] std::uint16_t constrained_mask() const {
    std::uint16_t mask = 0;
    for (std::size_t i = 0; i < kFieldCount; ++i) {
      if (kind_[i] != MatchKind::kAny) mask |= static_cast<std::uint16_t>(1U << i);
    }
    return mask;
  }

  /// `[name op value, ...]` over the constrained fields; IPv6 exact and
  /// masked values print as one 128-bit hex number.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const FlowMatch&, const FlowMatch&) = default;

 private:
  [[nodiscard]] static constexpr std::size_t index(FieldId id) {
    return static_cast<std::size_t>(id);
  }
  [[nodiscard]] U128 value128(std::size_t i) const {
    const std::size_t w = wide_field_slot(static_cast<FieldId>(i));
    return {w < kWideFieldCount ? value_hi_[w] : 0, value_[i]};
  }
  [[nodiscard]] U128 aux128(std::size_t i) const {
    const std::size_t w = wide_field_slot(static_cast<FieldId>(i));
    return {w < kWideFieldCount ? aux_hi_[w] : 0, aux_[i]};
  }
  [[nodiscard]] bool field_matches(std::size_t i, const U128& key) const {
    switch (kind_[i]) {
      case MatchKind::kAny:
        return true;
      case MatchKind::kExact:
        return key == value128(i);
      case MatchKind::kPrefix:
      case MatchKind::kMasked:
        return (key & aux128(i)) == value128(i);
      case MatchKind::kRange:
        return key.hi == 0 && value_[i] <= key.lo && key.lo <= aux_[i];
    }
    return false;
  }

  std::array<std::uint64_t, kFieldCount> value_{};
  std::array<std::uint64_t, kFieldCount> aux_{};
  std::array<std::uint64_t, kWideFieldCount> value_hi_{};
  std::array<std::uint64_t, kWideFieldCount> aux_hi_{};
  std::array<MatchKind, kFieldCount> kind_{};
  std::array<std::uint8_t, kFieldCount> prefix_len_{};
};

// 16 value + 16 aux words, 2 + 2 IPv6 high words, 16 kind and 16 prefix-length
// bytes: five cache lines, where sixteen 80-byte FieldMatch structs took 20.
static_assert(sizeof(FlowMatch) <= 320);

/// Identifier of a flow entry within its filter set (stable across rebuilds).
using FlowEntryId = std::uint32_t;

/// One OpenFlow flow entry.
struct FlowEntry {
  FlowEntryId id = 0;
  std::uint16_t priority = 0;  // higher wins
  FlowMatch match;
  InstructionSet instructions;

  friend bool operator==(const FlowEntry&, const FlowEntry&) = default;
};

// Every rule copy (filter-set build, FlowTable::replace, LookupTable compile
// and insert, the left-right clone) moves this many bytes per entry.
static_assert(sizeof(FlowEntry) <= 416);

/// A filter set: the rules of one application's flow table(s) plus the list
/// of fields the application matches on (e.g. MAC learning: VLAN ID +
/// destination Ethernet; routing: ingress port + destination IPv4).
struct FilterSet {
  std::string name;
  std::vector<FieldId> fields;
  std::vector<FlowEntry> entries;

  [[nodiscard]] std::size_t size() const { return entries.size(); }
};

}  // namespace ofmtl
