// OpenFlow v1.3 instructions attached to flow entries. The paper's multiple
// table model uses Goto-Table and Write-Actions (Section IV.C); table-miss
// raises "send to controller".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "flow/action.hpp"

namespace ofmtl {

/// Write-Metadata operand: metadata = (metadata & ~mask) | (value & mask).
struct MetadataWrite {
  std::uint64_t value = 0;
  std::uint64_t mask = ~std::uint64_t{0};
  friend bool operator==(const MetadataWrite&, const MetadataWrite&) = default;
};

/// The instruction set of one flow entry (at most one of each kind, per the
/// OpenFlow specification).
struct InstructionSet {
  std::optional<std::uint8_t> goto_table;          ///< Goto-Table
  std::optional<MetadataWrite> write_metadata;     ///< Write-Metadata
  std::vector<Action> write_actions;               ///< Write-Actions (action set)
  std::vector<Action> apply_actions;               ///< Apply-Actions (immediate)
  bool clear_actions = false;                      ///< Clear-Actions

  friend bool operator==(const InstructionSet&, const InstructionSet&) = default;

  [[nodiscard]] std::string to_string() const;

  /// Whether every Set-Field value (apply and write actions) fits its
  /// field's width — what a table requires before storing the entry.
  [[nodiscard]] bool set_fields_fit() const;

  /// Encoded size in bits for the action-table memory model: presence flags,
  /// 8-bit next-table id, 128-bit metadata write, and the actions themselves.
  [[nodiscard]] unsigned bits() const;
};

/// Convenience constructors for the two instruction patterns of Section IV.C.
[[nodiscard]] InstructionSet goto_table_instruction(std::uint8_t next_table);
[[nodiscard]] InstructionSet output_instruction(std::uint32_t port);
[[nodiscard]] InstructionSet goto_and_write(std::uint8_t next_table,
                                            std::vector<Action> actions);

}  // namespace ofmtl
