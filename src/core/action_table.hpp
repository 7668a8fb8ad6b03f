// Action tables (Fig. 1, Section IV.C): the instruction storage addressed by
// the final index. Matched entries carry Goto-Table / Write-Actions; a miss
// is "send to controller".
#pragma once

#include <cstdint>
#include <string>

#include "flow/instruction.hpp"
#include "mem/memory_model.hpp"

namespace ofmtl {

class ActionTable {
 public:
  /// Account instructions written at a slot (grows the table as needed) —
  /// used by entry insertion with slot reuse. A removed entry's slot stays
  /// allocated and the word width never shrinks, as in hardware.
  void set(std::uint32_t rule_index, const InstructionSet& instructions);

  [[nodiscard]] std::size_t size() const { return slots_; }

  /// Fixed-width words: every entry padded to the widest instruction set.
  /// The cost model needs only the slot count and that width, so the table
  /// stores nothing else — the instructions themselves live in the flow
  /// entries the index resolves to.
  [[nodiscard]] unsigned word_bits() const { return max_entry_bits_; }
  [[nodiscard]] mem::MemoryReport memory_report(const std::string& name) const;
  [[nodiscard]] std::uint64_t update_words() const { return slots_; }

 private:
  std::size_t slots_ = 0;
  unsigned max_entry_bits_ = 0;
};

}  // namespace ofmtl
