#include "core/action_table.hpp"

#include <algorithm>

namespace ofmtl {

void ActionTable::set(std::uint32_t rule_index, const InstructionSet& instructions) {
  slots_ = std::max<std::size_t>(slots_, std::size_t{rule_index} + 1);
  max_entry_bits_ = std::max(max_entry_bits_, instructions.bits());
}

mem::MemoryReport ActionTable::memory_report(const std::string& name) const {
  mem::MemoryReport report;
  report.add(name, slots_, max_entry_bits_);
  return report;
}

}  // namespace ofmtl
