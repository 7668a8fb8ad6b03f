#include "flow/instruction.hpp"

#include <algorithm>
#include <sstream>

namespace ofmtl {

bool InstructionSet::set_fields_fit() const {
  const auto fits = [](const Action& action) {
    const auto* set = std::get_if<SetFieldAction>(&action);
    return set == nullptr || fits_field(set->field, set->value);
  };
  return std::all_of(write_actions.begin(), write_actions.end(), fits) &&
         std::all_of(apply_actions.begin(), apply_actions.end(), fits);
}

std::string InstructionSet::to_string() const {
  std::ostringstream out;
  bool first = true;
  const auto sep = [&] {
    if (!first) out << "; ";
    first = false;
  };
  if (goto_table) {
    sep();
    out << "goto-table:" << static_cast<unsigned>(*goto_table);
  }
  if (write_metadata) {
    sep();
    out << "write-metadata:" << write_metadata->value << "/" << write_metadata->mask;
  }
  if (clear_actions) {
    sep();
    out << "clear-actions";
  }
  if (!write_actions.empty()) {
    sep();
    out << "write-actions:{";
    for (std::size_t i = 0; i < write_actions.size(); ++i) {
      if (i != 0) out << ",";
      out << ofmtl::to_string(write_actions[i]);
    }
    out << "}";
  }
  if (!apply_actions.empty()) {
    sep();
    out << "apply-actions:{";
    for (std::size_t i = 0; i < apply_actions.size(); ++i) {
      if (i != 0) out << ",";
      out << ofmtl::to_string(apply_actions[i]);
    }
    out << "}";
  }
  if (first) out << "(empty)";
  return out.str();
}

unsigned InstructionSet::bits() const {
  unsigned bits = 5;  // presence flags, one per instruction kind
  if (goto_table) bits += 8;
  if (write_metadata) bits += 128;
  for (const auto& a : write_actions) bits += action_bits(a);
  for (const auto& a : apply_actions) bits += action_bits(a);
  return bits;
}

InstructionSet goto_table_instruction(std::uint8_t next_table) {
  InstructionSet set;
  set.goto_table = next_table;
  return set;
}

InstructionSet output_instruction(std::uint32_t port) {
  InstructionSet set;
  set.write_actions.push_back(OutputAction{port});
  return set;
}

InstructionSet goto_and_write(std::uint8_t next_table, std::vector<Action> actions) {
  InstructionSet set;
  set.goto_table = next_table;
  set.write_actions = std::move(actions);
  return set;
}

}  // namespace ofmtl
