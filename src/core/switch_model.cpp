#include "core/switch_model.hpp"

#include <stdexcept>
#include <string>

namespace ofmtl {

SwitchModel::SwitchModel(std::vector<std::vector<FieldId>> table_fields,
                         FieldSearchConfig config) {
  for (auto& fields : table_fields) {
    reference_.add_table(FlowTable{});
    pipeline_.add_table(LookupTable{std::move(fields), {}, config});
  }
  // Both execution surfaces resolve Group actions through the same table,
  // keeping the equivalence invariant intact.
  reference_.set_group_table(&groups_);
  pipeline_.set_group_table(&groups_);
}

void SwitchModel::apply(const FlowMod& mod, std::uint64_t now) {
  if (mod.table >= pipeline_.table_count()) {
    throw std::invalid_argument("flow-mod: unknown table");
  }
  switch (mod.command) {
    case FlowModCommand::kAdd: {
      pipeline_.insert_entry(mod.table, mod.entry);
      reference_.table(mod.table).insert(mod.entry);
      stats_.install(mod.entry.id, mod.timeouts, now);
      table_of_[mod.entry.id] = mod.table;
      return;
    }
    case FlowModCommand::kDelete: {
      if (!pipeline_.remove_entry(mod.table, mod.entry.id)) {
        throw std::invalid_argument("flow-mod: delete of unknown entry");
      }
      reference_.table(mod.table).remove(mod.entry.id);
      stats_.erase(mod.entry.id);
      table_of_.erase(mod.entry.id);
      return;
    }
    case FlowModCommand::kModify: {
      // Modify = delete + add, preserving counters (OpenFlow keeps counters
      // on modify unless a reset flag is set; we keep them). A replacement
      // the table cannot store is refused before the delete.
      if (const char* error =
              pipeline_.table(mod.table).match_error(mod.entry.match)) {
        throw std::invalid_argument(std::string("flow-mod: ") + error);
      }
      if (!mod.entry.instructions.set_fields_fit()) {
        throw std::invalid_argument("flow-mod: Set-Field value wider than its field");
      }
      if (!pipeline_.remove_entry(mod.table, mod.entry.id)) {
        throw std::invalid_argument("flow-mod: modify of unknown entry");
      }
      reference_.table(mod.table).remove(mod.entry.id);
      pipeline_.insert_entry(mod.table, mod.entry);
      reference_.table(mod.table).insert(mod.entry);
      table_of_[mod.entry.id] = mod.table;
      return;
    }
  }
  throw std::logic_error("unknown flow-mod command");
}

ExecutionResult SwitchModel::process(const PacketHeader& header,
                                     std::uint64_t bytes, std::uint64_t now) {
  auto result = pipeline_.execute(header);
  stats_.record(result, bytes, now);
  return result;
}

std::vector<FlowEntryId> SwitchModel::sweep_timeouts(std::uint64_t now) {
  const auto victims = stats_.expired(now);
  for (const auto id : victims) {
    const auto it = table_of_.find(id);
    if (it == table_of_.end()) continue;
    (void)pipeline_.remove_entry(it->second, id);
    (void)reference_.table(it->second).remove(id);
    stats_.erase(id);
    table_of_.erase(it);
  }
  return victims;
}

std::size_t SwitchModel::entry_count() const {
  std::size_t count = 0;
  for (std::size_t t = 0; t < pipeline_.table_count(); ++t) {
    count += pipeline_.table(t).entry_count();
  }
  return count;
}

}  // namespace ofmtl
