#include "ofp/server/flow_mod_sink.hpp"

#include <stdexcept>

namespace ofmtl::ofp::server {

void apply_mods(MultiTableLookup& tables, std::span<const PendingFlowMod> mods,
                std::span<ErrorCode> results) {
  for (std::size_t i = 0; i < mods.size(); ++i) {
    const auto& mod = mods[i].mod;
    const std::size_t table = mod.table_id;
    if (table >= tables.table_count()) {
      results[i] = ErrorCode::kBadValue;
      continue;
    }
    // A match or a Set-Field the table cannot store is rejected before
    // anything mutates (a modify must not delete the entry it cannot replace).
    if (mod.command != FlowModCommand::kDelete) {
      if (tables.table(table).match_error(mod.entry.match) != nullptr) {
        results[i] = ErrorCode::kBadMatch;
        continue;
      }
      if (!mod.entry.instructions.set_fields_fit()) {
        results[i] = ErrorCode::kBadValue;
        continue;
      }
    }
    switch (mod.command) {
      case FlowModCommand::kAdd:
        if (tables.contains_entry(table, mod.entry.id)) {
          results[i] = ErrorCode::kDuplicateEntry;
          continue;
        }
        tables.insert_entry(table, mod.entry);
        break;
      case FlowModCommand::kModify:
        if (!tables.remove_entry(table, mod.entry.id)) {
          results[i] = ErrorCode::kUnknownEntry;
          continue;
        }
        tables.insert_entry(table, mod.entry);
        break;
      case FlowModCommand::kDelete:
        if (!tables.remove_entry(table, mod.entry.id)) {
          results[i] = ErrorCode::kUnknownEntry;
          continue;
        }
        break;
    }
    results[i] = ErrorCode::kNone;
  }
}

FlowModSink make_classifier_sink(runtime::SnapshotClassifier& classifier) {
  return [&classifier](std::span<const PendingFlowMod> mods,
                       std::span<ErrorCode> results) {
    // One publish per batch. update() invokes the mutate twice (once per
    // side); apply_mods is deterministic over identical logical content, so
    // both sides make identical decisions — results are simply written
    // twice with the same values.
    classifier.update([mods, results](MultiTableLookup& tables) {
      apply_mods(tables, mods, results);
    });
  };
}

FlowModSink make_model_sink(SwitchModel& model, std::mutex& mutex) {
  return [&model, &mutex](std::span<const PendingFlowMod> mods,
                          std::span<ErrorCode> results) {
    const std::lock_guard<std::mutex> lock(mutex);
    for (std::size_t i = 0; i < mods.size(); ++i) {
      FlowMod flow_mod;
      flow_mod.command = mods[i].mod.command;
      flow_mod.table = mods[i].mod.table_id;
      flow_mod.entry = mods[i].mod.entry;
      flow_mod.timeouts = mods[i].mod.timeouts;
      try {
        model.apply(flow_mod);
        results[i] = ErrorCode::kNone;
      } catch (const std::invalid_argument&) {
        results[i] = ErrorCode::kBadValue;
      }
    }
  };
}

}  // namespace ofmtl::ofp::server
