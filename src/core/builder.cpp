#include "core/builder.hpp"

#include <map>
#include <stdexcept>

namespace ofmtl {

namespace {

/// Encode a U128 field value into the 64-bit metadata register. Field values
/// used as table-0 keys here are <= 64 bits (VLAN ID, ingress port).
[[nodiscard]] std::uint64_t metadata_token(const U128& value,
                                           std::uint64_t label) {
  (void)value;
  return label + 1;  // 0 = "no table-0 match context"
}

}  // namespace

AppSpec build_app(const FilterSet& set, TableLayout layout) {
  if (set.fields.size() != 2) {
    throw std::invalid_argument("build_app expects a two-field filter set");
  }
  AppSpec spec;
  spec.name = set.name;

  if (layout == TableLayout::kSingleTable) {
    FlowTable table;
    table.replace(set.entries);
    spec.reference.add_table(std::move(table));
    return spec;
  }

  const FieldId first = set.fields[0];   // EM field -> table 0
  const FieldId second = set.fields[1];  // address field -> table 1

  // Table 0: one entry per unique first-field value; Goto-Table 1 and
  // Write-Metadata with the value's label.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> labels;
  std::vector<FlowEntry> table0;
  std::vector<FlowEntry> table1;
  table1.reserve(set.entries.size());
  for (const auto& entry : set.entries) {
    const auto& fm = entry.match.get(first);
    if (fm.kind != MatchKind::kExact) {
      throw std::invalid_argument(
          "per-field layout requires exact matches on the table-0 field");
    }
    const auto key = std::make_pair(fm.value.hi, fm.value.lo);
    auto it = labels.find(key);
    if (it == labels.end()) {
      it = labels.emplace(key, labels.size()).first;
      FlowEntry t0;
      t0.id = static_cast<FlowEntryId>(10000 + it->second);
      t0.priority = 1;
      t0.match.set(first, fm);
      t0.instructions.goto_table = 1;
      t0.instructions.write_metadata =
          MetadataWrite{metadata_token(fm.value, it->second), ~std::uint64_t{0}};
      table0.push_back(std::move(t0));
    }
    FlowEntry t1;
    t1.id = entry.id;
    t1.priority = entry.priority;
    t1.match.set(FieldId::kMetadata,
                 FieldMatch::exact(metadata_token(fm.value, it->second)));
    t1.match.set(second, entry.match.get(second));
    t1.instructions = entry.instructions;
    table1.push_back(std::move(t1));
  }

  spec.reference.add_table(FlowTable{std::move(table0)});
  spec.reference.add_table(FlowTable{std::move(table1)});
  return spec;
}

MultiTableLookup compile_app(const AppSpec& spec, FieldSearchConfig config) {
  return MultiTableLookup::compile(spec.reference, config);
}

mem::MemoryReport SwitchPrototype::memory_report() const {
  mem::MemoryReport report;
  report.merge(mac_lookup.memory_report("mac"), "");
  report.merge(routing_lookup.memory_report("routing"), "");
  return report;
}

SwitchPrototype build_prototype(const FilterSet& mac_set,
                                const FilterSet& routing_set,
                                FieldSearchConfig config) {
  SwitchPrototype prototype{
      build_app(mac_set, TableLayout::kPerFieldTables),
      build_app(routing_set, TableLayout::kPerFieldTables),
      {},
      {},
  };
  prototype.mac_lookup = compile_app(prototype.mac, config);
  prototype.routing_lookup = compile_app(prototype.routing, config);
  return prototype;
}

}  // namespace ofmtl
