// LookupTable: the decomposed single-table engine must agree with the
// linear-search FlowTable on every packet, across match-method mixes.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/lookup_table.hpp"
#include "flow/flow_table.hpp"
#include "workload/acl_synth.hpp"
#include "workload/stanford_synth.hpp"
#include "workload/trace_gen.hpp"

namespace ofmtl {
namespace {

using workload::AclConfig;
using workload::generate_acl;
using workload::generate_trace;
using workload::TraceConfig;

FlowEntry make_entry(FlowEntryId id, std::uint16_t priority, FlowMatch match,
                     std::uint32_t port) {
  FlowEntry entry;
  entry.id = id;
  entry.priority = priority;
  entry.match = std::move(match);
  entry.instructions = output_instruction(port);
  return entry;
}

TEST(LookupTable, ExactFieldBasics) {
  FlowMatch m1;
  m1.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{100}));
  FlowMatch m2;
  m2.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{200}));
  LookupTable table({FieldId::kVlanId},
                    {make_entry(0, 1, m1, 1), make_entry(1, 1, m2, 2)});

  PacketHeader h;
  h.set_vlan_id(100);
  ASSERT_NE(table.lookup(h), nullptr);
  EXPECT_EQ(table.lookup(h)->id, 0U);
  h.set_vlan_id(300);
  EXPECT_EQ(table.lookup(h), nullptr);  // miss -> controller
}

TEST(LookupTable, WildcardEmFieldMatchesEverything) {
  FlowMatch specific;
  specific.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{100}));
  FlowMatch any;  // does not constrain the field
  LookupTable table({FieldId::kVlanId},
                    {make_entry(0, 10, specific, 1), make_entry(1, 1, any, 2)});

  PacketHeader h;
  h.set_vlan_id(100);
  EXPECT_EQ(table.lookup(h)->id, 0U);  // higher priority specific rule
  h.set_vlan_id(999);
  EXPECT_EQ(table.lookup(h)->id, 1U);  // falls back to the wildcard rule
}

TEST(LookupTable, LpmPriorityAcrossPartitions) {
  // Prefixes of 8, 20 and 32 bits over IPv4: the 20-bit one spans into the
  // second 16-bit partition trie.
  FlowMatch short_p, mid_p, exact_p;
  short_p.set(FieldId::kIpv4Dst,
              FieldMatch::of_prefix(Prefix::from_value(0x0A000000, 8, 32)));
  mid_p.set(FieldId::kIpv4Dst,
            FieldMatch::of_prefix(Prefix::from_value(0x0A001000, 20, 32)));
  exact_p.set(FieldId::kIpv4Dst,
              FieldMatch::of_prefix(Prefix::from_value(0x0A001234, 32, 32)));
  LookupTable table({FieldId::kIpv4Dst},
                    {make_entry(0, 8, short_p, 1), make_entry(1, 20, mid_p, 2),
                     make_entry(2, 32, exact_p, 3)});

  PacketHeader h;
  h.set_ipv4_dst(Ipv4Address{0x0A001234});
  EXPECT_EQ(table.lookup(h)->id, 2U);
  h.set_ipv4_dst(Ipv4Address{0x0A001FFF});
  EXPECT_EQ(table.lookup(h)->id, 1U);
  h.set_ipv4_dst(Ipv4Address{0x0AFFFFFF});
  EXPECT_EQ(table.lookup(h)->id, 0U);
  h.set_ipv4_dst(Ipv4Address{0x0B000000});
  EXPECT_EQ(table.lookup(h), nullptr);
}

TEST(LookupTable, RangeFieldNarrowestSemanticsViaPriority) {
  FlowMatch narrow, wide;
  narrow.set(FieldId::kDstPort, FieldMatch::of_range(80, 80));
  wide.set(FieldId::kDstPort, FieldMatch::of_range(0, 1023));
  LookupTable table({FieldId::kDstPort},
                    {make_entry(0, 10, narrow, 1), make_entry(1, 1, wide, 2)});
  PacketHeader h;
  h.set_dst_port(80);
  EXPECT_EQ(table.lookup(h)->id, 0U);
  h.set_dst_port(443);
  EXPECT_EQ(table.lookup(h)->id, 1U);
  h.set_dst_port(2000);
  EXPECT_EQ(table.lookup(h), nullptr);
}

TEST(LookupTable, EqualPriorityTieBreaksByInsertionOrder) {
  FlowMatch m;
  m.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{5}));
  LookupTable table({FieldId::kVlanId},
                    {make_entry(10, 3, m, 1), make_entry(11, 3, m, 2)});
  PacketHeader h;
  h.set_vlan_id(5);
  EXPECT_EQ(table.lookup(h)->id, 10U);
}

TEST(LookupTable, RejectsEmptyFieldList) {
  EXPECT_THROW(LookupTable({}, {}), std::invalid_argument);
}

// ---- randomized equivalence with the linear-search oracle ----

class LookupTableOracle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LookupTableOracle, AgreesWithFlowTableOnAclSets) {
  AclConfig config;
  config.rules = GetParam();
  config.seed = 40 + GetParam();
  const auto set = generate_acl(config);

  FlowTable oracle(set.entries);
  const auto table = LookupTable::compile(oracle);

  TraceConfig trace_config;
  trace_config.packets = 3000;
  trace_config.seed = GetParam();
  const auto trace = generate_trace(set, trace_config);

  std::size_t hits = 0;
  for (const auto& header : trace) {
    const FlowEntry* expected = oracle.lookup(header);
    const FlowEntry* actual = table.lookup(header);
    if (expected == nullptr) {
      EXPECT_EQ(actual, nullptr);
      continue;
    }
    ++hits;
    ASSERT_NE(actual, nullptr) << header.to_string();
    EXPECT_EQ(actual->id, expected->id) << header.to_string();
  }
  EXPECT_GT(hits, trace.size() / 2);  // the trace exercises real matches
}

INSTANTIATE_TEST_SUITE_P(RuleCounts, LookupTableOracle,
                         ::testing::Values(16, 128, 1024));

TEST(LookupTable, AgreesOnMacFilterSet) {
  const auto set = workload::generate_mac_filterset(workload::mac_target("bbrb"));
  FlowTable oracle(set.entries);
  const auto table = LookupTable::compile(oracle);
  const auto trace = generate_trace(set, {.packets = 2000, .hit_ratio = 0.8, .seed = 3});
  for (const auto& header : trace) {
    const FlowEntry* expected = oracle.lookup(header);
    const FlowEntry* actual = table.lookup(header);
    EXPECT_EQ(actual == nullptr, expected == nullptr);
    if (expected != nullptr && actual != nullptr) {
      EXPECT_EQ(actual->id, expected->id);
    }
  }
}

TEST(LookupTable, AgreesOnRoutingFilterSet) {
  const auto set =
      workload::generate_routing_filterset(workload::routing_target("poza"));
  FlowTable oracle(set.entries);
  const auto table = LookupTable::compile(oracle);
  const auto trace = generate_trace(set, {.packets = 2000, .hit_ratio = 0.8, .seed = 4});
  for (const auto& header : trace) {
    const FlowEntry* expected = oracle.lookup(header);
    const FlowEntry* actual = table.lookup(header);
    EXPECT_EQ(actual == nullptr, expected == nullptr);
    if (expected != nullptr && actual != nullptr) {
      EXPECT_EQ(actual->id, expected->id) << header.to_string();
    }
  }
}

TEST(LookupTable, MemoryReportCoversAllStages) {
  const auto set = workload::generate_mac_filterset(workload::mac_target("bbrb"));
  FlowTable oracle(set.entries);
  const auto table = LookupTable::compile(oracle);
  const auto report = table.memory_report("t0");
  EXPECT_GT(report.total_bits(), 0U);
  bool has_trie = false, has_lut = false, has_index = false, has_actions = false;
  for (const auto& component : report.components()) {
    if (component.name.find(".trie.") != std::string::npos) has_trie = true;
    if (component.name.find(".lut") != std::string::npos) has_lut = true;
    if (component.name.find(".index") != std::string::npos) has_index = true;
    if (component.name.find(".actions") != std::string::npos) has_actions = true;
  }
  EXPECT_TRUE(has_trie);
  EXPECT_TRUE(has_lut);
  EXPECT_TRUE(has_index);
  EXPECT_TRUE(has_actions);
}

// ---- validate-first insertion ----

/// Everything a rejected insert must leave untouched.
struct TableState {
  std::size_t entries;
  std::vector<std::vector<std::size_t>> unique_values;
  std::uint64_t memory_bits;
  std::uint64_t update_words;

  explicit TableState(const LookupTable& table)
      : entries(table.entry_count()),
        memory_bits(table.memory_report("t").total_bits()),
        update_words(table.update_words()) {
    for (const auto& search : table.field_searches()) {
      unique_values.push_back(search.unique_values());
    }
  }
  friend bool operator==(const TableState&, const TableState&) = default;
};

TEST(LookupTable, InsertRejectsConstraintOutsideFieldList) {
  FlowMatch vlan;
  vlan.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{5}));
  FlowMatch vlan_and_mac = vlan;
  vlan_and_mac.set(FieldId::kEthDst, FieldMatch::exact(std::uint64_t{0xABC}));

  LookupTable table({FieldId::kVlanId}, {make_entry(0, 1, vlan, 1)});
  const TableState before(table);
  EXPECT_THROW((void)table.insert_entry(make_entry(1, 9, vlan_and_mac, 2)),
               std::invalid_argument);
  EXPECT_EQ(TableState(table), before);
  EXPECT_FALSE(table.contains(1));

  // The reference table honours the eth_dst constraint; so must the
  // accelerated one — by refusing an entry it could not enforce, instead of
  // silently matching every eth_dst.
  FlowTable reference({make_entry(0, 1, vlan, 1), make_entry(1, 9, vlan_and_mac, 2)});
  PacketHeader h;
  h.set_vlan_id(5);
  ASSERT_NE(reference.lookup(h), nullptr);
  EXPECT_EQ(reference.lookup(h)->id, 0U);
  ASSERT_NE(table.lookup(h), nullptr);
  EXPECT_EQ(table.lookup(h)->id, 0U);

  EXPECT_THROW(LookupTable({FieldId::kVlanId}, {make_entry(1, 9, vlan_and_mac, 2)}),
               std::invalid_argument);
}

TEST(LookupTable, RejectedInsertLeavesNoPartialRegistration) {
  FlowMatch valid;
  valid.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{1}));
  valid.set(FieldId::kIpProto, FieldMatch::exact(std::uint64_t{6}));
  LookupTable table({FieldId::kVlanId, FieldId::kIpProto},
                    {make_entry(0, 1, valid, 1)});
  const TableState before(table);

  // The first field (a fresh VLAN value) is legal; the second is a prefix on
  // the EM ip_proto field. Nothing of the entry may stay registered.
  FlowMatch bad;
  bad.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{2}));
  bad.set(FieldId::kIpProto,
          FieldMatch::of_prefix(Prefix::from_value(0x10, 4, 8)));
  EXPECT_NE(table.match_error(bad), nullptr);
  EXPECT_THROW((void)table.insert_entry(make_entry(1, 1, bad, 2)),
               std::invalid_argument);
  EXPECT_EQ(TableState(table), before);
  EXPECT_EQ(table.field_searches()[0].unique_values(),
            (std::vector<std::size_t>{1}));

  // The id was not consumed either: a legal entry with it still inserts.
  FlowMatch fixed = bad;
  fixed.set(FieldId::kIpProto, FieldMatch::exact(std::uint64_t{17}));
  EXPECT_EQ(table.match_error(fixed), nullptr);
  (void)table.insert_entry(make_entry(1, 1, fixed, 2));
  PacketHeader h;
  h.set_vlan_id(2);
  h.set_ip_proto(17);
  ASSERT_NE(table.lookup(h), nullptr);
  EXPECT_EQ(table.lookup(h)->id, 1U);
}

TEST(LookupTable, RejectsValuesWiderThanTheirField) {
  FlowMatch valid;
  valid.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{1}));
  LookupTable table({FieldId::kVlanId, FieldId::kMetadata},
                    {make_entry(0, 1, valid, 1)});
  const TableState before(table);

  // EM exact values: the widest fits, one bit more (or a high word on the
  // 64-bit metadata field) is refused by FlowMatch::set before it can reach
  // the table, and leaves the match as it was.
  FlowMatch widest;
  widest.set(FieldId::kVlanId, FieldMatch::exact(low_mask(13)));
  EXPECT_EQ(table.match_error(widest), nullptr);
  FlowMatch refused = widest;
  EXPECT_THROW(refused.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{1} << 13)),
               std::invalid_argument);
  EXPECT_THROW(refused.set(FieldId::kMetadata, FieldMatch::exact(U128{1, 0})),
               std::invalid_argument);
  EXPECT_EQ(refused, widest);
  // The field search still refuses them on its own.
  EXPECT_NE(table.field_searches()[0].match_error(
                FieldMatch::exact(std::uint64_t{1} << 13)),
            nullptr);
  EXPECT_NE(table.field_searches()[1].match_error(FieldMatch::exact(U128{1, 0})),
            nullptr);

  // Set-Field values, in the apply list and in the action set.
  auto wide_apply = make_entry(1, 1, valid, 2);
  wide_apply.instructions.apply_actions.push_back(
      SetFieldAction{FieldId::kVlanId, U128{1} << 13});
  auto wide_write = make_entry(1, 1, valid, 2);
  wide_write.instructions.write_actions.push_back(
      SetFieldAction{FieldId::kMetadata, U128{1, 0}});
  for (const auto& entry : {wide_apply, wide_write}) {
    EXPECT_FALSE(entry.instructions.set_fields_fit());
    EXPECT_THROW((void)table.insert_entry(entry), std::invalid_argument);
  }
  EXPECT_EQ(TableState(table), before);
  EXPECT_FALSE(table.contains(1));

  // Values that fit insert, a full 128-bit IPv6 rewrite included.
  auto fits = make_entry(1, 1, widest, 2);
  fits.instructions.apply_actions = {
      SetFieldAction{FieldId::kVlanId, U128{low_mask(13)}},
      SetFieldAction{FieldId::kIpv6Dst, ~U128{}}};
  EXPECT_TRUE(fits.instructions.set_fields_fit());
  (void)table.insert_entry(fits);
  EXPECT_TRUE(table.contains(1));
}

// ---- structural clone ----

/// A 5-field ACL table (EM ip_proto, LPM addresses, RM ports) with churn
/// behind it: some entries removed and new ones inserted into the freed
/// slots, so slot order and insertion order differ.
struct ChurnedAcl {
  FilterSet set;
  LookupTable table;
  std::vector<PacketHeader> trace;
};

ChurnedAcl churned_acl() {
  const auto set = generate_acl({.rules = 600, .seed = 91});
  auto table = LookupTable::compile(FlowTable(set.entries));
  EXPECT_EQ(table.fields().size(), 5U);
  for (std::size_t i = 0; i < set.entries.size(); i += 7) {
    EXPECT_TRUE(table.remove_entry(set.entries[i].id));
  }
  FlowEntryId next_id = 100'000;
  for (std::size_t i = 3; i < set.entries.size(); i += 11) {
    FlowEntry copy = set.entries[i];
    copy.id = next_id++;
    (void)table.insert_entry(std::move(copy));  // equal-priority duplicate
  }
  auto trace = generate_trace(set, {.packets = 3000, .hit_ratio = 0.9, .seed = 5});
  return {set, std::move(table), std::move(trace)};
}

std::vector<const FlowEntry*> scalar_results(const LookupTable& table,
                                             const std::vector<PacketHeader>& trace) {
  std::vector<const FlowEntry*> out;
  out.reserve(trace.size());
  for (const auto& header : trace) out.push_back(table.lookup(header));
  return out;
}

std::vector<const FlowEntry*> batch_results(const LookupTable& table,
                                            const std::vector<PacketHeader>& trace) {
  constexpr std::size_t kBatch = 64;
  SearchContext ctx;
  std::vector<const FlowEntry*> out(trace.size());
  std::vector<const PacketHeader*> headers;
  for (std::size_t base = 0; base < trace.size(); base += kBatch) {
    const std::size_t n = std::min(kBatch, trace.size() - base);
    headers.clear();
    for (std::size_t i = 0; i < n; ++i) headers.push_back(&trace[base + i]);
    table.lookup_batch(headers, std::span(out).subspan(base, n), ctx);
  }
  return out;
}

/// Same decision on every packet: both miss, or both hit equal entries.
void expect_same_results(const std::vector<const FlowEntry*>& a,
                         const std::vector<const FlowEntry*>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i] == nullptr, b[i] == nullptr) << "packet " << i;
    if (a[i] != nullptr) EXPECT_EQ(*a[i], *b[i]) << "packet " << i;
  }
}

TEST(LookupTableClone, MatchesOriginalBitForBit) {
  const auto acl = churned_acl();
  const LookupTable copy = acl.table.clone();

  const auto original = scalar_results(acl.table, acl.trace);
  const auto cloned = scalar_results(copy, acl.trace);
  expect_same_results(original, cloned);
  expect_same_results(original, batch_results(copy, acl.trace));
  expect_same_results(original, batch_results(acl.table, acl.trace));

  std::size_t hits = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    if (original[i] == nullptr) continue;
    ++hits;
    EXPECT_NE(original[i], cloned[i]);  // the clone owns its own entries
  }
  EXPECT_GT(hits, acl.trace.size() / 2);

  EXPECT_EQ(copy.entry_count(), acl.table.entry_count());
  EXPECT_EQ(copy.entries(), acl.table.entries());  // same slots, same order
  EXPECT_EQ(copy.memory_report("t").total_kbits(),
            acl.table.memory_report("t").total_kbits());
  EXPECT_EQ(copy.update_words(), acl.table.update_words());
}

TEST(LookupTableClone, MutatingTheCloneLeavesTheOriginalUntouched) {
  const auto acl = churned_acl();
  const auto results_before = scalar_results(acl.table, acl.trace);
  const TableState state_before(acl.table);
  const auto kbits_before = acl.table.memory_report("t").total_kbits();

  LookupTable copy = acl.table.clone();
  const auto& fields = copy.fields();
  const auto dst_port = static_cast<std::size_t>(
      std::find(fields.begin(), fields.end(), FieldId::kDstPort) -
      fields.begin());
  ASSERT_LT(dst_port, fields.size());

  // A catch-all entry on a range no other rule uses, above every priority.
  const ValueRange fresh{40'001, 40'013};
  ASSERT_FALSE(copy.field_searches()[dst_port].ranges()->find(fresh));
  FlowMatch match;
  match.set(FieldId::kDstPort, FieldMatch::of_range(fresh.lo, fresh.hi));
  FlowEntry catch_all = make_entry(200'000, 0xFFFF, match, 7);
  (void)copy.insert_entry(catch_all);
  for (std::size_t i = 1; i < acl.set.entries.size(); i += 5) {
    (void)copy.remove_entry(acl.set.entries[i].id);
  }
  PacketHeader probe;
  probe.set_dst_port(40'005);
  ASSERT_NE(copy.lookup(probe), nullptr);
  EXPECT_EQ(copy.lookup(probe)->id, 200'000U);
  const FlowEntry* original_hit = acl.table.lookup(probe);
  EXPECT_TRUE(original_hit == nullptr || original_hit->id != 200'000U);

  // The original sees none of it: not the insert, not the removals.
  expect_same_results(results_before, scalar_results(acl.table, acl.trace));
  expect_same_results(results_before, batch_results(acl.table, acl.trace));
  EXPECT_EQ(TableState(acl.table), state_before);

  // Removing the range's last rule drops it from the clone's matcher and
  // rebuilds the clone's interval index — again without touching the
  // original's.
  ASSERT_TRUE(copy.remove_entry(catch_all.id));
  EXPECT_FALSE(copy.field_searches()[dst_port].ranges()->find(fresh));
  expect_same_results(results_before, scalar_results(acl.table, acl.trace));
  expect_same_results(results_before, batch_results(acl.table, acl.trace));
  EXPECT_EQ(TableState(acl.table), state_before);
  EXPECT_EQ(acl.table.memory_report("t").total_kbits(), kbits_before);
}

}  // namespace
}  // namespace ofmtl
