// TCAM baseline equivalence, filter-set serialization round-trips, and the
// block-RAM memory model.
#include <gtest/gtest.h>

#include <sstream>

#include "classifier/tcam.hpp"
#include "flow/filterset_io.hpp"
#include "flow/flow_table.hpp"
#include "mem/memory_model.hpp"
#include "workload/acl_synth.hpp"
#include "workload/stanford_synth.hpp"
#include "workload/trace_gen.hpp"

namespace ofmtl {
namespace {

TEST(Tcam, PrefixAndExactMatching) {
  TcamModel tcam({FieldId::kIpv4Dst});
  FlowMatch m;
  m.set(FieldId::kIpv4Dst,
        FieldMatch::of_prefix(Prefix::from_value(0x0A000000, 8, 32)));
  EXPECT_EQ(tcam.add_rule(m, 8, 0), 1U);

  PacketHeader h;
  h.set_ipv4_dst(Ipv4Address{0x0A123456});
  EXPECT_EQ(tcam.lookup(h), 0U);
  h.set_ipv4_dst(Ipv4Address{0x0B123456});
  EXPECT_EQ(tcam.lookup(h), std::nullopt);
}

TEST(Tcam, RangeExpansionCost) {
  // The "rule ternary conversion" problem: one range rule explodes into
  // many TCAM entries.
  TcamModel tcam({FieldId::kDstPort});
  FlowMatch m;
  m.set(FieldId::kDstPort, FieldMatch::of_range(1, 0xFFFE));
  EXPECT_EQ(tcam.add_rule(m, 1, 0), 30U);
  EXPECT_EQ(tcam.entry_count(), 30U);
  EXPECT_EQ(tcam.storage_bits(), 30U * 2U * 16U);
}

TEST(Tcam, PriorityOrder) {
  TcamModel tcam({FieldId::kIpv4Dst});
  FlowMatch wide, narrow;
  wide.set(FieldId::kIpv4Dst,
           FieldMatch::of_prefix(Prefix::from_value(0x0A000000, 8, 32)));
  narrow.set(FieldId::kIpv4Dst,
             FieldMatch::of_prefix(Prefix::from_value(0x0A0A0000, 16, 32)));
  tcam.add_rule(wide, 8, 0);
  tcam.add_rule(narrow, 16, 1);
  PacketHeader h;
  h.set_ipv4_dst(Ipv4Address{0x0A0A0101});
  EXPECT_EQ(tcam.lookup(h), 1U);
}

TEST(Tcam, AgreesWithFlowTableOnAcl) {
  workload::AclConfig config;
  config.rules = 200;
  const auto set = workload::generate_acl(config);
  FlowTable oracle(set.entries);
  TcamModel tcam(set.fields);
  // Insert in the oracle's (priority-sorted) order so equal-priority
  // tie-breaks agree.
  for (std::uint32_t i = 0; i < oracle.entries().size(); ++i) {
    tcam.add_rule(oracle.entries()[i].match, oracle.entries()[i].priority, i);
  }
  const auto trace =
      workload::generate_trace(set, {.packets = 2000, .hit_ratio = 0.8, .seed = 9});
  for (const auto& header : trace) {
    const FlowEntry* expected = oracle.lookup(header);
    const auto actual = tcam.lookup(header);
    if (expected == nullptr) {
      EXPECT_EQ(actual, std::nullopt);
    } else {
      ASSERT_TRUE(actual.has_value());
      EXPECT_EQ(oracle.entries()[*actual].id, expected->id);
    }
  }
}

TEST(FiltersetIo, NativeRoundTrip) {
  const auto set = workload::generate_routing_filterset(
      workload::routing_target("bbrb"));
  const auto text = filterset_to_string(set);
  const auto parsed = parse_filterset_string(text);
  ASSERT_EQ(parsed.entries.size(), set.entries.size());
  EXPECT_EQ(parsed.name, set.name);
  EXPECT_EQ(parsed.fields, set.fields);
  for (std::size_t i = 0; i < set.entries.size(); ++i) {
    EXPECT_EQ(parsed.entries[i].id, set.entries[i].id);
    EXPECT_EQ(parsed.entries[i].priority, set.entries[i].priority);
    EXPECT_EQ(parsed.entries[i].match.get(FieldId::kInPort),
              set.entries[i].match.get(FieldId::kInPort));
    EXPECT_EQ(parsed.entries[i].match.get(FieldId::kIpv4Dst),
              set.entries[i].match.get(FieldId::kIpv4Dst));
  }
}

TEST(FiltersetIo, NativeRoundTripKeepsEveryWordOfEveryKind) {
  FilterSet set;
  set.name = "wide";
  set.fields = {FieldId::kIpv6Src, FieldId::kIpv6Dst, FieldId::kMetadata,
                FieldId::kSrcPort};
  const auto add = [&](FieldId id, const FieldMatch& fm) {
    FlowEntry entry;
    entry.id = static_cast<FlowEntryId>(set.entries.size());
    entry.priority = 5;
    entry.match.set(id, fm);
    entry.instructions = output_instruction(3);
    set.entries.push_back(entry);
  };
  add(FieldId::kIpv6Src, FieldMatch::masked(U128{0xABCD, 0x12}, U128{0xFFFF, 0xFF}));
  add(FieldId::kIpv6Dst, FieldMatch::exact(U128{0x2001'0DB8'0000'0000, 1}));
  add(FieldId::kIpv6Dst,
      FieldMatch::of_prefix(Prefix{U128{0x2001'0DB8'0000'0000, 0}, 48, 128}));
  add(FieldId::kMetadata, FieldMatch::masked(U128{0x5}, U128{0xF}));
  add(FieldId::kSrcPort, FieldMatch::of_range(1024, 65535));
  const auto parsed = parse_filterset_string(filterset_to_string(set));
  ASSERT_EQ(parsed.entries.size(), set.entries.size());
  for (std::size_t i = 0; i < set.entries.size(); ++i) {
    EXPECT_EQ(parsed.entries[i].match, set.entries[i].match)
        << set.entries[i].match.to_string();
  }
}

TEST(FiltersetIo, ParsesTheOlder64BitMaskedFormAndRefusesBadSpecs) {
  const std::string head = "# name: t\n# fields: 4 15\n";
  const auto older = parse_filterset_string(head + "0 1 * &f0=10 -> end out:1\n");
  ASSERT_EQ(older.entries.size(), 1U);
  EXPECT_EQ(older.entries[0].match.get(FieldId::kMetadata),
            FieldMatch::masked(U128{0x10}, U128{0xF0}));

  // VLAN ID is 13 bits wide: each of these is refused, as is an unknown field.
  for (const std::string spec : {"=0:2000", "[0-8192]", "&0:2000=0:0", "0:0/8w16"}) {
    SCOPED_TRACE(spec);
    EXPECT_THROW((void)parse_filterset_string(head + "0 1 " + spec + " * -> end out:1\n"),
                 std::invalid_argument);
  }
  EXPECT_THROW((void)parse_filterset_string("# fields: 16\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_filterset_string(head + "0 1 *\n"), std::invalid_argument);
}

TEST(FiltersetIo, ClassBenchRoundTrip) {
  const std::string line = "@10.2.3.0/24\t5.6.7.8/32\t0 : 65535\t1024 : 2048\t0x06/0xff";
  const auto match = parse_classbench_rule(line);
  EXPECT_EQ(match.get(FieldId::kIpv4Src).prefix.length(), 24U);
  EXPECT_EQ(match.get(FieldId::kIpv4Dst).prefix.length(), 32U);
  EXPECT_EQ(match.get(FieldId::kDstPort).range.lo, 1024U);
  EXPECT_EQ(match.get(FieldId::kIpProto).kind, MatchKind::kMasked);

  const auto emitted = to_classbench_rule(match);
  const auto reparsed = parse_classbench_rule(emitted);
  EXPECT_EQ(reparsed, match);
}

TEST(MemoryModel, KbitConversions) {
  EXPECT_DOUBLE_EQ(mem::to_kbits(1024), 1.0);
  EXPECT_DOUBLE_EQ(mem::to_mbits(1024 * 1024), 1.0);
}

TEST(MemoryModel, BlockRamPacking) {
  const mem::BlockRamModel m20k;
  EXPECT_EQ(m20k.blocks_needed(0, 20), 0U);
  // 512 x 40 fits one block.
  EXPECT_EQ(m20k.blocks_needed(512, 40), 1U);
  EXPECT_EQ(m20k.blocks_needed(513, 40), 2U);
  // 26-bit words: one lane, depth 512 (power of two below 20480/26=787).
  EXPECT_EQ(m20k.blocks_needed(512, 26), 1U);
  EXPECT_EQ(m20k.blocks_needed(600, 26), 2U);
  // Words wider than a port split across lanes.
  EXPECT_EQ(m20k.blocks_needed(512, 80), 2U);
}

TEST(MemoryModel, ReportAggregation) {
  mem::MemoryReport report;
  report.add("a", 100, 10);
  report.add("b", 50, 20);
  EXPECT_EQ(report.total_bits(), 100U * 10U + 50U * 20U);
  mem::MemoryReport merged;
  merged.merge(report, "x.");
  EXPECT_EQ(merged.total_bits(), report.total_bits());
  EXPECT_EQ(merged.components()[0].name, "x.a");

  std::ostringstream out;
  merged.print(out);
  EXPECT_NE(out.str().find("TOTAL"), std::string::npos);
}

}  // namespace
}  // namespace ofmtl
