// Flow-layer unit tests: FieldMatch/FlowMatch semantics, FlowTable priority
// and stable ordering, instruction/action encoding sizes and printing, and
// the flow-stats tracker in isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "flow/flow_stats.hpp"
#include "flow/flow_table.hpp"
#include "flow/instruction.hpp"
#include "workload/rng.hpp"

namespace ofmtl {
namespace {

TEST(FieldMatch, Semantics) {
  EXPECT_TRUE(FieldMatch::any().matches(U128{123}));
  EXPECT_TRUE(FieldMatch::exact(std::uint64_t{5}).matches(U128{5}));
  EXPECT_FALSE(FieldMatch::exact(std::uint64_t{5}).matches(U128{6}));

  const auto prefix =
      FieldMatch::of_prefix(Prefix::from_value(0xAB00, 8, 16));
  EXPECT_TRUE(prefix.matches(U128{0xABFF}));
  EXPECT_FALSE(prefix.matches(U128{0xAC00}));

  const auto range = FieldMatch::of_range(10, 20);
  EXPECT_TRUE(range.matches(U128{15}));
  EXPECT_FALSE(range.matches(U128{21}));
  EXPECT_FALSE(range.matches(U128{1, 15}));  // high bits set: out of range

  const auto masked = FieldMatch::masked(U128{0x10}, U128{0xF0});
  EXPECT_TRUE(masked.matches(U128{0x1F}));
  EXPECT_FALSE(masked.matches(U128{0x2F}));
}

TEST(FlowMatch, ConstrainedFieldsAndMatching) {
  FlowMatch match;
  EXPECT_EQ(match.constrained_mask(), 0U);
  match.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{7}));
  match.set(FieldId::kDstPort, FieldMatch::of_range(80, 90));
  EXPECT_EQ(match.constrained_mask(),
            (1U << static_cast<int>(FieldId::kVlanId)) |
                (1U << static_cast<int>(FieldId::kDstPort)));

  PacketHeader h;
  h.set_vlan_id(7);
  h.set_dst_port(85);
  EXPECT_TRUE(match.matches(h));
  h.set_dst_port(95);
  EXPECT_FALSE(match.matches(h));
}

TEST(FlowMatch, ToStringListsConstraints) {
  FlowMatch match;
  match.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{7}));
  const auto text = match.to_string();
  EXPECT_NE(text.find("VLAN ID"), std::string::npos);
  EXPECT_NE(text.find("7"), std::string::npos);
}

TEST(FlowMatch, ToStringPrintsIpv6AsOne128BitNumber) {
  FlowMatch match;
  match.set(FieldId::kIpv6Src, FieldMatch::exact(U128{0x1, 0x23}));
  match.set(FieldId::kIpv6Dst, FieldMatch::masked(U128{0x12, 0x3}, U128{0xFF, 0xF}));
  EXPECT_EQ(match.to_string(),
            "[Source IPv6 == 10000000000000023, "
            "Destination IPv6 &ff000000000000000f == 120000000000000003]");
  FlowMatch narrow;
  narrow.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{42}));
  narrow.set(FieldId::kMetadata, FieldMatch::masked(U128{0x10}, U128{0xF0}));
  EXPECT_EQ(narrow.to_string(), "[VLAN ID == 42, Metadata &240 == 16]");
}

// The widest constraint of `kind` that field `id` holds.
FieldMatch widest(FieldId id, MatchKind kind) {
  const unsigned bits = field_bits(id);
  const U128 max = (~U128{}) >> (128 - bits);
  switch (kind) {
    case MatchKind::kAny: return FieldMatch::any();
    case MatchKind::kExact: return FieldMatch::exact(max);
    case MatchKind::kPrefix: return FieldMatch::of_prefix(Prefix{max, bits, bits});
    case MatchKind::kRange: return FieldMatch::of_range(1, max.lo);
    case MatchKind::kMasked: return FieldMatch::masked(max, max);
  }
  return {};
}

// Constraints of `kind` that do not fit field `id` (none for kAny, and none
// of a kind whose every value fits the field).
std::vector<FieldMatch> over_wide(FieldId id, MatchKind kind) {
  const unsigned bits = field_bits(id);
  const U128 max = (~U128{}) >> (128 - bits);
  const unsigned other_width = bits == 128 ? 127 : bits + 1;
  std::vector<FieldMatch> refused;
  switch (kind) {
    case MatchKind::kAny:
      break;
    case MatchKind::kExact:
      if (bits < 128) refused.push_back(FieldMatch::exact(U128{1} << bits));
      break;
    case MatchKind::kPrefix:
      refused.push_back(FieldMatch::of_prefix(Prefix{max, 0, other_width}));
      refused.push_back(FieldMatch::of_prefix(Prefix{max, 1, bits - 1}));
      break;
    case MatchKind::kRange:
      if (bits < 64) {
        refused.push_back(FieldMatch::of_range(0, std::uint64_t{1} << bits));
        refused.push_back(FieldMatch::of_range(std::uint64_t{1} << bits, 0));
      }
      break;
    case MatchKind::kMasked:
      if (bits < 128) {
        refused.push_back(FieldMatch::masked(max, max | (U128{1} << bits)));
        FieldMatch stray_value = FieldMatch::masked(max, max);
        stray_value.value = U128{1} << bits;
        refused.push_back(stray_value);
      }
      break;
  }
  return refused;
}

TEST(FlowMatch, PacksEveryFieldAndKindLosslesslyAndRefusesWhatDoesNotFit) {
  constexpr MatchKind kKinds[] = {MatchKind::kAny, MatchKind::kExact,
                                  MatchKind::kPrefix, MatchKind::kRange,
                                  MatchKind::kMasked};
  for (const auto& info : field_registry()) {
    for (const MatchKind kind : kKinds) {
      SCOPED_TRACE(std::string(info.name) + " kind " +
                   std::to_string(static_cast<int>(kind)));
      const FieldMatch fm = widest(info.id, kind);
      FlowMatch match;
      match.set(info.id, fm);
      EXPECT_EQ(match.get(info.id), fm);
      EXPECT_EQ(match.kind(info.id), kind);
      const std::uint16_t bit = kind == MatchKind::kAny ? 0 : 1U << static_cast<int>(info.id);
      EXPECT_EQ(match.constrained_mask(), bit);
      for (const auto& other : field_registry()) {
        if (other.id != info.id) EXPECT_EQ(match.get(other.id), FieldMatch::any());
      }
      EXPECT_EQ(match == FlowMatch{}, kind == MatchKind::kAny);

      // A shorter prefix and a one-value range round-trip too.
      if (kind == MatchKind::kPrefix) {
        const auto half =
            FieldMatch::of_prefix(Prefix{~U128{}, info.bits / 2, info.bits});
        FlowMatch shorter;
        shorter.set(info.id, half);
        EXPECT_EQ(shorter.get(info.id), half);
        EXPECT_NE(shorter, match);
      }

      for (const auto& bad : over_wide(info.id, kind)) {
        const FlowMatch before = match;
        EXPECT_NE(FlowMatch::fit_error(info.id, bad), nullptr);
        EXPECT_THROW(match.set(info.id, bad), std::invalid_argument);
        EXPECT_EQ(match, before);
      }
    }
    FieldMatch unknown;
    unknown.kind = static_cast<MatchKind>(9);
    FlowMatch match;
    EXPECT_THROW(match.set(info.id, unknown), std::invalid_argument);
    EXPECT_EQ(match, FlowMatch{});
  }

  // IPv6 high words are stored, compared and handed back.
  for (const FieldId id : {FieldId::kIpv6Src, FieldId::kIpv6Dst}) {
    FlowMatch lo_only;
    lo_only.set(id, FieldMatch::exact(U128{0, 5}));
    FlowMatch with_hi;
    with_hi.set(id, FieldMatch::exact(U128{7, 5}));
    EXPECT_NE(lo_only, with_hi);
    EXPECT_EQ(with_hi.get(id).value, (U128{7, 5}));
    FlowMatch masked;
    masked.set(id, FieldMatch::masked(U128{0xA, 0}, U128{0xF, 0}));
    EXPECT_EQ(masked.get(id).mask, (U128{0xF, 0}));
    FlowMatch other_mask;
    other_mask.set(id, FieldMatch::masked(U128{0xA, 0}, U128{0xE, 0}));
    EXPECT_NE(masked, other_mask);
    PacketHeader h;
    h.set(id, U128{0x5A, 0x77});
    EXPECT_TRUE(masked.matches(h));
    h.set(id, U128{0x5B, 0x77});
    EXPECT_FALSE(masked.matches(h));
  }
}

TEST(FlowMatch, MatchesAgreesWithPerFieldFieldMatch) {
  workload::Rng rng(2024);
  // Values from a few low bits (plus, for narrow fields, stray bits above
  // the field, which a prefix ignores and exact/range/masked do not) so that
  // constraints and headers meet often.
  const auto draw = [&](FieldId id) {
    const unsigned bits = field_bits(id);
    U128 value = U128{rng.below(8)} << (bits > 3 ? bits - 3 : 0);
    if (bits == 128 && rng.chance(0.5)) value = value | U128{rng.below(4)};
    if (bits < 64 && rng.chance(0.1)) value = value | (U128{1} << bits);
    return value;
  };
  const auto random_constraint = [&](FieldId id) {
    const unsigned bits = field_bits(id);
    const U128 max = (~U128{}) >> (128 - bits);
    switch (rng.below(5)) {
      case 0: return FieldMatch::any();
      case 1: return FieldMatch::exact(draw(id) & max);
      case 2:
        return FieldMatch::of_prefix(
            Prefix{draw(id), static_cast<unsigned>(rng.below(bits + 1)), bits});
      case 3: {
        const auto a = (draw(id) & max).lo, b = (draw(id) & max).lo;
        return FieldMatch::of_range(std::min(a, b), std::max(a, b));
      }
      default:
        return FieldMatch::masked(draw(id) & max, draw(id) & max);
    }
  };
  std::size_t hits = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    FlowMatch match;
    for (int k = 0; k < 3; ++k) {
      const auto id = static_cast<FieldId>(rng.below(kFieldCount));
      match.set(id, random_constraint(id));
    }
    PacketHeader header;
    for (const auto& info : field_registry()) {
      if (rng.chance(0.2)) continue;  // absent fields read as zero
      const U128 value = draw(info.id);
      if (info.bits == 128) {
        header.set(info.id, value);
      } else {
        header.set(info.id, value.lo);
      }
    }
    bool expected = true;
    for (const auto& info : field_registry()) {
      expected = expected && match.get(info.id).matches(header.get(info.id));
    }
    ASSERT_EQ(match.matches(header), expected)
        << match.to_string() << " vs " << header.to_string();
    hits += expected ? 1 : 0;
  }
  EXPECT_GT(hits, 200U);
  EXPECT_LT(hits, 3600U);
}

FlowEntry entry_with_priority(FlowEntryId id, std::uint16_t priority) {
  FlowEntry entry;
  entry.id = id;
  entry.priority = priority;
  entry.match.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{1}));
  return entry;
}

TEST(FlowTableOrdering, HighestPriorityWins) {
  FlowTable table;
  table.insert(entry_with_priority(1, 5));
  table.insert(entry_with_priority(2, 50));
  table.insert(entry_with_priority(3, 10));
  PacketHeader h;
  h.set_vlan_id(1);
  ASSERT_NE(table.lookup(h), nullptr);
  EXPECT_EQ(table.lookup(h)->id, 2U);
}

TEST(FlowTableOrdering, EqualPriorityStableByInsertion) {
  FlowTable table;
  table.insert(entry_with_priority(10, 5));
  table.insert(entry_with_priority(11, 5));
  PacketHeader h;
  h.set_vlan_id(1);
  EXPECT_EQ(table.lookup(h)->id, 10U);
  EXPECT_TRUE(table.remove(10));
  EXPECT_EQ(table.lookup(h)->id, 11U);
}

TEST(FlowTableOrdering, ReplaceSortsByPriority) {
  FlowTable table;
  table.replace({entry_with_priority(1, 1), entry_with_priority(2, 9),
                 entry_with_priority(3, 5)});
  EXPECT_EQ(table.entries()[0].id, 2U);
  EXPECT_EQ(table.entries()[1].id, 3U);
  EXPECT_EQ(table.entries()[2].id, 1U);
}

TEST(FlowTableOrdering, ReplaceIsStableOverManyEntries) {
  // Few distinct priorities over many entries: long equal-priority runs,
  // whose relative (input) order replace must keep.
  constexpr std::uint16_t kPriorities[] = {1, 2, 3, 7, 7, 9};
  std::mt19937 rng(17);
  std::vector<FlowEntry> entries;
  for (FlowEntryId id = 0; id < 12'000; ++id) {
    entries.push_back(entry_with_priority(
        id, kPriorities[rng() % std::size(kPriorities)]));
  }
  std::shuffle(entries.begin(), entries.end(), rng);

  auto expected = entries;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const FlowEntry& a, const FlowEntry& b) {
                     return a.priority > b.priority;
                   });
  FlowTable table;
  table.replace(entries);
  EXPECT_EQ(table.entries(), expected);
}

TEST(Instructions, ToStringAndBits) {
  InstructionSet ins;
  EXPECT_EQ(ins.to_string(), "(empty)");
  ins = goto_and_write(2, {OutputAction{7}});
  ins.write_metadata = MetadataWrite{1, 0xFF};
  const auto text = ins.to_string();
  EXPECT_NE(text.find("goto-table:2"), std::string::npos);
  EXPECT_NE(text.find("write-metadata"), std::string::npos);
  EXPECT_NE(text.find("output:7"), std::string::npos);
  // presence flags + goto(8) + metadata(128) + output action(16+32)
  EXPECT_EQ(ins.bits(), 5U + 8U + 128U + 48U);
}

TEST(Actions, BitsAndPrinting) {
  EXPECT_EQ(action_bits(OutputAction{1}), 16U + 32U);
  EXPECT_EQ(action_bits(PopVlanAction{}), 16U);
  EXPECT_EQ(action_bits(SetFieldAction{FieldId::kEthDst, U128{1}}),
            16U + 8U + 48U);
  EXPECT_EQ(to_string(Action{DropAction{}}), "drop");
  EXPECT_EQ(to_string(Action{OutputAction{3}}), "output:3");
}

TEST(FlowStatsTracker, Lifecycle) {
  FlowStatsTracker tracker;
  tracker.install(1, {.idle_timeout = 10, .hard_timeout = 100}, 5);
  EXPECT_EQ(tracker.tracked(), 1U);

  ExecutionResult result;
  result.matched_entries = {1, 2};  // entry 2 untracked: ignored
  tracker.record(result, 64, 8);
  const FlowStats* stats = tracker.find(1);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->packets, 1U);
  EXPECT_EQ(stats->bytes, 64U);
  EXPECT_EQ(stats->installed_at, 5U);
  EXPECT_EQ(stats->last_used, 8U);
  EXPECT_EQ(tracker.find(2), nullptr);

  EXPECT_TRUE(tracker.expired(17).empty());          // 8 + 10 = 18 > 17
  EXPECT_EQ(tracker.expired(18).size(), 1U);         // idle fires
  EXPECT_EQ(tracker.expired(105).size(), 1U);        // hard fires regardless
  tracker.erase(1);
  EXPECT_EQ(tracker.tracked(), 0U);
}

TEST(FlowStatsTracker, ZeroTimeoutsNeverExpire) {
  FlowStatsTracker tracker;
  tracker.install(1, {}, 0);
  EXPECT_TRUE(tracker.expired(1'000'000).empty());
}

}  // namespace
}  // namespace ofmtl
