#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <unordered_map>

#include "core/builder.hpp"
#include "core/flow_key.hpp"
#include "net/packet.hpp"
#include "trace/pcap.hpp"
#include "workload/acl_synth.hpp"
#include "workload/rng.hpp"
#include "workload/stanford_synth.hpp"
#include "workload/trace_export.hpp"
#include "workload/trace_gen.hpp"
#include "workload/zipf.hpp"

namespace perfbench {

using namespace ofmtl;

namespace {

constexpr double kZipfS = 1.1;
constexpr double kHitRatio = 0.9;  ///< share of pool flows built from a rule
constexpr std::size_t kAclRules = 2000;
constexpr std::size_t kChurnRules = 64;
constexpr FlowEntryId kChurnIdBase = 1'000'000;

// Paced rates: on the four-vCPU shared host the benchmark was tuned on,
// capacity swung between quiet and contended periods (fib_uniform 5.4 / 1.4
// and mac_zipf 11 / 4.7 Mpps with two workers; acl_churn 3.3 / 1.6 at 100
// churn rounds/s). With one worker, fib_uniform read 1.8-2.0, mac_zipf
// 5.0-6.9 and acl_churn (10 rounds/s) 4.0-6.1 Mpps, so each rate is at most
// about a third of the workload's capacity, and a contended period slows the
// paced phase without overloading it.
const std::array<WorkloadSpec, 3> kWorkloads = {{
    {.name = "fib_uniform",
     .flow_cache = 0,
     .flows = 65536,
     .stream = 1 << 17,
     .shape = TrafficShape::kUniform,
     .churn = false,
     .paced_mpps = 0.5,
     .setup_reps = 3},
    {.name = "mac_zipf",
     .flow_cache = 8192,
     .flows = 4096,
     .stream = 1 << 16,
     .shape = TrafficShape::kZipf,
     .churn = false,
     .paced_mpps = 1.5,
     .setup_reps = 20},
    {.name = "acl_churn",
     .flow_cache = 8192,
     .flows = 4096,
     .stream = 1 << 16,
     .shape = TrafficShape::kZipf,
     .churn = true,
     .paced_mpps = 0.6,
     .setup_reps = 30},
}};

FilterSet make_filter_set(const WorkloadSpec& spec, std::uint64_t seed) {
  if (spec.name == "fib_uniform") {
    return workload::generate_filterset(workload::FilterApp::kRouting, "coza",
                                        seed);
  }
  if (spec.name == "mac_zipf") {
    return workload::generate_filterset(workload::FilterApp::kMacLearning,
                                        "gozb", seed);
  }
  return workload::generate_acl({.rules = kAclRules, .seed = seed});
}

/// `count` distinct flows as the wire will carry them (canonicalized under
/// `in_port`), drawn from the filter set with kHitRatio rule hits.
std::vector<PacketHeader> distinct_flows(const FilterSet& set,
                                         std::size_t count,
                                         std::uint32_t in_port,
                                         std::uint64_t seed) {
  std::vector<PacketHeader> flows;
  flows.reserve(count);
  std::unordered_multimap<std::uint64_t, std::size_t> seen;
  for (std::uint64_t round = 0; flows.size() < count; ++round) {
    if (round == 64) throw std::runtime_error("flow pool did not fill");
    const auto batch = workload::generate_trace(
        set, {.packets = count, .hit_ratio = kHitRatio,
              .seed = workload::Rng(seed + round).next()});
    for (const auto& raw : batch) {
      if (flows.size() == count) break;
      PacketHeader header = canonical_wire_header(raw, in_port);
      const std::uint64_t hash = flow_key_hash(header);
      bool duplicate = false;
      for (auto [it, end] = seen.equal_range(hash); it != end; ++it) {
        duplicate = duplicate || flows[it->second] == header;
      }
      if (duplicate) continue;
      seen.emplace(hash, flows.size());
      flows.push_back(header);
    }
  }
  return flows;
}

/// High-priority ACL rules, none of which matches any flow of the stream, so
/// adding and deleting them never changes a classification.
std::vector<FlowEntry> make_churn_rules(const std::vector<PacketHeader>& flows,
                                        std::uint64_t seed) {
  std::vector<FlowEntry> rules;
  for (std::uint64_t round = 0; rules.size() < kChurnRules; ++round) {
    if (round == 16) throw std::runtime_error("churn rules did not fill");
    const auto candidates = workload::generate_acl(
        {.rules = 4 * kChurnRules,
         .seed = workload::Rng(seed ^ (0xC4u + round)).next()});
    for (const auto& candidate : candidates.entries) {
      if (rules.size() == kChurnRules) break;
      const auto matches = [&](const PacketHeader& flow) {
        return candidate.match.matches(flow);
      };
      if (std::any_of(flows.begin(), flows.end(), matches)) continue;
      FlowEntry rule = candidate;
      rule.id = kChurnIdBase + static_cast<FlowEntryId>(rules.size());
      rule.priority = static_cast<std::uint16_t>(60000 + rules.size());
      rules.push_back(std::move(rule));
    }
  }
  return rules;
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const auto& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Inputs generate_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs inputs;
  inputs.set = make_filter_set(spec, seed);
  inputs.in_port = workload::capture_in_port(inputs.set);
  const auto pool =
      distinct_flows(inputs.set, spec.flows, inputs.in_port, seed ^ 0x5EEDu);

  // The stream: flow indices drawn uniformly or Zipf-skewed.
  inputs.flow_of.resize(spec.stream);
  if (spec.shape == TrafficShape::kZipf) {
    workload::ZipfSampler sampler(pool.size(), kZipfS, seed ^ 0x21Fu);
    for (auto& flow : inputs.flow_of) {
      flow = static_cast<std::uint32_t>(sampler.next());
    }
  } else {
    workload::Rng rng(seed ^ 0x0F1Bu);
    for (auto& flow : inputs.flow_of) {
      flow = static_cast<std::uint32_t>(rng.below(pool.size()));
    }
  }
  std::vector<PacketHeader> stream;
  stream.reserve(spec.stream);
  for (const auto flow : inputs.flow_of) stream.push_back(pool[flow]);

  // Frames live in an in-memory pcap image, exactly as a capture would.
  inputs.capture = workload::export_trace(stream).take_buffer();
  trace::PcapReader reader(std::span<const std::uint8_t>(inputs.capture));
  for (const auto& record : reader.read_all()) {
    inputs.frames.emplace_back(record.bytes, record.orig_len);
  }
  if (inputs.frames.size() != spec.stream) {
    throw std::runtime_error("capture lost frames");
  }

  // Parse the whole stream once: the oracle and the churn check run on the
  // headers the switch will actually see.
  std::vector<PacketHeader> parsed(spec.stream);
  trace::ParseContext ctx;
  if (trace::parse_batch(inputs.frames, inputs.in_port, parsed, ctx) !=
      spec.stream) {
    throw std::runtime_error("generated stream has malformed frames");
  }
  inputs.flow_headers.assign(pool.size(), PacketHeader{});
  std::vector<bool> have(pool.size(), false);
  for (std::size_t i = 0; i < spec.stream; ++i) {
    const std::uint32_t flow = inputs.flow_of[i];
    if (!have[flow]) {
      inputs.flow_headers[flow] = parsed[i];
      have[flow] = true;
    } else if (!(inputs.flow_headers[flow] == parsed[i])) {
      throw std::runtime_error("one flow parsed to two headers");
    }
  }

  if (spec.churn) {
    std::vector<PacketHeader> seen_flows;
    for (std::size_t f = 0; f < pool.size(); ++f) {
      if (have[f]) seen_flows.push_back(inputs.flow_headers[f]);
    }
    inputs.churn_rules = make_churn_rules(seen_flows, seed);
  }
  return inputs;
}

MultiTableLookup compile_tables(const WorkloadSpec& spec,
                                const Inputs& inputs) {
  if (spec.churn) {
    MultiTableLookup tables;
    tables.add_table(LookupTable(inputs.set.fields, inputs.set.entries));
    return tables;
  }
  return compile_app(build_app(inputs.set, TableLayout::kPerFieldTables));
}

std::string_view short_field_name(FieldId id) {
  switch (id) {
    case FieldId::kInPort: return "in_port";
    case FieldId::kEthSrc: return "eth_src";
    case FieldId::kEthDst: return "eth_dst";
    case FieldId::kEthType: return "eth_type";
    case FieldId::kVlanId: return "vlan_id";
    case FieldId::kVlanPcp: return "vlan_pcp";
    case FieldId::kMplsLabel: return "mpls_label";
    case FieldId::kIpv4Src: return "ipv4_src";
    case FieldId::kIpv4Dst: return "ipv4_dst";
    case FieldId::kIpv6Src: return "ipv6_src";
    case FieldId::kIpv6Dst: return "ipv6_dst";
    case FieldId::kIpProto: return "ip_proto";
    case FieldId::kIpTos: return "ip_tos";
    case FieldId::kSrcPort: return "src_port";
    case FieldId::kDstPort: return "dst_port";
    case FieldId::kMetadata: return "metadata";
  }
  return "unknown";
}

}  // namespace perfbench
