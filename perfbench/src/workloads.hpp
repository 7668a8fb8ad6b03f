// The benchmark's workloads: which filter set, which traffic, which runtime
// shape — and the seeded generation of every input (filter set, flow pool,
// in-memory pcap stream, churn rules). Generation is outside set-up time.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"
#include "flow/flow_entry.hpp"
#include "net/header.hpp"
#include "trace/wire_parse.hpp"

namespace perfbench {

/// Frames per submitted batch (one RX burst).
inline constexpr std::size_t kBatch = 256;

/// Runtime worker threads, on every workload. With two, the four-vCPU shared
/// host the benchmark was tuned on made capacity bimodal: fib_uniform read
/// 1.8 or 3.2 Mpps from window to window and run to run (IQR/median of mpps
/// 0.49 over three seeds), mac_zipf 6.2 or 8 Mpps (0.26 over four); with one
/// worker the same seeds spread 0.06 and 0.13. Two busy threads (producer and
/// worker) leave the machine's own drift as the noise; a second worker, its
/// steals and its polling of the sibling queue added modes of their own.
inline constexpr std::size_t kWorkers = 1;

enum class TrafficShape : std::uint8_t { kUniform, kZipf };

struct WorkloadSpec {
  std::string name;
  std::size_t flow_cache = 0;  ///< per-worker cache slots, 0 = off
  std::size_t flows = 0;       ///< distinct flows in the pool
  std::size_t stream = 0;      ///< frames in the capture (multiple of kBatch)
  TrafficShape shape = TrafficShape::kUniform;
  bool churn = false;          ///< OFP controller pushing flow-mods
  /// Offered rate of the paced phase, fixed whatever the code does: about a
  /// third of the slowest capacity seen while calibrating (see workloads.cpp).
  double paced_mpps = 0.0;
  std::size_t setup_reps = 3;  ///< set-ups timed for the setup_s median
};

/// The workload named `name`, or nullptr.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// Seeded inputs of one workload. `capture` owns the frame bytes that
/// `frames` views.
struct Inputs {
  ofmtl::FilterSet set;
  std::uint32_t in_port = 0;
  std::vector<std::uint8_t> capture;         ///< classic pcap image
  std::vector<ofmtl::trace::WireFrame> frames;  ///< the stream, in order
  std::vector<std::uint32_t> flow_of;        ///< frame -> flow index
  std::vector<ofmtl::PacketHeader> flow_headers;  ///< parsed, per flow
  std::vector<ofmtl::FlowEntry> churn_rules;  ///< match no stream packet
};

/// Generate every input of `spec` from `seed` (deterministic).
[[nodiscard]] Inputs generate_inputs(const WorkloadSpec& spec,
                                     std::uint64_t seed);

/// The set-up step timed by setup_s: compile the filter set into the
/// decomposed pipeline (build_app + compile for the two-table apps, one
/// five-field LookupTable for the ACL).
[[nodiscard]] ofmtl::MultiTableLookup compile_tables(const WorkloadSpec& spec,
                                                     const Inputs& inputs);

/// Short field names used in metric names (e.g. "ipv4_dst").
[[nodiscard]] std::string_view short_field_name(ofmtl::FieldId id);

}  // namespace perfbench
