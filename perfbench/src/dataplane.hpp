// The switch's RX path against the parallel runtime: one producer thread
// that, per batch of kBatch frames, wire-parses (trace::parse_batch) and
// submits to a runtime queue, then checks every completed batch bitwise
// against the sequential oracle. After a warm-up, two phases of equal length,
// run as alternating pairs of a capacity window and a paced trial, each
// about kWindowSeconds long:
//   - capacity: closed loop, a fixed window of batches in flight; the
//     delivered packet rate of each window;
//   - paced: open loop at a fixed offered rate, each trial independent and
//     drained before the next window; each batch is timed from its due time
//     until its ticket is seen done, and the generator's own lateness is
//     recorded separately.
#pragma once

#include <cstdint>
#include <vector>

#include "flow/pipeline_ref.hpp"
#include "runtime/runtime.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Length of each capacity window and of each paced trial. Each figure is
/// reported as the median over the run's windows (or trials), so a stall of
/// the machine moves the windows it hit, not the result; short windows make
/// many of them, so the median holds while most of a run is undisturbed.
inline constexpr double kWindowSeconds = 0.25;

struct DataPlaneReport {
  // capacity phase
  std::vector<double> window_mpps;
  std::uint64_t capacity_packets = 0;
  std::uint64_t capacity_publishes = 0;  ///< epochs published meanwhile
  // paced phase
  std::vector<double> window_lat_p50_us;  ///< per trial
  std::vector<double> window_lat_p95_us;  ///< per trial
  std::vector<double> window_lat_p99_us;  ///< per trial
  std::uint64_t lat_samples = 0;          ///< batches timed, all trials
  double gen_lag_p99_us = 0.0;    ///< start of handling minus due time
  double queue_depth_mean = 0.0;  ///< batches queued, sampled per arrival
  // both measured phases
  std::uint64_t batches = 0;
  std::uint64_t packets = 0;  ///< frames submitted
  std::uint64_t submit_spins = 0;
  std::uint64_t failed_packets = 0;  ///< in failed() tickets
  std::uint64_t malformed = 0;       ///< frames the parser rejected
  std::uint64_t mismatches = 0;      ///< results differing from the oracle
  std::uint64_t allocations = 0;     ///< data-plane operator new calls
  std::uint64_t publishes = 0;       ///< epochs published meanwhile
  ofmtl::runtime::WorkerStats workers;  ///< delta over the measured phases
};

/// Drive `rt` through warm-up, then `seconds / 2` of capacity windows
/// alternating with `seconds / 2` of trials paced at `paced_pps`.
/// `expected[flow]` is the oracle result of inputs.flow_headers[flow].
[[nodiscard]] DataPlaneReport run_dataplane(
    ofmtl::runtime::ParallelRuntime& rt, const Inputs& inputs,
    const std::vector<ofmtl::ExecutionResult>& expected, double seconds,
    double paced_pps);

}  // namespace perfbench
