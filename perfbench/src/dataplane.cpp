#include "dataplane.hpp"

#include <algorithm>
#include <memory>
#include <thread>

#include "alloc_count.hpp"
#include "bench.hpp"
#include "trace/wire_parse.hpp"

namespace perfbench {

using namespace ofmtl;

namespace {

/// Batches kept in flight by the closed loop, per worker.
constexpr std::size_t kClosedWindowPerWorker = 4;
constexpr double kWarmupSeconds = 0.3;
/// Batch slots of the producer (the open loop's bound on outstanding work).
constexpr std::size_t kSlots = 64;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// One RX burst owned by the producer: headers in, results out, its ticket.
struct Slot {
  Slot() : headers(kBatch), results(kBatch) {
    // Caller-owned result vectors are sized up front so their growth is
    // never charged to the runtime's allocation count.
    for (auto& result : results) {
      result.output_ports.reserve(8);
      result.matched_entries.reserve(8);
      result.visited_tables.reserve(8);
    }
    bad_lanes.reserve(kBatch);
  }
  std::vector<PacketHeader> headers;
  std::vector<ExecutionResult> results;
  std::vector<std::uint32_t> bad_lanes;
  runtime::BatchTicket ticket;
  std::size_t first = 0;  ///< stream index of lane 0
  bool busy = false;
  Clock::time_point due{};
};

class Producer {
 public:
  /// Monotonic counters; the measured phases report their deltas.
  struct Counters {
    std::uint64_t batches = 0;
    std::uint64_t spins = 0;
    std::uint64_t failed = 0;     ///< lanes of failed() tickets
    std::uint64_t malformed = 0;  ///< lanes the parser rejected
    std::uint64_t mismatches = 0;
  };

  Producer(runtime::ParallelRuntime& rt, const Inputs& inputs,
           const std::vector<ExecutionResult>& expected)
      : rt_(rt), inputs_(inputs), expected_(expected) {
    for (std::size_t i = 0; i < kSlots; ++i) {
      slots_.push_back(std::make_unique<Slot>());
    }
  }

  [[nodiscard]] Slot& slot(std::size_t k) { return *slots_[k % kSlots]; }

  /// Parse the next kBatch frames of the stream into `s` and submit them.
  void submit(Slot& s) {
    const std::span<const trace::WireFrame> frames(
        inputs_.frames.data() + cursor_, kBatch);
    (void)trace::parse_batch(frames, inputs_.in_port, s.headers, ctx_);
    s.bad_lanes.assign(ctx_.bad_lanes.begin(), ctx_.bad_lanes.end());
    s.first = cursor_;
    cursor_ = (cursor_ + kBatch) % inputs_.frames.size();
    s.ticket.reset();
    s.busy = true;
    counts.spins += rt_.submit(next_queue_, s.headers, s.results, &s.ticket);
    next_queue_ = (next_queue_ + 1) % rt_.worker_count();
    ++counts.batches;
  }

  void wait(Slot& s) {
    while (!s.ticket.done()) cpu_relax();
  }

  /// Account a completed batch: failures, malformed lanes, oracle check.
  void retire(Slot& s) {
    s.busy = false;
    counts.malformed += s.bad_lanes.size();
    if (s.ticket.failed()) {
      counts.failed += kBatch - s.bad_lanes.size();
      return;
    }
    std::size_t bad = 0;
    for (std::size_t lane = 0; lane < kBatch; ++lane) {
      if (bad < s.bad_lanes.size() && s.bad_lanes[bad] == lane) {
        ++bad;
        continue;
      }
      const std::uint32_t flow = inputs_.flow_of[s.first + lane];
      if (!(s.results[lane] == expected_[flow])) ++counts.mismatches;
    }
  }

  void drain() {
    for (auto& s : slots_) {
      if (!s->busy) continue;
      wait(*s);
      retire(*s);
    }
  }

  Counters counts;

 private:
  runtime::ParallelRuntime& rt_;
  const Inputs& inputs_;
  const std::vector<ExecutionResult>& expected_;
  std::vector<std::unique_ptr<Slot>> slots_;
  trace::ParseContext ctx_;
  std::size_t cursor_ = 0;
  std::size_t next_queue_ = 0;
};

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Closed loop over `window` slots for `windows` sub-windows of `span`
/// each; the delivered rate of each lands in `window_mpps` (when given).
/// Returns the packets delivered.
std::uint64_t closed_loop(Producer& producer, std::size_t window,
                          Clock::duration span, std::size_t windows,
                          std::vector<double>* window_mpps) {
  auto window_start = Clock::now();
  auto window_end = window_start + span;
  std::size_t windows_done = 0;
  std::uint64_t completed = 0;
  std::uint64_t completed_total = 0;
  for (std::size_t k = 0;; ++k) {
    Slot& s = producer.slot(k % window);
    if (s.busy) {
      producer.wait(s);
      producer.retire(s);
      completed += kBatch;
    }
    const auto now = Clock::now();
    if (now >= window_end) {
      if (window_mpps != nullptr) {
        window_mpps->push_back(static_cast<double>(completed) /
                               seconds_between(window_start, now) / 1e6);
      }
      completed_total += completed;
      completed = 0;
      window_start = now;
      window_end = now + span;
      if (++windows_done == windows) break;
    }
    producer.submit(s);
  }
  producer.drain();
  return completed_total;
}

}  // namespace

DataPlaneReport run_dataplane(runtime::ParallelRuntime& rt,
                              const Inputs& inputs,
                              const std::vector<ExecutionResult>& expected,
                              double seconds, double paced_pps) {
  DataPlaneReport report;
  Producer producer(rt, inputs, expected);
  const std::size_t closed_window =
      std::min(kSlots, kClosedWindowPerWorker * rt.worker_count());
  const auto windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds / 2.0 / kWindowSeconds));
  const auto window_span = to_duration(seconds / 2.0 / windows);
  const double batches_per_s = paced_pps / static_cast<double>(kBatch);
  const auto interval = to_duration(1.0 / batches_per_s);

  // Warm-up cycles every slot so caches, scratch and result vectors are sized
  // before anything is measured.
  (void)closed_loop(producer, kSlots, to_duration(kWarmupSeconds), 1, nullptr);

  // Every buffer the measured phases fill is sized here: the producer's own
  // allocations would count against the runtime's.
  const auto trial_batches =
      static_cast<std::size_t>(window_span / interval) + 2;
  std::vector<double> latency_us;
  std::vector<double> gen_lag_us;
  latency_us.reserve(trial_batches);
  gen_lag_us.reserve(trial_batches * windows);
  report.window_mpps.reserve(windows);
  report.window_lat_p50_us.reserve(windows);
  report.window_lat_p95_us.reserve(windows);
  report.window_lat_p99_us.reserve(windows);
  double depth_sum = 0.0;

  const auto stats_before = rt.aggregate_stats();
  const std::uint64_t epoch_before = rt.epoch();
  const std::uint64_t allocs_before = data_plane_allocations();
  const Producer::Counters before = producer.counts;

  // The phases alternate, one capacity window then one paced trial, so the
  // median of each samples the whole run: on a shared machine whose speed
  // drifts over seconds, two back-to-back halves would each see only theirs.
  std::size_t k = 0;
  for (std::size_t trial = 0; trial < windows; ++trial) {
    // --- capacity window (closed loop) ---
    const std::uint64_t epoch_at = rt.epoch();
    report.capacity_packets += closed_loop(producer, closed_window,
                                           window_span, 1, &report.window_mpps);
    report.capacity_publishes += rt.epoch() - epoch_at;

    // --- paced trial (open loop) ---
    // Each trial runs its own schedule and drains before the next window, so
    // a stall of the machine shows in the trial it hit and does not leave a
    // backlog that inflates the trials after it.
    latency_us.clear();
    const auto trial_end = Clock::now() + window_span;
    auto next_due = trial_end - window_span;
    while (true) {
      const auto now = Clock::now();
      for (std::size_t i = 0; i < kSlots; ++i) {
        Slot& s = producer.slot(i);
        if (s.busy && s.ticket.done()) {
          latency_us.push_back(ns_between(s.due, now) / 1e3);
          producer.retire(s);
        }
      }
      if (now < next_due) {
        cpu_relax();
        continue;
      }
      if (next_due >= trial_end) break;
      Slot& s = producer.slot(k);
      if (s.busy) continue;  // every slot outstanding: the lag shows it
      gen_lag_us.push_back(ns_between(next_due, now) / 1e3);
      for (std::size_t q = 0; q < rt.worker_count(); ++q) {
        depth_sum += static_cast<double>(rt.queue_depth(q));
      }
      s.due = next_due;
      producer.submit(s);
      next_due += interval;
      ++k;
    }
    for (std::size_t i = 0; i < kSlots; ++i) {
      Slot& s = producer.slot(i);
      if (!s.busy) continue;
      producer.wait(s);
      latency_us.push_back(ns_between(s.due, Clock::now()) / 1e3);
      producer.retire(s);
    }
    std::sort(latency_us.begin(), latency_us.end());
    report.window_lat_p50_us.push_back(quantile_sorted(latency_us, 0.50));
    report.window_lat_p95_us.push_back(quantile_sorted(latency_us, 0.95));
    report.window_lat_p99_us.push_back(quantile_sorted(latency_us, 0.99));
    report.lat_samples += latency_us.size();
  }

  report.allocations = data_plane_allocations() - allocs_before;
  report.publishes = rt.epoch() - epoch_before;
  std::sort(gen_lag_us.begin(), gen_lag_us.end());
  report.gen_lag_p99_us = quantile_sorted(gen_lag_us, 0.99);
  report.queue_depth_mean = ratio(depth_sum, static_cast<double>(k));

  const auto stats_after = rt.aggregate_stats();
  auto& w = report.workers;
  w.batches = stats_after.batches - stats_before.batches;
  w.packets = stats_after.packets - stats_before.packets;
  w.errors = stats_after.errors - stats_before.errors;
  w.cache_hits = stats_after.cache_hits - stats_before.cache_hits;
  w.cache_misses = stats_after.cache_misses - stats_before.cache_misses;
  w.cache_evictions =
      stats_after.cache_evictions - stats_before.cache_evictions;
  w.cache_epoch_invalidations = stats_after.cache_epoch_invalidations -
                                stats_before.cache_epoch_invalidations;
  report.batches = producer.counts.batches - before.batches;
  report.packets = report.batches * kBatch;
  report.submit_spins = producer.counts.spins - before.spins;
  report.failed_packets = producer.counts.failed - before.failed;
  report.malformed = producer.counts.malformed - before.malformed;
  report.mismatches = producer.counts.mismatches;  // warm-up included
  return report;
}

}  // namespace perfbench
