// switchbench: one workload of the switch benchmark, end to end.
//
//   switchbench --workload NAME --seed N --seconds S --trace 0|1
//               [--git-sha SHA]
//
// Generates the workload's inputs from the seed, sets the switch up (timed,
// several times), computes the sequential oracle, then runs the RX path
// through closed-loop capacity windows alternating with open-loop trials
// paced at the workload's fixed rate, with the OFP controller churning rules
// on acl_churn. With --trace 1 it then runs the single-threaded per-layer
// ledger. Progress goes to stderr; the last stdout line is one JSON object
// with every metric it measured (perfbench/run.py selects and prints the
// reported set).
// Exit status: 0 when every check held, 1 on a failed check, 2 on bad usage.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "control.hpp"
#include "core/simd.hpp"
#include "dataplane.hpp"
#include "ledger.hpp"
#include "obs/tracer.hpp"
#include "ofp/server/flow_mod_sink.hpp"
#include "runtime/runtime.hpp"
#include "workloads.hpp"

namespace {

using namespace ofmtl;
using namespace perfbench;

/// Wall time of the traced ledger's timed passes.
constexpr double kLedgerSeconds = 1.5;
/// try_decode calls timed for ofp.decode_ns.
constexpr std::size_t kDecodeIterations = 1 << 16;
/// glibc's default mmap threshold (128 KiB), pinned.
constexpr int kMmapThreshold = 128 * 1024;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
};

bool parse_options(int argc, char** argv, Options& options) {
  if (argc % 2 == 0) return false;
  std::map<std::string, std::string> values;
  for (int i = 1; i + 1 < argc; i += 2) values[argv[i]] = argv[i + 1];
  try {
    for (const auto& [key, value] : values) {
      if (key == "--workload") {
        options.workload = value;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
      } else if (key == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (key == "--git-sha") {
        options.git_sha = value;
      } else {
        return false;
      }
    }
  } catch (const std::exception&) {
    return false;
  }
  return !options.workload.empty() && options.seconds > 0;
}

/// CPUs this process may run on (what nproc prints).
std::vector<int> available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

/// Restrict the calling thread (and threads it creates from now on) to
/// `cpus`.
void pin_calling_thread(std::span<const int> cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

double rss_peak_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double frac(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Everything the tables hold, per table, sorted by entry id.
std::vector<std::vector<FlowEntry>> table_contents(
    const MultiTableLookup& tables) {
  std::vector<std::vector<FlowEntry>> contents;
  for (std::size_t t = 0; t < tables.table_count(); ++t) {
    auto entries = tables.table(t).entries();
    std::sort(entries.begin(), entries.end(),
              [](const FlowEntry& a, const FlowEntry& b) {
                return a.id < b.id;
              });
    contents.push_back(std::move(entries));
  }
  return contents;
}

void add_memory_metrics(const MultiTableLookup& tables, Metrics& metrics) {
  metrics.add("mem_model_kbit", tables.memory_report("").total_kbits(), "kbit");
  for (std::size_t t = 0; t < tables.table_count(); ++t) {
    const LookupTable& table = tables.table(t);
    const std::string prefix = "mem.t" + std::to_string(t) + ".";
    for (std::size_t f = 0; f < table.fields().size(); ++f) {
      metrics.add(prefix + std::string(short_field_name(table.fields()[f])) +
                      "_kbit",
                  table.field_searches()[f].memory_report("").total_kbits(),
                  "kbit");
    }
    metrics.add(prefix + "index_kbit",
                table.index().memory_report("").total_kbits(), "kbit");
    metrics.add(prefix + "actions_kbit",
                table.actions().memory_report("").total_kbits(), "kbit");
  }
  metrics.add("mem.update_words", static_cast<double>(tables.update_words()),
              "count");
}

void add_dataplane_metrics(const DataPlaneReport& dp, double paced_mpps,
                           Metrics& metrics) {
  metrics.add("mpps", median(dp.window_mpps), "Mpps");
  metrics.add("lat_p50_us", median(dp.window_lat_p50_us), "us");
  metrics.add("lat_p95_us", median(dp.window_lat_p95_us), "us");
  metrics.add("lat_p99_us", median(dp.window_lat_p99_us), "us");
  metrics.add("bench.lat_samples", static_cast<double>(dp.lat_samples),
              "count");
  metrics.add("bench.lat_p99_worst_us",
              *std::max_element(dp.window_lat_p99_us.begin(),
                                dp.window_lat_p99_us.end()),
              "us");
  metrics.add("bench.gen_lag_p99_us", dp.gen_lag_p99_us, "us");
  metrics.add("trace.malformed_frac", frac(dp.malformed, dp.packets), "frac");
  const auto& w = dp.workers;
  metrics.add("runtime.cache_hit_frac",
              frac(w.cache_hits, w.cache_hits + w.cache_misses), "frac");
  metrics.add("runtime.cache_invalidations_per_publish",
              frac(w.cache_epoch_invalidations, dp.publishes), "count");
  metrics.add("runtime.queue_depth_mean", dp.queue_depth_mean, "batches");
  // Little's law: the wait W = L / lambda, lambda the paced batch rate.
  const double batches_per_s = paced_mpps * 1e6 / kBatch;
  metrics.add("runtime.queue_wait_us",
              1e6 * ratio(dp.queue_depth_mean, batches_per_s), "us");
  metrics.add("runtime.submit_spins_per_batch",
              frac(dp.submit_spins, dp.batches), "count");
  metrics.add("runtime.allocs_per_batch", frac(dp.allocations, dp.batches),
              "count");
}

/// Control-plane metrics of a churn run, and its checks: every round was
/// fenced, the sink applied every mod that was sent and not answered with
/// ERROR, and replaying that mod stream through apply_mods on a clone of the
/// initial tables yields exactly the live tables (which end holding the
/// churn rules). False on a failed check.
bool add_churn_metrics(const ChurnPlane& churn, MultiTableLookup& initial,
                       const MultiTableLookup& live, bool traced,
                       Metrics& metrics) {
  const ChurnReport& report = churn.report();
  bool ok = report.transport_ok && report.rounds > 0;
  if (!ok) std::cerr << "switchbench: controller lost its session\n";
  if (report.sink_mods - report.sink_errors !=
      report.mods_sent - report.mods_failed) {
    std::cerr << "switchbench: the sink applied "
              << report.sink_mods - report.sink_errors << " mods, but "
              << report.mods_sent - report.mods_failed
              << " were sent and not refused\n";
    ok = false;
  }

  std::vector<ofp::server::PendingFlowMod> pending;
  std::vector<ofp::ErrorCode> codes;
  double apply_ns = 0.0;
  std::uint64_t applied = 0;
  for (std::uint64_t round = 0; round < report.rounds; ++round) {
    pending.clear();
    for (const auto& mod : churn.batch(round)) {
      const bool rejected =
          std::find(report.rejected.begin(), report.rejected.end(),
                    std::pair{round, mod.xid}) != report.rejected.end();
      if (!rejected) pending.push_back(mod);
    }
    codes.assign(pending.size(), ofp::ErrorCode::kNone);
    const auto start = Clock::now();
    ofp::server::apply_mods(initial, pending, codes);
    apply_ns += ns_between(start, Clock::now());
    applied += pending.size();
    ok = ok && std::all_of(codes.begin(), codes.end(), [](ofp::ErrorCode code) {
           return code == ofp::ErrorCode::kNone;
         });
  }
  if (table_contents(live) != table_contents(initial)) {
    std::cerr << "switchbench: live table differs from the replayed clone\n";
    ok = false;
  }

  metrics.add("core.apply_mods_us_per_mod", ratio(apply_ns / 1e3,
                                                  static_cast<double>(applied)),
              "us");
  metrics.add("mods_per_s",
              ratio(static_cast<double>(report.mods_sent), report.seconds),
              "1/s");
  metrics.add("mod_rtt_p50_us", quantile(report.rtt_us, 0.50), "us");
  metrics.add("mod_rtt_p99_us", quantile(report.rtt_us, 0.99), "us");
  metrics.add("ofp.mods_per_sink_call",
              frac(report.sink_mods, report.sink_calls), "count");
  metrics.add("ofp.sink_share",
              ratio(report.sink_ns_total, report.rtt_ns_total), "frac");
  metrics.add("ofp.error_frac", frac(report.mods_failed, report.mods_sent),
              "frac");
  metrics.add("runtime.publish_us_p50", quantile(report.publish_us, 0.50),
              "us");
  metrics.add("runtime.publish_us_p99", quantile(report.publish_us, 0.99),
              "us");
  if (traced) {
    const auto frames = churn.encoded_frames();
    ofp::Envelope envelope;
    std::size_t decoded = 0;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kDecodeIterations; ++i) {
      decoded += ofp::try_decode(frames[i % frames.size()], envelope) ==
                 ofp::DecodeStatus::kOk;
    }
    metrics.add("ofp.decode_ns",
                ns_between(start, Clock::now()) / kDecodeIterations, "ns");
    ok = ok && decoded == kDecodeIterations;
  }
  return ok;
}

void add_ledger_metrics(const LedgerReport& ledger, const DataPlaneReport& dp,
                        Metrics& metrics) {
  const double parse = ledger.per_packet(ledger.parse_ns);
  const double cache = ledger.per_packet(ledger.cache_ns);
  const double exec = ledger.per_packet(ledger.exec_ns);
  double lookups = 0.0;
  double stages = 0.0;
  for (std::size_t t = 0; t < ledger.tables.size(); ++t) {
    const TableLedger& table = ledger.tables[t];
    const std::string prefix = "core.t" + std::to_string(t) + ".";
    const double lookup = ledger.per_packet(table.lookup_ns);
    const double index = ledger.per_packet(table.index_ns);
    lookups += lookup;
    stages += index;
    metrics.add(prefix + "lookup_ns", lookup, "ns");
    for (std::size_t f = 0; f < table.fields.size(); ++f) {
      const double search = ledger.per_packet(table.search_ns[f]);
      stages += search;
      metrics.add(prefix + "search." + table.fields[f] + "_ns", search, "ns");
    }
    metrics.add(prefix + "index_ns", index, "ns");
    metrics.add(prefix + "candidates_per_pkt",
                frac(table.candidates, table.packets), "count");
    metrics.add(prefix + "matches_per_pkt", frac(table.matches, table.packets),
                "count");
  }
  const double apply = exec - lookups;
  const double e2e = ledger.per_packet(ledger.e2e_ns);
  metrics.add("trace.parse_ns_per_frame", parse, "ns");
  metrics.add("runtime.cache_probe_ns", cache, "ns");
  metrics.add("core.exec_ns_per_pkt", exec, "ns");
  metrics.add("core.apply_ns", apply, "ns");
  metrics.add("ledger.e2e_ns_per_pkt", e2e, "ns");
  metrics.add("ledger.closure_pct",
              100.0 * ratio(parse + cache + stages + apply, e2e), "%");
  // Utilization law: U = X * S, with X the capacity phase's rate per worker
  // and S the worker-side service time per packet (cache + pipeline).
  metrics.add("runtime.worker_busy_frac",
              median(dp.window_mpps) * (cache + exec) / 1e3 /
                  static_cast<double>(kWorkers),
              "frac");
}

void print_windows(const std::string& name, const DataPlaneReport& dp) {
  std::cerr << "[" << name << "] capacity windows (Mpps):";
  for (const double mpps : dp.window_mpps) std::cerr << " " << mpps;
  std::cerr << "\n[" << name << "] paced trials p50/p95 (us):";
  for (std::size_t win = 0; win < dp.window_lat_p50_us.size(); ++win) {
    std::cerr << " " << dp.window_lat_p50_us[win] << "/"
              << dp.window_lat_p95_us[win];
  }
  std::cerr << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold turns off glibc's dynamic one, which otherwise
  // rises or not with the sizes the seeded input generation happened to
  // free. That made set-up reuse warm heap for some seeds and fault in fresh
  // pages for others, a 25-30 % setup_s difference between seeds that was no
  // property of the switch. With it fixed, every set-up faults in its large
  // blocks, as a switch starting in a fresh process does.
  mallopt(M_MMAP_THRESHOLD, kMmapThreshold);
  Options options;
  if (!parse_options(argc, argv, options)) {
    std::cerr << "usage: switchbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--git-sha SHA]\n";
    return 2;
  }
  const WorkloadSpec* spec = find_workload(options.workload);
  if (spec == nullptr) {
    std::cerr << "switchbench: unknown workload " << options.workload << "\n";
    return 2;
  }
  // Producer + workers, plus controller and server loop when churning.
  const std::size_t threads = kWorkers + 1 + (spec->churn ? 2 : 0);
  const std::vector<int> cpus = available_cpus();
  if (threads > cpus.size()) {
    std::cerr << "switchbench: " << spec->name << " needs " << threads
              << " threads but only " << cpus.size()
              << " CPUs are available\n";
    return 1;
  }
  // The producer (this thread) gets the first CPU to itself; the switch's
  // threads — workers, server loop, controller — are created while this
  // thread is restricted to the others and inherit that mask. A load
  // generator that shares a CPU with a spinning worker would measure the
  // scheduler, not the switch.
  const std::span<const int> producer_cpu(cpus.data(), 1);
  const std::span<const int> switch_cpus(cpus.data() + 1, cpus.size() - 1);

  std::cerr << "[" << spec->name << "] generating inputs (seed "
            << options.seed << ")\n";
  const Inputs inputs = generate_inputs(*spec, options.seed);

  // --- set-up, timed several times: compile, runtime, server + handshake ---
  const runtime::RuntimeConfig rt_config{
      .workers = kWorkers,
      .queue_capacity = 64,
      .flow_cache_capacity = spec->flow_cache};
  std::vector<double> setup_s;
  std::unique_ptr<ChurnPlane> churn;
  std::unique_ptr<runtime::ParallelRuntime> rt;
  for (std::size_t rep = 0; rep < spec->setup_reps; ++rep) {
    churn.reset();
    rt.reset();
    pin_calling_thread(switch_cpus);
    const auto start = Clock::now();
    rt = std::make_unique<runtime::ParallelRuntime>(
        compile_tables(*spec, inputs), rt_config);
    if (spec->churn) {
      churn = std::make_unique<ChurnPlane>(*rt, inputs.churn_rules);
      if (!churn->connect()) {
        std::cerr << "switchbench: OFP server start or handshake failed\n";
        return 1;
      }
    }
    setup_s.push_back(seconds_between(start, Clock::now()));
  }
  std::cerr << "[" << spec->name << "] set-up " << median(setup_s) << " s\n";

  // --- oracle and memory model, from the pinned tables before any traffic ---
  Metrics metrics;
  metrics.add("setup_s", median(setup_s), "s");
  std::vector<ExecutionResult> expected(inputs.flow_headers.size());
  std::unique_ptr<MultiTableLookup> initial;
  {
    const auto guard = rt->classifier().acquire();
    const MultiTableLookup& tables = guard.tables();
    for (std::size_t f = 0; f < expected.size(); ++f) {
      expected[f] = tables.execute(inputs.flow_headers[f]);
    }
    add_memory_metrics(tables, metrics);
    if (spec->churn) {
      initial = std::make_unique<MultiTableLookup>(tables.clone());
    }
  }

  // --- the measured phases ---
  std::cerr << "[" << spec->name << "] capacity + paced phases, "
            << options.seconds << " s\n";
  if (churn) churn->begin();
  pin_calling_thread(producer_cpu);
  const DataPlaneReport dp = run_dataplane(*rt, inputs, expected,
                                           options.seconds,
                                           spec->paced_mpps * 1e6);
  if (churn) churn->finish();
  print_windows(spec->name, dp);
  add_dataplane_metrics(dp, spec->paced_mpps, metrics);

  bool correct = dp.mismatches == 0;
  if (dp.mismatches != 0) {
    std::cerr << "switchbench: " << dp.mismatches
              << " results differ from the oracle\n";
  }
  if (dp.workers.errors != 0) {
    std::cerr << "switchbench: " << dp.workers.errors
              << " batches failed in workers\n";
  }
  std::uint64_t attempted = dp.packets;
  std::uint64_t failed = dp.failed_packets + dp.malformed;
  if (churn) {
    const auto guard = rt->classifier().acquire();
    correct = add_churn_metrics(*churn, *initial, guard.tables(),
                                options.trace, metrics) &&
              correct;
    attempted += churn->report().mods_sent;
    failed += churn->report().mods_failed;
  }
  metrics.add("fail_frac", frac(failed, attempted), "frac");

  // --- traced run: the per-layer ledger ---
  if (options.trace) {
    std::cerr << "[" << spec->name << "] per-layer ledger\n";
    // The ledger's cache sees publishes at the capacity phase's rate, the
    // conditions worker_busy_frac describes.
    const std::uint64_t packets_per_epoch =
        dp.capacity_publishes > 0 ? dp.capacity_packets / dp.capacity_publishes
                                  : 0;
    const auto guard = rt->classifier().acquire();
    const LedgerReport ledger =
        run_ledger(guard.tables(), inputs, expected, spec->flow_cache,
                   packets_per_epoch, kLedgerSeconds);
    if (ledger.mismatches != 0) {
      std::cerr << "switchbench: ledger pass differs from the oracle\n";
      correct = false;
    }
    add_ledger_metrics(ledger, dp, metrics);
  }
  churn.reset();
  rt.reset();
  metrics.add("rss_peak_mb", rss_peak_mb(), "MB");

  // --- report ---
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"meta\": {\"workload\": " << json_string(spec->name)
      << ", \"seed\": " << options.seed
      << ", \"git_sha\": " << json_string(options.git_sha)
      << ", \"nproc\": " << cpus.size() << ", \"threads\": " << threads
      << ", \"simd\": " << json_string(simd::to_string(simd::active_level()))
      << ", \"ofmtl_trace_compiled\": "
      << (obs::kInstrumentationCompiled ? "true" : "false")
      << ", \"io\": \"in-memory frames / loopback control\""
      << ", \"paced_mpps\": " << json_number(spec->paced_mpps)
      << ", \"seconds\": " << json_number(options.seconds)
      << ", \"traced\": " << (options.trace ? "true" : "false")
      << ", \"rules\": " << inputs.set.entries.size()
      << ", \"flows\": " << inputs.flow_headers.size()
      << ", \"frames\": " << inputs.frames.size() << "}, \"metrics\": {";
  const auto& entries = metrics.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out << (i == 0 ? "" : ", ") << json_string(entries[i].name)
        << ": {\"value\": " << json_number(entries[i].value)
        << ", \"unit\": " << json_string(entries[i].unit) << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return correct ? 0 : 1;
}
