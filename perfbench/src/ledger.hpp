// The per-layer ledger: a single-threaded traced pass that repeats the
// runtime's per-batch work from the benchmark's own code — parse_batch,
// FlowCache find/store, execute_tables_batch through a timing
// TableLookupSource — and times each call. Inside the timing source every
// table's stages are replayed through the table's own public FieldSearch /
// IndexCalculator objects on a private SearchContext, so the per-field and
// index costs come from exactly the headers the real pipeline hands that
// table. The replay's cost is kept out of the pass's end-to-end time.
//
// All ns figures are per stream packet, so the layers add up:
//   parse + cache + sum_t(search_t + index_t) + apply  ~  end-to-end,
// with apply = exec - sum_t(lookup_t). What is left unattributed (each
// table's best-match pick, loop overhead) is what keeps the closure under
// 100 %.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {

struct TableLedger {
  double lookup_ns = 0.0;  ///< the real source_lookup_batch call
  double index_ns = 0.0;   ///< replayed IndexCalculator::query_batch
  std::vector<std::string> fields;
  std::vector<double> search_ns;  ///< replayed FieldSearch::search_batch
  /// Counts of the uncached first pass, where every stream packet walks the
  /// pipeline — so they depend on the seed alone.
  std::uint64_t packets = 0;     ///< headers that reached this table
  std::uint64_t candidates = 0;  ///< labels the field searches returned
  std::uint64_t matches = 0;     ///< rule indices the index stage produced
};

struct LedgerReport {
  std::uint64_t packets = 0;  ///< stream packets through the pass
  double e2e_ns = 0.0;        ///< wall time minus the stage replays
  double parse_ns = 0.0;
  double cache_ns = 0.0;  ///< FlowCache find + store (0 without a cache)
  double exec_ns = 0.0;   ///< execute_tables_batch minus the stage replays
  std::vector<TableLedger> tables;
  std::uint64_t cache_hits = 0;
  std::uint64_t mismatches = 0;  ///< oracle check of the pass's own results

  [[nodiscard]] double per_packet(double ns) const {
    return packets > 0 ? ns / static_cast<double>(packets) : 0.0;
  }
};

/// One uncached counting pass over the stream against `tables`, then timed
/// passes until `seconds` have elapsed. With `cache_slots` > 0 a FlowCache
/// sits in front of the pipeline in the timed passes; its epoch advances
/// every `packets_per_epoch` packets (0 = never), mirroring the live
/// publish rate.
[[nodiscard]] LedgerReport run_ledger(
    const ofmtl::MultiTableLookup& tables, const Inputs& inputs,
    const std::vector<ofmtl::ExecutionResult>& expected,
    std::size_t cache_slots, std::uint64_t packets_per_epoch, double seconds);

}  // namespace perfbench
