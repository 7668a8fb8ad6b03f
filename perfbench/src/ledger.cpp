#include "ledger.hpp"

#include <optional>

#include "bench.hpp"
#include "core/flow_key.hpp"
#include "core/search_context.hpp"
#include "runtime/flow_cache.hpp"
#include "trace/wire_parse.hpp"

namespace perfbench {

using namespace ofmtl;

namespace {

/// TableLookupSource over a MultiTableLookup that times each table's real
/// batched lookup, then replays the table's field searches and index
/// calculation on a private context to split that cost by stage.
class TimingSource final : public TableLookupSource {
 public:
  TimingSource(const MultiTableLookup& tables, std::vector<TableLedger>& ledger)
      : tables_(tables), ledger_(ledger) {}

  [[nodiscard]] std::size_t source_table_count() const override {
    return tables_.source_table_count();
  }
  [[nodiscard]] const FlowEntry* source_lookup(
      std::size_t table, const PacketHeader& header) const override {
    return tables_.source_lookup(table, header);
  }
  [[nodiscard]] const GroupTable* source_groups() const override {
    return tables_.source_groups();
  }

  void source_lookup_batch(std::size_t t,
                           std::span<const PacketHeader* const> headers,
                           std::span<const FlowEntry*> out) const override {
    const auto start = Clock::now();
    tables_.source_lookup_batch(t, headers, out);
    const auto looked_up = Clock::now();
    TableLedger& ledger = ledger_[t];
    ledger.lookup_ns += ns_between(start, looked_up);
    ledger.packets += headers.size();

    const LookupTable& table = tables_.table(t);
    const auto& searches = table.field_searches();
    ctx_.begin(headers.size(), table.index().algorithm_count());
    std::size_t slot_base = 0;
    for (std::size_t f = 0; f < searches.size(); ++f) {
      const auto before = Clock::now();
      searches[f].search_batch(headers, ctx_, slot_base);
      ledger.search_ns[f] += ns_between(before, Clock::now());
      slot_base += searches[f].algorithm_count();
    }
    for (std::size_t lane = 0; lane < headers.size(); ++lane) {
      for (std::size_t a = 0; a < ctx_.algorithms(); ++a) {
        ledger.candidates += ctx_.slot(lane, a).size();
      }
    }
    const auto before_index = Clock::now();
    table.index().query_batch(ctx_);
    ledger.index_ns += ns_between(before_index, Clock::now());
    for (std::size_t lane = 0; lane < headers.size(); ++lane) {
      ledger.matches += ctx_.lane_matches(lane).size();
    }
    replay_ns_ += ns_between(looked_up, Clock::now());
  }

  /// Time spent in stage replays since the last call.
  [[nodiscard]] double take_replay_ns() {
    const double ns = replay_ns_;
    replay_ns_ = 0.0;
    return ns;
  }

 private:
  const MultiTableLookup& tables_;
  std::vector<TableLedger>& ledger_;
  mutable SearchContext ctx_;
  mutable double replay_ns_ = 0.0;
};

std::vector<TableLedger> empty_tables(const MultiTableLookup& tables) {
  std::vector<TableLedger> ledger(tables.table_count());
  for (std::size_t t = 0; t < tables.table_count(); ++t) {
    for (const auto id : tables.table(t).fields()) {
      ledger[t].fields.emplace_back(short_field_name(id));
    }
    ledger[t].search_ns.assign(ledger[t].fields.size(), 0.0);
  }
  return ledger;
}

}  // namespace

LedgerReport run_ledger(const MultiTableLookup& tables, const Inputs& inputs,
                        const std::vector<ExecutionResult>& expected,
                        std::size_t cache_slots,
                        std::uint64_t packets_per_epoch, double seconds) {
  LedgerReport report;
  report.tables = empty_tables(tables);
  TimingSource source(tables, report.tables);

  std::optional<runtime::FlowCache> cache;
  if (cache_slots > 0) cache.emplace(cache_slots);
  std::uint64_t epoch = 1;
  std::uint64_t since_epoch = 0;

  trace::ParseContext parse_ctx;
  ExecBatchContext exec_ctx;
  std::vector<PacketHeader> headers(kBatch);
  std::vector<ExecutionResult> results(kBatch);
  std::vector<std::uint32_t> miss_lanes;
  std::vector<std::uint64_t> miss_hashes;
  std::vector<PacketHeader> miss_headers;
  std::vector<ExecutionResult> miss_results(kBatch);
  miss_lanes.reserve(kBatch);
  miss_hashes.reserve(kBatch);
  miss_headers.reserve(kBatch);

  const auto run_pass = [&](bool cached) {
    for (std::size_t base = 0; base < inputs.frames.size(); base += kBatch) {
      const auto t0 = Clock::now();
      (void)trace::parse_batch({inputs.frames.data() + base, kBatch},
                               inputs.in_port, headers, parse_ctx);
      const auto t1 = Clock::now();
      Clock::time_point t2 = t1;
      Clock::time_point t3;
      Clock::time_point t4;
      if (cached) {
        miss_lanes.clear();
        miss_hashes.clear();
        miss_headers.clear();
        for (std::size_t i = 0; i < kBatch; ++i) {
          const std::uint64_t hash = flow_key_hash(headers[i]);
          const ExecutionResult* hit = cache->find(headers[i], hash, epoch);
          if (hit != nullptr) {
            results[i] = *hit;
          } else {
            miss_lanes.push_back(static_cast<std::uint32_t>(i));
            miss_hashes.push_back(hash);
            miss_headers.push_back(headers[i]);
          }
        }
        const std::size_t misses = miss_lanes.size();
        report.cache_hits += kBatch - misses;
        t2 = Clock::now();
        execute_tables_batch(source, {miss_headers.data(), misses},
                             {miss_results.data(), misses}, exec_ctx);
        t3 = Clock::now();
        for (std::size_t j = 0; j < misses; ++j) {
          results[miss_lanes[j]] = miss_results[j];
          cache->store(miss_headers[j], miss_hashes[j], epoch, miss_results[j]);
        }
        t4 = Clock::now();
      } else {
        execute_tables_batch(source, headers, results, exec_ctx);
        t3 = Clock::now();
        t4 = t3;
      }
      const double replay = source.take_replay_ns();
      report.e2e_ns += ns_between(t0, t4) - replay;
      report.parse_ns += ns_between(t0, t1);
      report.cache_ns += ns_between(t1, t2) + ns_between(t3, t4);
      report.exec_ns += ns_between(t2, t3) - replay;
      report.packets += kBatch;

      if (packets_per_epoch > 0 &&
          (since_epoch += kBatch) >= packets_per_epoch) {
        since_epoch -= packets_per_epoch;
        ++epoch;
      }
      for (std::size_t i = 0; i < kBatch; ++i) {
        if (!(results[i] == expected[inputs.flow_of[base + i]])) {
          ++report.mismatches;
        }
      }
    }
  };

  // Uncached counting pass (also the warm-up); its times are discarded.
  run_pass(false);
  const std::vector<TableLedger> counts = report.tables;
  const std::uint64_t mismatches = report.mismatches;
  report = LedgerReport{};
  report.tables = empty_tables(tables);

  const auto start = Clock::now();
  do {
    run_pass(cache.has_value());
  } while (seconds_between(start, Clock::now()) < seconds);

  report.mismatches += mismatches;
  for (std::size_t t = 0; t < counts.size(); ++t) {
    report.tables[t].packets = counts[t].packets;
    report.tables[t].candidates = counts[t].candidates;
    report.tables[t].matches = counts[t].matches;
  }
  return report;
}

}  // namespace perfbench
