// The proposed Multiple Table Lookup architecture end to end (Fig. 1): a
// chain of decomposed lookup tables executed under OpenFlow multi-table
// semantics. Drop-in equivalent of ReferencePipeline — same ExecutionResult,
// same Goto-Table/metadata/action-set behaviour — but each table lookup runs
// parallel single-field searches + index calculation instead of linear
// search.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/lookup_table.hpp"
#include "flow/pipeline_ref.hpp"
#include "mem/memory_model.hpp"

namespace ofmtl {

class MultiTableLookup : public TableLookupSource {
 public:
  MultiTableLookup() = default;
  explicit MultiTableLookup(std::vector<LookupTable> tables)
      : tables_(std::move(tables)) {}

  /// Compile every table of a reference pipeline (the equivalence target).
  [[nodiscard]] static MultiTableLookup compile(const ReferencePipeline& reference,
                                                FieldSearchConfig config = {});

  void add_table(LookupTable table) { tables_.push_back(std::move(table)); }

  /// Deep copy (one memberwise copy of every table, see LookupTable::clone):
  /// independent lookup structures, identical lookup behaviour. The
  /// left-right snapshot builds its second side through this. Exception: the
  /// group table is externally owned and only pointer-copied — it is NOT
  /// snapshot-isolated, so keep it immutable while clones (or the runtime)
  /// are live.
  [[nodiscard]] MultiTableLookup clone() const { return *this; }
  [[nodiscard]] std::size_t table_count() const { return tables_.size(); }
  [[nodiscard]] const LookupTable& table(std::size_t index) const {
    return tables_.at(index);
  }

  /// Incremental flow-mod interface: add/remove one entry of one table on
  /// the live pipeline (the controller channel of Section V.B).
  void insert_entry(std::size_t table, FlowEntry entry) {
    (void)tables_.at(table).insert_entry(std::move(entry));
  }
  bool remove_entry(std::size_t table, FlowEntryId id) {
    return tables_.at(table).remove_entry(id);
  }
  [[nodiscard]] bool contains_entry(std::size_t table, FlowEntryId id) const {
    return tables_.at(table).contains(id);
  }

  /// Process one packet starting at table 0.
  [[nodiscard]] ExecutionResult execute(const PacketHeader& header) const {
    return execute_tables(*this, header);
  }

  /// Process a batch of packets: results[i] is rewritten in place (vectors
  /// cleared, capacity kept) and is bitwise-identical to execute(headers[i]).
  /// Table stages run batched — every packet at a table is looked up with
  /// one interleaved, prefetching lookup_batch call. Uses an internal
  /// thread_local context; steady-state calls are allocation-free.
  void execute_batch(std::span<const PacketHeader> headers,
                     std::span<ExecutionResult> results) const;

  /// Same through caller-owned scratch (the hot-path form).
  void execute_batch(std::span<const PacketHeader> headers,
                     std::span<ExecutionResult> results,
                     ExecBatchContext& ctx) const {
    execute_tables_batch(*this, headers, results, ctx);
  }

  [[nodiscard]] std::size_t source_table_count() const override {
    return tables_.size();
  }
  [[nodiscard]] const FlowEntry* source_lookup(
      std::size_t table, const PacketHeader& header) const override {
    return tables_[table].lookup(header);
  }
  void source_lookup_batch(std::size_t table,
                           std::span<const PacketHeader* const> headers,
                           std::span<const FlowEntry*> out) const override;
  [[nodiscard]] const GroupTable* source_groups() const override {
    return groups_;
  }

  /// Attach a group table (not owned) for resolving Group actions.
  void set_group_table(const GroupTable* groups) { groups_ = groups; }

  /// Aggregate memory report across tables (the Section V.A total).
  [[nodiscard]] mem::MemoryReport memory_report(const std::string& prefix) const;

  /// Total update words written while building (label method).
  [[nodiscard]] std::uint64_t update_words() const;

 private:
  std::vector<LookupTable> tables_;
  const GroupTable* groups_ = nullptr;
};

}  // namespace ofmtl
