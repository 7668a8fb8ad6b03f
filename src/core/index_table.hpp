// Index calculation (Fig. 1, Section IV.C): combines the labels returned by
// the parallel single-field algorithms into the index of the matching flow
// entry. Implemented as progressive pairwise combination — the Distributed
// Crossproducting of Field Labels scheme ([11], DCFL) the paper's label
// method derives from: stage i holds the valid (accumulated-label, next-
// algorithm-label) pairs, so only label combinations some rule actually uses
// are ever materialized (no crossproduct explosion).
//
// One store, queried and updated in place: each stage is a flat open-
// addressing table of 16-byte {pair key, label, refs} slots beside its
// one-byte tag array (core/flat_hash.hpp), and the final label -> rule-list
// map is a flat table of {label, offset, count, cap} slots over slack-
// capacity regions of one rule array. add_rule/remove_rule maintain them
// incrementally (tombstone deletes, rehash-from-self on growth), so a
// calculator is queryable at every point of its life.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/field_search.hpp"
#include "mem/memory_model.hpp"

namespace ofmtl {

class IndexCalculator {
 public:
  /// Signature arity limit (the remove path records its walk in a fixed
  /// stack array). A table over every registry field needs 36.
  static constexpr std::size_t kMaxAlgorithms = 64;

  /// `algorithm_count` = total algorithms across the table's fields
  /// (1..kMaxAlgorithms).
  explicit IndexCalculator(std::size_t algorithm_count);

  /// Register a rule's signature (one label per algorithm, in order).
  /// `rule_index` is the position in the table's entry array. Amortized
  /// O(signature): tables grow by rehashing, never per call.
  void add_rule(std::span<const Label> signature, std::uint32_t rule_index);

  /// Unregister a rule. Pair entries are reference-counted across rules and
  /// vanish (tombstone) when the last sharing rule leaves — the incremental-
  /// update counterpart of add_rule. Throws, changing nothing, if the
  /// signature or the rule was never registered. Allocation-free.
  void remove_rule(std::span<const Label> signature, std::uint32_t rule_index);

  /// Query with per-algorithm candidate lists (most specific first). Appends
  /// the indices of every rule whose signature is covered; order unspecified.
  void query(const std::vector<LabelList>& candidates,
             std::vector<std::uint32_t>& out) const;

  /// Allocation-free query: candidate lists as a contiguous span (one per
  /// algorithm), working sets borrowed from `ctx`.
  void query(std::span<const LabelList> candidates, SearchContext& ctx,
             std::vector<std::uint32_t>& out) const;

  /// Batched allocation-free query over every lane prepared in `ctx` (the
  /// per-lane candidate slots filled by the field searches): fills
  /// ctx.lane_matches(lane) with exactly what query(ctx.packet_candidates
  /// (lane), ...) would produce, but probes the stages interleaved across
  /// lanes with software prefetch — stage by stage, every lane's pair probes
  /// are issued before any lane's are resolved.
  void query_batch(SearchContext& ctx) const;

  [[nodiscard]] std::size_t algorithm_count() const { return stages_.size() + 1; }

  /// Memory model: each stage is a hash table of (label,label)->label words.
  [[nodiscard]] mem::MemoryReport memory_report(const std::string& prefix) const;
  [[nodiscard]] std::uint64_t update_words() const;

 private:
  using PairKey = std::uint64_t;
  [[nodiscard]] static PairKey pair_key(Label a, Label b) {
    return (std::uint64_t{a} << 32) | b;
  }

  /// One pair of a stage. Meaningful only where the slot's tag is a live
  /// 7-bit hash tag; `refs` counts the rules whose signature passes it.
  struct StageSlot {
    PairKey key = 0;
    Label label = kNoLabel;
    std::uint32_t refs = 0;
  };

  /// One stage: open-addressed pair-key table, power-of-two capacity,
  /// group-linear tag probing (core/flat_hash.hpp).
  struct Stage {
    std::vector<StageSlot> slots;
    std::vector<std::uint8_t> tags;
    std::uint64_t mask = 0;
    std::size_t used = 0;  // live + tombstoned slots
    std::size_t live = 0;  // valid pairs (the memory model's words)
    Label next_label = 0;  // labels ever issued; sets the word width
  };

  /// One final label and its region of final_rules_: `count` live rule
  /// indices at [offset, offset + count), `cap` slots reserved.
  struct FinalSlot {
    Label key = 0;
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
    std::uint32_t cap = 0;
  };

  [[nodiscard]] static std::size_t find_pair(const Stage& stage, PairKey key,
                                             std::uint64_t hash);
  [[nodiscard]] static Label probe_stage(const Stage& stage, PairKey key);
  [[nodiscard]] std::size_t find_final(Label final_label,
                                       std::uint64_t hash) const;
  /// Append the rule indices of the final label at `final_slot` to `out`.
  void append_rules(std::size_t final_slot, std::vector<std::uint32_t>& out) const;
  void combine(std::span<const LabelList> candidates, std::vector<Label>& current,
               std::vector<Label>& next, std::vector<std::uint32_t>& out) const;

  /// Rebuild a table at `capacity` from its own live slots (tombstones
  /// dropped); the final table also packs its regions tight.
  static void rehash_stage(Stage& stage, std::size_t capacity);
  void rehash_final(std::size_t capacity);
  void final_add(Label final_label, std::uint32_t rule_index);

  std::vector<Stage> stages_;  // algorithm_count - 1 stages

  // Final combined label -> rule indices (several rules may share a match
  // signature at different priorities). Each final label owns a slack-
  // capacity region of final_rules_ that grows by relocation to the tail;
  // abandoned regions are garbage until a threshold-triggered compaction.
  std::vector<FinalSlot> final_slots_;
  std::vector<std::uint8_t> final_tags_;
  std::vector<std::uint32_t> final_rules_;  // region storage
  std::uint64_t final_mask_ = 0;
  std::size_t final_used_ = 0;     // live + tombstoned key slots
  std::size_t final_live_ = 0;     // live final labels
  std::size_t live_rules_ = 0;     // rule indices across all regions
  std::size_t final_garbage_ = 0;  // abandoned final_rules_ slots
};

}  // namespace ofmtl
