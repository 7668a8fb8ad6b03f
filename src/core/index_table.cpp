#include "core/index_table.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "core/flat_hash.hpp"
#include "net/fields.hpp"

namespace ofmtl {

namespace {

using detail::flat_needs_rebuild;
using detail::flat_rebuild_capacity;
using detail::flat_tag_capacity;
using detail::kTagDeleted;
using detail::kTagEmpty;
using detail::mix64;
using detail::reserve_for_append;
using detail::tag_find;
using detail::tag_group_of;
using detail::tag_insert_slot;
using detail::tag_of;

/// Algorithms of a table that matches on every registry field.
constexpr std::size_t registry_algorithm_count() {
  std::size_t total = 0;
  for (const FieldInfo& info : field_registry()) {
    total += info.method == MatchMethod::kLongestPrefix ? partition_count(info.bits)
                                                        : 1;
  }
  return total;
}
static_assert(registry_algorithm_count() <= IndexCalculator::kMaxAlgorithms);

/// Rebuild a tag-probed table at `capacity` from its own live slots:
/// tombstones drop out, and `place` sees each live slot once, in slot order,
/// and returns what to store.
template <typename Slot, typename HashOf, typename Place>
void rehash_table(std::vector<std::uint8_t>& tags, std::vector<Slot>& slots,
                  std::uint64_t& mask, std::size_t capacity, HashOf&& hash_of,
                  Place&& place) {
  std::vector<std::uint8_t> new_tags(capacity, kTagEmpty);
  std::vector<Slot> new_slots(capacity);
  const std::uint64_t new_mask = capacity - 1;
  for (std::size_t i = 0; i < tags.size(); ++i) {
    if (tags[i] >= 0x80) continue;  // empty or tombstoned
    const std::size_t index =
        tag_insert_slot(new_tags.data(), new_mask, hash_of(slots[i]));
    new_tags[index] = tags[i];
    new_slots[index] = place(slots[i]);
  }
  tags.swap(new_tags);
  slots.swap(new_slots);
  mask = new_mask;
}

}  // namespace

IndexCalculator::IndexCalculator(std::size_t algorithm_count) {
  if (algorithm_count == 0 || algorithm_count > kMaxAlgorithms) {
    throw std::invalid_argument("index calculator needs 1..64 algorithms");
  }
  stages_.resize(algorithm_count - 1);
  for (Stage& stage : stages_) rehash_stage(stage, flat_tag_capacity(0));
  rehash_final(flat_tag_capacity(0));
}

void IndexCalculator::add_rule(std::span<const Label> signature,
                               std::uint32_t rule_index) {
  if (signature.size() != algorithm_count()) {
    throw std::invalid_argument("signature arity mismatch");
  }
  Label accumulated = signature[0];
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    Stage& stage = stages_[s];
    const PairKey key = pair_key(accumulated, signature[s + 1]);
    const std::uint64_t hash = mix64(key);
    std::size_t index = find_pair(stage, key, hash);
    if (index == SIZE_MAX) {
      if (flat_needs_rebuild(stage.used, stage.tags.size())) {
        rehash_stage(stage,
                     flat_rebuild_capacity(stage.live, stage.tags.size()));
      }
      // Reuse the first empty-or-tombstoned slot on the probe path.
      index = tag_insert_slot(stage.tags.data(), stage.mask, hash);
      if (stage.tags[index] == kTagEmpty) ++stage.used;
      stage.tags[index] = tag_of(hash);
      stage.slots[index] = {key, stage.next_label++, 0};
      ++stage.live;
    }
    ++stage.slots[index].refs;
    accumulated = stage.slots[index].label;
  }
  final_add(accumulated, rule_index);
}

void IndexCalculator::remove_rule(std::span<const Label> signature,
                                  std::uint32_t rule_index) {
  if (signature.size() != algorithm_count()) {
    throw std::invalid_argument("signature arity mismatch");
  }
  // Validate before mutating: walk the signature's path (recording its slot
  // indices) and find the rule in its final region; only then release.
  std::array<std::size_t, kMaxAlgorithms - 1> path{};
  Label accumulated = signature[0];
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const PairKey key = pair_key(accumulated, signature[s + 1]);
    path[s] = find_pair(stages_[s], key, mix64(key));
    if (path[s] == SIZE_MAX) {
      throw std::invalid_argument("remove_rule: signature not registered");
    }
    accumulated = stages_[s].slots[path[s]].label;
  }
  const std::size_t index = find_final(accumulated, mix64(accumulated));
  if (index == SIZE_MAX) {
    throw std::invalid_argument("remove_rule: signature not registered");
  }
  FinalSlot& slot = final_slots_[index];
  std::uint32_t* const region = final_rules_.data() + slot.offset;
  std::uint32_t* const end = region + slot.count;
  std::uint32_t* const pos = std::find(region, end, rule_index);
  if (pos == end) throw std::invalid_argument("remove_rule: rule not registered");
  *pos = end[-1];
  --slot.count;
  --live_rules_;
  if (slot.count == 0) {
    // Last rule of this label: tombstone the key slot, abandon the region.
    final_tags_[index] = kTagDeleted;
    final_garbage_ += slot.cap;
    --final_live_;
  }
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    Stage& stage = stages_[s];
    if (--stage.slots[path[s]].refs == 0) {
      // Tombstone, not empty: the slot may sit mid-chain for other keys.
      stage.tags[path[s]] = kTagDeleted;
      --stage.live;
    }
  }
}

void IndexCalculator::rehash_stage(Stage& stage, std::size_t capacity) {
  rehash_table(stage.tags, stage.slots, stage.mask, capacity,
               [](const StageSlot& slot) { return mix64(slot.key); },
               [](const StageSlot& slot) { return slot; });
  stage.used = stage.live;
}

void IndexCalculator::rehash_final(std::size_t capacity) {
  // Compaction: each live region is copied, packed tight, out of the old
  // rule array; abandoned regions and slack are left behind.
  std::vector<std::uint32_t> rules;
  rules.reserve(live_rules_);
  rehash_table(final_tags_, final_slots_, final_mask_, capacity,
               [](const FinalSlot& slot) { return mix64(slot.key); },
               [&](FinalSlot slot) {
                 const auto region = final_rules_.begin() + slot.offset;
                 slot.offset = static_cast<std::uint32_t>(rules.size());
                 slot.cap = slot.count;
                 rules.insert(rules.end(), region, region + slot.count);
                 return slot;
               });
  final_rules_.swap(rules);
  final_used_ = final_live_;
  final_garbage_ = 0;
}

void IndexCalculator::final_add(Label final_label, std::uint32_t rule_index) {
  // Rebuild triggers up front: key-table load past the shared 50% rule, or
  // more than half of final_rules_ abandoned (a compaction alone keeps the
  // key table's capacity).
  const bool full = flat_needs_rebuild(final_used_, final_tags_.size());
  if (full ||
      (final_rules_.size() >= 64 && 2 * final_garbage_ > final_rules_.size())) {
    rehash_final(full ? flat_rebuild_capacity(final_live_, final_tags_.size())
                      : final_tags_.size());
  }
  const std::uint64_t hash = mix64(final_label);
  std::size_t index = find_final(final_label, hash);
  if (index == SIZE_MAX) {
    // New final label: reuse the first empty-or-tombstoned slot on the
    // probe path; its region is allocated below.
    index = tag_insert_slot(final_tags_.data(), final_mask_, hash);
    if (final_tags_[index] == kTagEmpty) ++final_used_;
    final_tags_[index] = tag_of(hash);
    final_slots_[index] = {final_label, 0, 0, 0};
    ++final_live_;
  }
  FinalSlot& slot = final_slots_[index];
  if (slot.count == slot.cap) {
    // Region full (or none yet): relocate to a doubled region at the tail;
    // the old region becomes garbage until the next compaction.
    constexpr std::uint32_t kInitialCap = 2;
    const std::uint32_t new_cap = slot.cap == 0 ? kInitialCap : 2 * slot.cap;
    const auto new_offset = static_cast<std::uint32_t>(final_rules_.size());
    final_rules_.resize(final_rules_.size() + new_cap, 0);
    std::copy_n(final_rules_.begin() + slot.offset, slot.count,
                final_rules_.begin() + new_offset);
    final_garbage_ += slot.cap;
    slot.offset = new_offset;
    slot.cap = new_cap;
  }
  final_rules_[slot.offset + slot.count++] = rule_index;
  ++live_rules_;
}

std::size_t IndexCalculator::find_pair(const Stage& stage, PairKey key,
                                       std::uint64_t hash) {
  return tag_find(stage.tags.data(), stage.mask, hash, [&](std::size_t slot) {
    return stage.slots[slot].key == key;
  });
}

Label IndexCalculator::probe_stage(const Stage& stage, PairKey key) {
  const std::size_t index = find_pair(stage, key, mix64(key));
  return index == SIZE_MAX ? kNoLabel : stage.slots[index].label;
}

std::size_t IndexCalculator::find_final(Label final_label,
                                        std::uint64_t hash) const {
  return tag_find(final_tags_.data(), final_mask_, hash, [&](std::size_t slot) {
    return final_slots_[slot].key == final_label;
  });
}

void IndexCalculator::append_rules(std::size_t final_slot,
                                   std::vector<std::uint32_t>& out) const {
  const FinalSlot& slot = final_slots_[final_slot];
  const auto region = final_rules_.begin() + slot.offset;
  reserve_for_append(out, slot.count);
  out.insert(out.end(), region, region + slot.count);
}

void IndexCalculator::combine(std::span<const LabelList> candidates,
                              std::vector<Label>& current,
                              std::vector<Label>& next,
                              std::vector<std::uint32_t>& out) const {
  if (candidates.size() != algorithm_count()) {
    throw std::invalid_argument("candidate arity mismatch");
  }
  // Progressive combination; the working set stays bounded by the number of
  // distinct rule signatures compatible with the packet so far.
  current.assign(candidates[0].begin(), candidates[0].end());
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    next.clear();
    for (const Label accumulated : current) {
      for (const Label candidate : candidates[s + 1]) {
        const Label combined =
            probe_stage(stages_[s], pair_key(accumulated, candidate));
        if (combined != kNoLabel) next.push_back(combined);
      }
    }
    current.swap(next);
    if (current.empty()) return;
  }
  for (const Label final_label : current) {
    const std::size_t index = find_final(final_label, mix64(final_label));
    if (index != SIZE_MAX) append_rules(index, out);
  }
}

void IndexCalculator::query(const std::vector<LabelList>& candidates,
                            std::vector<std::uint32_t>& out) const {
  std::vector<Label> current;
  std::vector<Label> next;
  combine({candidates.data(), candidates.size()}, current, next, out);
}

void IndexCalculator::query(std::span<const LabelList> candidates,
                            SearchContext& ctx,
                            std::vector<std::uint32_t>& out) const {
  combine(candidates, ctx.combine_current(), ctx.combine_next(), out);
}

void IndexCalculator::query_batch(SearchContext& ctx) const {
  const std::size_t lanes = ctx.lanes();
  if (ctx.algorithms() != algorithm_count()) {
    throw std::invalid_argument("candidate arity mismatch");
  }
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    ctx.lane_matches(lane).clear();
  }
  // All lanes' working label sets live in one flat arena (lane i's window is
  // [off[i], off[i+1])); two generations swap per stage. Compared to one
  // vector per lane this keeps the stage loop's loads sequential and makes
  // the per-stage clear O(1).
  auto& cur = ctx.pool_current();
  auto& cur_off = ctx.pool_offsets_current();
  auto& nxt = ctx.pool_next();
  auto& nxt_off = ctx.pool_offsets_next();
  cur.clear();
  cur_off.clear();
  cur_off.push_back(0);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const LabelList& first = ctx.packet_candidates(lane)[0];
    reserve_for_append(cur, first.size());
    cur.insert(cur.end(), first.begin(), first.end());
    cur_off.push_back(static_cast<std::uint32_t>(cur.size()));
  }
  // Stage-synchronous progressive combination over lane windows (the same
  // 8-lane windowing idiom as the trie descents — wider windows would
  // outrun the hardware's outstanding-fill budget): within a window, pass 1
  // hashes every lane's (accumulated, candidate) pairs once and prefetches
  // their probe groups; pass 2 resolves them in the same order with the
  // stored hashes. The per-lane pair traversal order matches the scalar
  // combine exactly, so each lane's match list is bitwise-identical to a
  // scalar query.
  constexpr std::size_t kLanes = 8;
  // Tables at or below this size are cache-resident: probing them directly
  // beats staging keys/hashes and issuing prefetches that can't miss. A slot
  // costs its 16-byte entry plus its tag (stage and final alike), so the
  // 72 KB budget admits tables of up to 4096 slots.
  constexpr std::size_t kResidentBytes = 72 * 1024;
  constexpr std::size_t kResidentSlots = kResidentBytes / (sizeof(StageSlot) + 1);
  static_assert(sizeof(StageSlot) == 16 && sizeof(FinalSlot) == 16);
  // A probe reads its group's tags and one of the group's first few entries
  // (at <= 50% load a key sits near its home slot): prefetch the two lines
  // holding entries 0..7.
  constexpr std::size_t kSlotsPerLine = 64 / sizeof(StageSlot);
  auto& keys = ctx.batch_keys();
  auto& hashes = ctx.batch_hashes();
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const Stage& stage = stages_[s];
    nxt.clear();
    nxt_off.clear();
    nxt_off.push_back(0);
    if (stage.tags.size() <= kResidentSlots) {
      // Fused single pass, same per-lane pair order as the windowed path.
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const LabelList& candidates = ctx.packet_candidates(lane)[s + 1];
        for (std::uint32_t i = cur_off[lane]; i < cur_off[lane + 1]; ++i) {
          const Label accumulated = cur[i];
          for (const Label candidate : candidates) {
            const Label combined =
                probe_stage(stage, pair_key(accumulated, candidate));
            if (combined != kNoLabel) nxt.push_back(combined);
          }
        }
        nxt_off.push_back(static_cast<std::uint32_t>(nxt.size()));
      }
      cur.swap(nxt);
      cur_off.swap(nxt_off);
      continue;
    }
    for (std::size_t base = 0; base < lanes; base += kLanes) {
      const std::size_t window = std::min(kLanes, lanes - base);
      keys.clear();
      hashes.clear();
      for (std::size_t lane = base; lane < base + window; ++lane) {
        const LabelList& candidates = ctx.packet_candidates(lane)[s + 1];
        for (std::uint32_t i = cur_off[lane]; i < cur_off[lane + 1]; ++i) {
          const Label accumulated = cur[i];
          for (const Label candidate : candidates) {
            const PairKey key = pair_key(accumulated, candidate);
            const std::uint64_t hash = mix64(key);
            keys.push_back(key);
            hashes.push_back(hash);
            const std::size_t group = tag_group_of(hash, stage.mask);
            __builtin_prefetch(stage.tags.data() + group);
            __builtin_prefetch(stage.slots.data() + group);
            __builtin_prefetch(stage.slots.data() + group + kSlotsPerLine);
          }
        }
      }
      std::size_t k = 0;
      for (std::size_t lane = base; lane < base + window; ++lane) {
        const std::size_t pairs =
            (cur_off[lane + 1] - cur_off[lane]) *
            ctx.packet_candidates(lane)[s + 1].size();
        for (std::size_t p = 0; p < pairs; ++p, ++k) {
          const std::size_t index = find_pair(stage, keys[k], hashes[k]);
          if (index != SIZE_MAX) nxt.push_back(stage.slots[index].label);
        }
        nxt_off.push_back(static_cast<std::uint32_t>(nxt.size()));
      }
    }
    cur.swap(nxt);
    cur_off.swap(nxt_off);
  }
  // Final stage, same windowing: hash + prefetch the window's final-label
  // slots, then gather the rule lists. Cache-resident final tables skip the
  // staging here too.
  if (final_tags_.size() <= kResidentSlots) {
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      auto& out = ctx.lane_matches(lane);
      for (std::uint32_t i = cur_off[lane]; i < cur_off[lane + 1]; ++i) {
        const std::size_t index = find_final(cur[i], mix64(cur[i]));
        if (index != SIZE_MAX) append_rules(index, out);
      }
    }
    return;
  }
  for (std::size_t base = 0; base < lanes; base += kLanes) {
    const std::size_t window = std::min(kLanes, lanes - base);
    hashes.clear();
    for (std::uint32_t i = cur_off[base]; i < cur_off[base + window]; ++i) {
      const std::uint64_t hash = mix64(cur[i]);
      hashes.push_back(hash);
      const std::size_t group = tag_group_of(hash, final_mask_);
      __builtin_prefetch(final_tags_.data() + group);
      __builtin_prefetch(final_slots_.data() + group);
      __builtin_prefetch(final_slots_.data() + group + kSlotsPerLine);
    }
    std::size_t k = 0;
    for (std::size_t lane = base; lane < base + window; ++lane) {
      auto& out = ctx.lane_matches(lane);
      for (std::uint32_t i = cur_off[lane]; i < cur_off[lane + 1]; ++i, ++k) {
        const std::size_t index = find_final(cur[i], hashes[k]);
        if (index != SIZE_MAX) append_rules(index, out);
      }
    }
  }
}

mem::MemoryReport IndexCalculator::memory_report(const std::string& prefix) const {
  mem::MemoryReport report;
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    // One word per valid pair: two input labels + the combined label.
    const Label issued = stages_[s].next_label;
    const unsigned in_bits = 2 * (issued <= 1 ? 1 : bits_for_max_value(issued));
    const unsigned out_bits = issued <= 1 ? 1 : ceil_log2(issued);
    report.add(prefix + ".stage" + std::to_string(s), stages_[s].live,
               in_bits + out_bits);
  }
  report.add(prefix + ".final", final_live_, 32);
  return report;
}

std::uint64_t IndexCalculator::update_words() const {
  std::uint64_t words = live_rules_;
  for (const Stage& stage : stages_) words += stage.live;
  return words;
}

}  // namespace ofmtl
