#include "core/multibit_trie.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <type_traits>

namespace ofmtl {

namespace {

static_assert(std::is_same_v<Label, std::uint32_t>,
              "label rows store labels in 32-bit words");

/// Row header: bit b (b <= 24, the widest stride) marks a covering prefix
/// with b bits in the level; the label count sits above kCountShift. The
/// count is stored rather than popcounted because queries read it per
/// visited level, and the build targets no hardware popcount.
constexpr unsigned kCountShift = 27;
constexpr std::uint32_t kBitsMask = (std::uint32_t{1} << kCountShift) - 1;

/// Queries copy rows in fixed chunks of this many labels and trim the
/// output afterwards, so every level array carries kChunk - 1 spare words
/// past its last row and outputs are sized with kChunk spare slots.
constexpr std::size_t kChunk = 8;

/// Deepest descent: strides are >= 1 bit and keys <= 64 bits.
constexpr std::size_t kMaxLevels = 64;

[[nodiscard]] bool row_has(const std::uint32_t* row, unsigned bits) {
  return (row[0] >> bits & 1U) != 0;
}

/// Store `label` for the covering prefix with `bits` bits here, keeping the
/// labels longest first. Returns whether the row's head (the entry label
/// the paper's model counts writes of) changed.
bool row_store(std::uint32_t* row, unsigned bits, Label label) {
  const std::uint32_t mask = row[0] & kBitsMask;
  const std::uint32_t count = row[0] >> kCountShift;
  const auto pos = static_cast<std::size_t>(std::popcount(mask >> bits >> 1));
  Label* const labels = row + 1;
  if (row_has(row, bits)) {
    const bool head_changed = pos == 0 && labels[0] != label;
    labels[pos] = label;
    return head_changed;
  }
  std::copy_backward(labels + pos, labels + count, labels + count + 1);
  labels[pos] = label;
  row[0] = (mask | std::uint32_t{1} << bits) | (count + 1) << kCountShift;
  return pos == 0;
}

/// Drop the covering prefix with `bits` bits here; the next-longest label
/// moves up. Returns whether the row's head changed.
bool row_erase(std::uint32_t* row, unsigned bits) {
  const std::uint32_t mask = row[0] & kBitsMask;
  const std::uint32_t count = row[0] >> kCountShift;
  const auto pos = static_cast<std::size_t>(std::popcount(mask >> bits >> 1));
  Label* const labels = row + 1;
  std::copy(labels + pos + 1, labels + count, labels + pos);
  labels[count - 1] = 0;
  row[0] = (mask & ~(std::uint32_t{1} << bits)) | (count - 1) << kCountShift;
  return pos == 0;
}

/// Copy the label rows of a descent path, deepest (`path[depth - 1]`)
/// first, into `out`.
void emit_rows(const std::uint32_t* const* path, std::size_t depth,
               std::vector<Label>& out) {
  // Each level's labels are longer than any shallower level's, so
  // concatenating rows deepest first keeps the whole list longest first.
  // Fixed-size chunk copies may run past a row (into the level array's
  // padding) and past the list (into kChunk spare output slots); the final
  // resize trims what they carried along.
  std::size_t total = 0;
  for (std::size_t d = 0; d < depth; ++d) total += path[d][0] >> kCountShift;
  // Power-of-two capacity, as detail::reserve_for_append gives appends: a
  // reused slot then stops growing after a few distinct list lengths.
  if (out.capacity() < total + kChunk) {
    out.reserve(std::bit_ceil(total + kChunk));
  }
  out.resize(total + kChunk);
  Label* dst = out.data();
  for (std::size_t d = depth; d-- > 0;) {
    const std::uint32_t* row = path[d];
    const std::uint32_t count = row[0] >> kCountShift;
    std::size_t k = 0;
    do {
      std::memcpy(dst + k, row + 1 + k, kChunk * sizeof(Label));
      k += kChunk;
    } while (k < count);
    dst += count;
  }
  out.resize(total);
}

}  // namespace

std::string_view to_string(TrieStorage policy) {
  switch (policy) {
    case TrieStorage::kSparse: return "sparse";
    case TrieStorage::kArrayBlock: return "array-block";
  }
  throw std::logic_error("unknown TrieStorage");
}

std::vector<unsigned> default_strides16() { return {5, 5, 6}; }

MultibitTrie::MultibitTrie(unsigned width, std::vector<unsigned> strides)
    : width_(width), strides_(std::move(strides)) {
  if (width == 0 || width > 64) throw std::invalid_argument("bad trie width");
  const unsigned total = std::accumulate(strides_.begin(), strides_.end(), 0U);
  if (strides_.empty() || total != width_) {
    throw std::invalid_argument("strides must sum to key width");
  }
  for (const unsigned s : strides_) {
    if (s == 0 || s > 24) throw std::invalid_argument("stride out of range");
  }
  levels_.resize(strides_.size());
  unsigned cum = 0;
  for (std::size_t i = 0; i < strides_.size(); ++i) {
    levels_[i].stride = strides_[i];
    levels_[i].cum_before = cum;
    levels_[i].row_words = strides_[i] + 2;
    cum += strides_[i];
  }
  allocate_block(0);  // root block always exists
}

std::int32_t MultibitTrie::allocate_block(std::size_t level_index) {
  Level& level = levels_[level_index];
  const std::size_t entries = (level.blocks + 1) << level.stride;
  if (level_index + 1 < levels_.size()) level.child.resize(entries, -1);
  // The padding words are never written, so they read back as zero rows.
  level.rows.resize(entries * level.row_words + kChunk - 1, 0);
  return static_cast<std::int32_t>(level.blocks++);
}

void MultibitTrie::check_prefix(const Prefix& prefix) const {
  if (prefix.width() != width_) {
    throw std::invalid_argument("prefix width mismatch");
  }
}

MultibitTrie::Fan MultibitTrie::fan_of(const Level& level, std::size_t block,
                                       const Prefix& prefix) {
  // Controlled prefix expansion over the stride bits the prefix leaves free.
  const unsigned bits = prefix.length() - level.cum_before;
  const std::uint64_t base =
      bits == 0 ? 0
                : prefix.slice(level.cum_before, bits) << (level.stride - bits);
  return {block * (std::size_t{1} << level.stride) + base,
          std::size_t{1} << (level.stride - bits), bits};
}

void MultibitTrie::insert(const Prefix& prefix, Label label) {
  check_prefix(prefix);
  std::size_t block = 0;
  for (std::size_t li = 0; li < levels_.size(); ++li) {
    Level& level = levels_[li];
    if (prefix.length() > level.cum_before + level.stride) {
      // Descend: this level's chunk is fully specified by the prefix.
      const std::size_t index = entry_index(
          level, block, prefix.slice(level.cum_before, level.stride));
      if (level.child[index] < 0) {
        level.child[index] = allocate_block(li + 1);
        ++writes_;  // pointer store
      }
      block = static_cast<std::size_t>(level.child[index]);
      continue;
    }
    const Fan fan = fan_of(level, block, prefix);
    if (!row_has(&level.rows[fan.first * level.row_words], fan.bits)) {
      ++prefixes_;
    }
    for (std::size_t j = 0; j < fan.count; ++j) {
      if (row_store(&level.rows[(fan.first + j) * level.row_words], fan.bits,
                    label)) {
        ++writes_;
      }
    }
    return;
  }
  throw std::logic_error("prefix length exceeded stride coverage");
}

std::uint64_t MultibitTrie::insert_cost(const Prefix& prefix) const {
  check_prefix(prefix);
  std::uint64_t cost = 0;
  std::size_t block = 0;
  for (std::size_t li = 0; li < levels_.size(); ++li) {
    const Level& level = levels_[li];
    const unsigned cum_after = level.cum_before + level.stride;
    if (prefix.length() > cum_after) {
      const std::uint64_t chunk = prefix.slice(level.cum_before, level.stride);
      const std::size_t index = entry_index(level, block, chunk);
      if (level.child[index] < 0) {
        // A fresh insert would write this pointer, one pointer per new block
        // below, and the expansion fan at the level the prefix ends in.
        cost += 1;
        unsigned cum = cum_after;
        for (std::size_t lj = li + 1; lj < levels_.size(); ++lj) {
          const unsigned s = levels_[lj].stride;
          if (prefix.length() > cum + s) {
            cost += 1;
            cum += s;
            continue;
          }
          cost += std::uint64_t{1} << (s - (prefix.length() - cum));
          return cost;
        }
        return cost;
      }
      block = static_cast<std::size_t>(level.child[index]);
      continue;
    }
    const unsigned bits_here = prefix.length() - level.cum_before;
    cost += std::uint64_t{1} << (level.stride - bits_here);
    return cost;
  }
  return cost;
}

bool MultibitTrie::remove(const Prefix& prefix) {
  check_prefix(prefix);
  std::size_t block = 0;
  for (Level& level : levels_) {
    if (prefix.length() > level.cum_before + level.stride) {
      const std::int32_t child = level.child[entry_index(
          level, block, prefix.slice(level.cum_before, level.stride))];
      if (child < 0) return false;
      block = static_cast<std::size_t>(child);
      continue;
    }
    const Fan fan = fan_of(level, block, prefix);
    if (!row_has(&level.rows[fan.first * level.row_words], fan.bits)) {
      return false;
    }
    for (std::size_t j = 0; j < fan.count; ++j) {
      if (row_erase(&level.rows[(fan.first + j) * level.row_words],
                    fan.bits)) {
        ++writes_;
      }
    }
    --prefixes_;
    return true;
  }
  return false;
}

std::optional<Label> MultibitTrie::lookup(std::uint64_t key) const {
  std::optional<Label> best;
  std::size_t block = 0;
  for (std::size_t li = 0; li < levels_.size(); ++li) {
    const Level& level = levels_[li];
    const std::size_t index = key_entry(level, block, key);
    const std::uint32_t* row = &level.rows[index * level.row_words];
    if (row[0] != 0) best = row[1];
    if (li + 1 == levels_.size() || level.child[index] < 0) break;
    block = static_cast<std::size_t>(level.child[index]);
  }
  return best;
}

void MultibitTrie::lookup_all(std::uint64_t key, std::vector<Label>& out) const {
  const std::uint32_t* path[kMaxLevels];  // [0, depth) set before use
  std::size_t depth = 0;
  std::size_t block = 0;
  for (const Level& level : levels_) {
    const std::size_t index = key_entry(level, block, key);
    path[depth++] = &level.rows[index * level.row_words];
    if (depth == levels_.size() || level.child[index] < 0) break;
    block = static_cast<std::size_t>(level.child[index]);
  }
  emit_rows(path, depth, out);
}

void MultibitTrie::lookup_all_batch(std::span<const std::uint64_t> keys,
                                    std::span<LabelList* const> outs) const {
  if (outs.size() < keys.size()) {
    throw std::invalid_argument("lookup_all_batch: outs span too small");
  }
  constexpr std::size_t kLanes = 8;  // keys descended in lock-step per window
  for (std::size_t base = 0; base < keys.size(); base += kLanes) {
    const std::size_t lanes = std::min(kLanes, keys.size() - base);
    // path[lane][0, depth[lane]) is written before it is read; the rest
    // stays unset, since clearing 4 KB per window would cost more than the
    // window's lookups.
    const std::uint32_t* path[kLanes][kMaxLevels];
    std::size_t depth[kLanes] = {};
    std::size_t block[kLanes] = {};
    std::size_t index[kLanes] = {};
    // Level-synchronous descent: compute and prefetch every live lane's
    // entry for this level before any lane reads it, hiding the dependent-
    // load latency one key at a time cannot. Bit i of `live`: lane i has a
    // child block to descend into.
    unsigned live = (1U << lanes) - 1;
    for (std::size_t li = 0; live != 0; ++li) {
      const Level& level = levels_[li];
      const bool last = li + 1 == levels_.size();
      for (unsigned m = live; m != 0; m &= m - 1) {
        const auto lane = static_cast<std::size_t>(std::countr_zero(m));
        index[lane] = key_entry(level, block[lane], keys[base + lane]);
        path[lane][li] = &level.rows[index[lane] * level.row_words];
        depth[lane] = li + 1;
        __builtin_prefetch(path[lane][li]);
        if (!last) __builtin_prefetch(&level.child[index[lane]]);
      }
      if (last) break;
      for (unsigned m = live; m != 0; m &= m - 1) {
        const auto lane = static_cast<std::size_t>(std::countr_zero(m));
        const std::int32_t child = level.child[index[lane]];
        if (child < 0) {
          live &= ~(1U << lane);
        } else {
          block[lane] = static_cast<std::size_t>(child);
        }
      }
    }
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      emit_rows(path[lane], depth[lane], *outs[base + lane]);
    }
  }
}

TrieLevelStats MultibitTrie::level_stats(std::size_t level_index) const {
  const Level& level = levels_.at(level_index);
  TrieLevelStats stats;
  stats.blocks = level.blocks;
  stats.allocated_entries = level.blocks << level.stride;
  for (std::size_t e = 0; e < stats.allocated_entries; ++e) {
    const bool labelled = level.rows[e * level.row_words] != 0;
    if (labelled || (!level.child.empty() && level.child[e] >= 0)) {
      ++stats.stored_nodes;
    }
    if (labelled) ++stats.labelled_nodes;
  }
  return stats;
}

std::size_t MultibitTrie::stored_nodes(std::size_t level,
                                       TrieStorage policy) const {
  const auto stats = level_stats(level);
  return policy == TrieStorage::kSparse ? stats.stored_nodes
                                        : stats.allocated_entries;
}

std::size_t MultibitTrie::stored_nodes(TrieStorage policy) const {
  std::size_t total = 0;
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    total += stored_nodes(level, policy);
  }
  return total;
}

std::vector<TrieNodeLayout> MultibitTrie::layouts(
    unsigned label_bits, std::size_t pointer_capacity_blocks) const {
  std::vector<TrieNodeLayout> result(levels_.size());
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    TrieNodeLayout& layout = result[i];
    layout.label_bits = label_bits;
    layout.flag_bits = 1;
    if (i + 1 < levels_.size()) {
      const std::size_t capacity =
          pointer_capacity_blocks != 0
              ? pointer_capacity_blocks
              : std::max<std::size_t>(levels_[i + 1].blocks, 1);
      // +1 reserves a null-pointer encoding.
      layout.pointer_bits = std::max(1U, ceil_log2(capacity + 1));
    }
  }
  return result;
}

std::uint64_t MultibitTrie::level_bits(std::size_t level, TrieStorage policy,
                                       unsigned label_bits) const {
  const auto layout = layouts(label_bits)[level];
  return stored_nodes(level, policy) *
         static_cast<std::uint64_t>(layout.node_bits());
}

std::uint64_t MultibitTrie::total_bits(TrieStorage policy,
                                       unsigned label_bits) const {
  std::uint64_t total = 0;
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    total += level_bits(level, policy, label_bits);
  }
  return total;
}

mem::MemoryReport MultibitTrie::memory_report(const std::string& name,
                                              TrieStorage policy,
                                              unsigned label_bits) const {
  mem::MemoryReport report;
  const auto layout = layouts(label_bits);
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    report.add(name + ".L" + std::to_string(level + 1),
               stored_nodes(level, policy), layout[level].node_bits());
  }
  return report;
}

std::vector<TrieNodeLayout> uniform_layouts(
    const std::vector<const MultibitTrie*>& tries, unsigned label_bits) {
  if (tries.empty()) return {};
  std::vector<TrieNodeLayout> worst = tries.front()->layouts(label_bits);
  for (const MultibitTrie* trie : tries) {
    const auto layouts_i = trie->layouts(label_bits);
    if (layouts_i.size() != worst.size()) {
      throw std::invalid_argument("uniform_layouts: level-count mismatch");
    }
    for (std::size_t level = 0; level < worst.size(); ++level) {
      worst[level].pointer_bits =
          std::max(worst[level].pointer_bits, layouts_i[level].pointer_bits);
      worst[level].label_bits =
          std::max(worst[level].label_bits, layouts_i[level].label_bits);
    }
  }
  return worst;
}

}  // namespace ofmtl
