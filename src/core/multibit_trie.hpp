// Multi-bit trie (MBT) with the label method — the paper's LPM structure
// (Section IV.B). A 16-bit field partition is searched over a configurable
// stride vector (default 3 levels, per the authors' ICC'14 stride study);
// each level lives in its own memory block and pipeline stage (Section V.A).
//
// Node data is exactly what the paper costs out: child pointer + label +
// flag bit, with a different pointer width per level ("each level node
// requires different child pointer sizes"). The entry blocks are also the
// trie's only store: each entry's label is the head of a row that lists
// every stored prefix ending in its level that covers it, so insert, remove
// and every query work on the blocks alone.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/label.hpp"
#include "core/search_context.hpp"
#include "mem/memory_model.hpp"
#include "net/prefix.hpp"

namespace ofmtl {

/// How allocated-but-empty child-block slots are charged.
enum class TrieStorage : std::uint8_t {
  kSparse,      ///< count only non-empty entries (label or child present)
  kArrayBlock,  ///< count every slot of every allocated block
};

[[nodiscard]] std::string_view to_string(TrieStorage policy);

/// Per-level statistics of a built trie.
struct TrieLevelStats {
  std::size_t blocks = 0;            ///< allocated child blocks
  std::size_t allocated_entries = 0; ///< blocks * 2^stride
  std::size_t stored_nodes = 0;      ///< non-empty entries (label or child)
  std::size_t labelled_nodes = 0;    ///< entries with the flag bit set
};

/// Bit layout of one node at one level.
struct TrieNodeLayout {
  unsigned pointer_bits = 0;
  unsigned label_bits = 0;
  unsigned flag_bits = 1;
  [[nodiscard]] unsigned node_bits() const {
    return pointer_bits + label_bits + flag_bits;
  }
};

/// The default 3-level distribution over a 16-bit partition. L1 stride 5
/// matches the paper's observation that L1 never exceeds 32 stored nodes.
[[nodiscard]] std::vector<unsigned> default_strides16();

class MultibitTrie {
 public:
  /// `width` = key width in bits (<= 64); `strides` must sum to `width`.
  MultibitTrie(unsigned width, std::vector<unsigned> strides);

  /// Convenience: 16-bit partition trie with the default 5/5/6 strides.
  [[nodiscard]] static MultibitTrie partition16() {
    return MultibitTrie{16, default_strides16()};
  }

  /// Insert (or re-insert) a prefix with a label. Re-inserting an existing
  /// prefix with the same label changes nothing. Touches only the prefix's
  /// expansion fan (plus any child blocks on its path).
  void insert(const Prefix& prefix, Label label);

  /// Remove a prefix; covered entries fall back to the next-longest stored
  /// prefix. Returns whether the prefix was present.
  bool remove(const Prefix& prefix);

  /// Longest-prefix match.
  [[nodiscard]] std::optional<Label> lookup(std::uint64_t key) const;

  /// Labels of all stored prefixes matching `key`, longest first (the label
  /// set the index-calculation stage consumes): the label rows of the
  /// entries on the key's path, deepest level first.
  void lookup_all(std::uint64_t key, std::vector<Label>& out) const;

  /// Batched lookup_all: level-synchronous descent across an 8-key window
  /// with software prefetch of each level's entries, then one row copy per
  /// visited level. `outs[i]` receives key i's candidate list.
  void lookup_all_batch(std::span<const std::uint64_t> keys,
                        std::span<LabelList* const> outs) const;

  [[nodiscard]] unsigned width() const { return width_; }
  [[nodiscard]] const std::vector<unsigned>& strides() const { return strides_; }
  [[nodiscard]] std::size_t level_count() const { return strides_.size(); }
  [[nodiscard]] std::size_t prefix_count() const { return prefixes_; }

  /// --- memory-cost surface (Figs. 2, 3, 4) ---
  [[nodiscard]] TrieLevelStats level_stats(std::size_t level) const;
  [[nodiscard]] std::size_t stored_nodes(TrieStorage policy) const;
  [[nodiscard]] std::size_t stored_nodes(std::size_t level, TrieStorage policy) const;

  /// Node layout per level. `label_bits` covers the label space shared by
  /// this trie's encoder (callers may pass a worst-case shared width);
  /// pointers address child blocks of the next level, sized by
  /// `pointer_capacity_blocks` if nonzero, else by the as-built block count.
  [[nodiscard]] std::vector<TrieNodeLayout> layouts(
      unsigned label_bits, std::size_t pointer_capacity_blocks = 0) const;

  [[nodiscard]] std::uint64_t level_bits(std::size_t level, TrieStorage policy,
                                         unsigned label_bits) const;
  [[nodiscard]] std::uint64_t total_bits(TrieStorage policy,
                                         unsigned label_bits) const;
  [[nodiscard]] mem::MemoryReport memory_report(const std::string& name,
                                                TrieStorage policy,
                                                unsigned label_bits) const;

  /// --- update-cost surface (Fig. 5) ---
  /// Entry writes performed since construction (pointer stores, and every
  /// change of an entry's label, i.e. of its row head). Each write is one
  /// update word = 2 cycles.
  [[nodiscard]] std::uint64_t write_count() const { return writes_; }

  /// Writes that inserting `prefix` would perform *right now* (without
  /// mutating): used to cost label-less (per-rule, duplicated) updates.
  [[nodiscard]] std::uint64_t insert_cost(const Prefix& prefix) const;

 private:
  /// One level's memory block. Entry e of block k sits at k * 2^stride + c
  /// for chunk c and owns child[e] (the next level's block, -1 when none;
  /// the last level has no child array) and one fixed-width label row at
  /// rows[e * row_words]. A row is a header word, then up to stride + 1
  /// labels, longest first: bit b of the header's low bits says a stored
  /// prefix ending in this level with b bits here covers the entry, and the
  /// header's high bits hold the label count. The first label is the
  /// paper's entry label (flag = count > 0).
  struct Level {
    unsigned stride = 0;
    unsigned cum_before = 0;   // bits consumed before this level
    std::size_t row_words = 0; // stride + 2
    std::vector<std::int32_t> child;
    std::vector<std::uint32_t> rows;  // blocks * 2^stride rows + copy padding
    std::size_t blocks = 0;
  };

  /// The entries a prefix ending in a level expands to: `count` entries from
  /// `first`, each covered with `bits` prefix bits in that level.
  struct Fan {
    std::size_t first = 0;
    std::size_t count = 0;
    unsigned bits = 0;
  };

  [[nodiscard]] std::size_t entry_index(const Level& level, std::size_t block,
                                        std::uint64_t chunk) const {
    return block * (std::size_t{1} << level.stride) + chunk;
  }
  [[nodiscard]] std::size_t key_entry(const Level& level, std::size_t block,
                                      std::uint64_t key) const {
    return entry_index(
        level, block,
        (key >> (width_ - level.cum_before - level.stride)) &
            low_mask(level.stride));
  }
  [[nodiscard]] static Fan fan_of(const Level& level, std::size_t block,
                                  const Prefix& prefix);
  std::int32_t allocate_block(std::size_t level_index);
  void check_prefix(const Prefix& prefix) const;

  unsigned width_;
  std::vector<unsigned> strides_;
  std::vector<Level> levels_;
  std::size_t prefixes_ = 0;
  std::uint64_t writes_ = 0;
};

/// Worst-case-shared node layouts across several tries (the paper sizes
/// pointer fields "determined by the worst case (lower trie)").
[[nodiscard]] std::vector<TrieNodeLayout> uniform_layouts(
    const std::vector<const MultibitTrie*>& tries, unsigned label_bits);

}  // namespace ofmtl
