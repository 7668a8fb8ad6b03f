// IndexCalculator: progressive label combination (DCFL-style) — the stage
// that turns per-algorithm labels into flow-entry indices.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "core/index_table.hpp"
#include "workload/rng.hpp"

namespace ofmtl {
namespace {

using Sig = std::vector<Label>;
using workload::Rng;

TEST(IndexCalculator, SingleAlgorithmDegeneratesToDirectMap) {
  IndexCalculator calc(1);
  calc.add_rule(Sig{7}, 0);
  calc.add_rule(Sig{9}, 1);
  std::vector<std::uint32_t> out;
  calc.query({{7}}, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0}));
  out.clear();
  calc.query({{8}}, out);
  EXPECT_TRUE(out.empty());
}

TEST(IndexCalculator, TwoAlgorithmPairs) {
  IndexCalculator calc(2);
  calc.add_rule(Sig{1, 10}, 0);
  calc.add_rule(Sig{1, 11}, 1);
  calc.add_rule(Sig{2, 10}, 2);
  std::vector<std::uint32_t> out;
  calc.query({{1}, {10}}, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0}));
  out.clear();
  calc.query({{2}, {11}}, out);  // valid labels, invalid combination
  EXPECT_TRUE(out.empty());
}

TEST(IndexCalculator, MultipleCandidatesPerAlgorithm) {
  // Mimics LPM: the address algorithm returns nested matches, the wildcard
  // rule and the specific rule must both surface.
  IndexCalculator calc(2);
  calc.add_rule(Sig{0, 5}, 0);   // specific
  calc.add_rule(Sig{0, 3}, 1);   // shorter prefix
  std::vector<std::uint32_t> out;
  calc.query({{0}, {5, 3}}, out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1}));
}

TEST(IndexCalculator, SharedSignatureReturnsAllRules) {
  IndexCalculator calc(2);
  calc.add_rule(Sig{4, 4}, 0);
  calc.add_rule(Sig{4, 4}, 5);  // same match at a different priority
  std::vector<std::uint32_t> out;
  calc.query({{4}, {4}}, out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 5}));
}

TEST(IndexCalculator, FiveAlgorithmChain) {
  IndexCalculator calc(5);
  calc.add_rule(Sig{1, 2, 3, 4, 5}, 0);
  calc.add_rule(Sig{1, 2, 3, 4, 6}, 1);
  calc.add_rule(Sig{9, 2, 3, 4, 5}, 2);
  std::vector<std::uint32_t> out;
  calc.query({{1}, {2}, {3}, {4}, {5, 6}}, out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1}));
  out.clear();
  calc.query({{1, 9}, {2}, {3}, {4}, {5}}, out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 2}));
}

TEST(IndexCalculator, EmptyCandidateListShortCircuits) {
  IndexCalculator calc(3);
  calc.add_rule(Sig{1, 2, 3}, 0);
  std::vector<std::uint32_t> out;
  calc.query({{1}, {}, {3}}, out);
  EXPECT_TRUE(out.empty());
}

TEST(IndexCalculator, ArityMismatchThrows) {
  IndexCalculator calc(2);
  EXPECT_THROW(calc.add_rule(Sig{1}, 0), std::invalid_argument);
  std::vector<std::uint32_t> out;
  EXPECT_THROW(calc.query({{1}}, out), std::invalid_argument);
}

TEST(IndexCalculator, MemoryReportCountsPairs) {
  IndexCalculator calc(2);
  calc.add_rule(Sig{1, 10}, 0);
  calc.add_rule(Sig{1, 11}, 1);
  calc.add_rule(Sig{2, 10}, 2);
  const auto report = calc.memory_report("idx");
  // 3 distinct pairs in stage 0, 3 final labels.
  ASSERT_EQ(report.components().size(), 2U);
  EXPECT_EQ(report.components()[0].words, 3U);
  EXPECT_EQ(report.components()[1].words, 3U);
  EXPECT_EQ(calc.update_words(), 6U);
}

TEST(IndexCalculator, ArityOutsideLimitsThrows) {
  EXPECT_THROW(IndexCalculator(0), std::invalid_argument);
  EXPECT_THROW(IndexCalculator(IndexCalculator::kMaxAlgorithms + 1),
               std::invalid_argument);
  IndexCalculator widest(IndexCalculator::kMaxAlgorithms);
  const Sig signature(IndexCalculator::kMaxAlgorithms, 3);
  widest.add_rule(signature, 0);
  widest.remove_rule(signature, 0);
  EXPECT_EQ(widest.update_words(), 0U);
}

/// Sorted query results, one list per candidate set.
std::vector<std::vector<std::uint32_t>> sorted_results(
    const IndexCalculator& calc,
    const std::vector<std::vector<LabelList>>& queries) {
  std::vector<std::vector<std::uint32_t>> results;
  for (const auto& candidates : queries) {
    std::vector<std::uint32_t> out;
    calc.query(candidates, out);
    std::sort(out.begin(), out.end());
    results.push_back(std::move(out));
  }
  return results;
}

TEST(IndexCalculator, FailedRemoveChangesNothing) {
  IndexCalculator calc(3);
  calc.add_rule(Sig{1, 2, 3}, 0);
  calc.add_rule(Sig{1, 2, 4}, 1);
  calc.add_rule(Sig{1, 2, 4}, 2);
  calc.add_rule(Sig{5, 2, 3}, 3);
  const std::vector<std::vector<LabelList>> queries = {
      {{1}, {2}, {3, 4}}, {{1, 5}, {2}, {3}}, {{5}, {2}, {4}}, {{1}, {2}, {4}}};
  const auto results = sorted_results(calc, queries);
  const auto words = calc.update_words();
  const auto report = calc.memory_report("idx");

  // Unknown first pair, unknown pair mid-path, unknown final rule index,
  // wrong arity: each throws before anything is released.
  EXPECT_THROW(calc.remove_rule(Sig{9, 2, 3}, 0), std::invalid_argument);
  EXPECT_THROW(calc.remove_rule(Sig{1, 2, 9}, 0), std::invalid_argument);
  EXPECT_THROW(calc.remove_rule(Sig{1, 2, 4}, 0), std::invalid_argument);
  EXPECT_THROW(calc.remove_rule(Sig{1, 2}, 0), std::invalid_argument);

  EXPECT_EQ(sorted_results(calc, queries), results);
  EXPECT_EQ(calc.update_words(), words);
  EXPECT_EQ(calc.memory_report("idx").total_bits(), report.total_bits());

  // The calculator is still fully usable: the real removal goes through.
  calc.remove_rule(Sig{1, 2, 4}, 1);
  std::vector<std::uint32_t> out;
  calc.query({{1}, {2}, {4}}, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{2}));
}

/// Randomized add/remove churn checked against a brute-force cover oracle
/// over the live signature multiset. Each arity grows to ~1,500 live rules
/// (the stage and final tables rehash from 16 up to 4,096 slots), then
/// churns 18,000 mutations at that size, so tombstones pile up until a
/// same-capacity purge rehash and abandoned final regions trigger
/// compaction. Every round compares query and query_batch with the oracle
/// and the memory words with a calculator built fresh from the live rules;
/// a copy taken mid-churn must keep answering for its own rule set.
class IndexChurn {
 public:
  struct Rule {
    Sig signature;
    std::uint32_t index;
  };

  IndexChurn(std::size_t algorithms, std::uint64_t seed)
      : algorithms_(algorithms),
        label_space_(algorithms == 1 ? 4000 : 24),
        rng_(seed),
        calc_(algorithms) {}

  void grow(std::size_t target) {
    while (live_.size() < target) add();
  }

  void churn(std::size_t mutations, std::size_t target) {
    for (std::size_t m = 0; m < mutations; ++m) {
      // Hover around `target`: removals get likelier above it.
      const double p_remove = live_.size() > target ? 0.6 : 0.4;
      if (!live_.empty() && rng_.chance(p_remove)) {
        remove();
      } else {
        add();
      }
    }
  }

  void drain() {
    while (!live_.empty()) remove();
  }

  void check(const IndexCalculator& calc, const std::vector<Rule>& live) {
    check_queries(calc, live);
    check_memory(calc, live);
  }

  [[nodiscard]] const IndexCalculator& calc() const { return calc_; }
  [[nodiscard]] const std::vector<Rule>& live() const { return live_; }

 private:
  void add() {
    Sig signature;
    if (!live_.empty() && rng_.chance(0.2)) {
      // Duplicate signature at a different rule index.
      signature = live_[rng_.below(live_.size())].signature;
    } else {
      for (std::size_t a = 0; a < algorithms_; ++a) {
        signature.push_back(static_cast<Label>(rng_.below(label_space_)));
      }
    }
    std::uint32_t index;
    if (free_.empty()) {
      index = next_index_++;
    } else {
      index = free_.back();
      free_.pop_back();
    }
    calc_.add_rule(signature, index);
    live_.push_back({std::move(signature), index});
  }

  void remove() {
    const std::size_t victim = rng_.below(live_.size());
    calc_.remove_rule(live_[victim].signature, live_[victim].index);
    free_.push_back(live_[victim].index);
    live_[victim] = std::move(live_.back());
    live_.pop_back();
  }

  /// One candidate list per algorithm, distinct labels each (repeated
  /// candidates would legitimately repeat results), seeded from a live rule
  /// so most lanes match something.
  std::vector<LabelList> random_candidates(const std::vector<Rule>& live) {
    const Sig* anchor =
        live.empty() ? nullptr : &live[rng_.below(live.size())].signature;
    std::vector<LabelList> candidates(algorithms_);
    for (std::size_t a = 0; a < algorithms_; ++a) {
      LabelList& list = candidates[a];
      if (anchor != nullptr && rng_.chance(0.9)) list.push_back((*anchor)[a]);
      const std::size_t extra = rng_.below(3);
      for (std::size_t e = 0; e < extra; ++e) {
        const auto label = static_cast<Label>(rng_.below(label_space_));
        if (std::find(list.begin(), list.end(), label) == list.end()) {
          list.push_back(label);
        }
      }
    }
    return candidates;
  }

  static std::vector<std::uint32_t> oracle(
      const std::vector<Rule>& live, const std::vector<LabelList>& candidates) {
    std::vector<std::uint32_t> out;
    for (const Rule& rule : live) {
      bool covered = true;
      for (std::size_t a = 0; a < candidates.size() && covered; ++a) {
        covered = std::find(candidates[a].begin(), candidates[a].end(),
                            rule.signature[a]) != candidates[a].end();
      }
      if (covered) out.push_back(rule.index);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  void check_queries(const IndexCalculator& calc, const std::vector<Rule>& live) {
    constexpr std::size_t kLanes = 45;  // not a lane-window multiple
    SearchContext ctx;
    ctx.begin(kLanes, algorithms_);
    std::vector<std::vector<std::uint32_t>> expected;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      const auto candidates = random_candidates(live);
      for (std::size_t a = 0; a < algorithms_; ++a) {
        ctx.slot(lane, a) = candidates[a];
      }
      std::vector<std::uint32_t> scalar;
      calc.query(candidates, scalar);
      std::sort(scalar.begin(), scalar.end());
      expected.push_back(oracle(live, candidates));
      ASSERT_EQ(scalar, expected.back())
          << "algorithms=" << algorithms_ << " lane=" << lane;
    }
    calc.query_batch(ctx);
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      auto batch = ctx.lane_matches(lane);
      std::sort(batch.begin(), batch.end());
      ASSERT_EQ(batch, expected[lane])
          << "algorithms=" << algorithms_ << " lane=" << lane;
    }
  }

  /// Word counts must equal a fresh build's. Word widths may not: they
  /// follow the labels a stage has ever issued, which churn only raises.
  void check_memory(const IndexCalculator& calc, const std::vector<Rule>& live) {
    IndexCalculator fresh(algorithms_);
    for (const Rule& rule : live) fresh.add_rule(rule.signature, rule.index);
    EXPECT_EQ(calc.update_words(), fresh.update_words());
    const auto got = calc.memory_report("idx").components();
    const auto want = fresh.memory_report("idx").components();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t c = 0; c < got.size(); ++c) {
      EXPECT_EQ(got[c].name, want[c].name);
      EXPECT_EQ(got[c].words, want[c].words) << got[c].name;
    }
  }

  std::size_t algorithms_;
  std::uint64_t label_space_;
  Rng rng_;
  IndexCalculator calc_;
  std::vector<Rule> live_;
  std::vector<std::uint32_t> free_;
  std::uint32_t next_index_ = 0;
};

TEST(IndexCalculator, ChurnMatchesCoverOracle) {
  constexpr std::size_t kTarget = 1500;
  for (std::size_t algorithms = 1; algorithms <= 7; ++algorithms) {
    SCOPED_TRACE(algorithms);
    IndexChurn churn(algorithms, 1000 + algorithms);
    churn.grow(kTarget);
    churn.check(churn.calc(), churn.live());
    std::optional<IndexCalculator> copy;
    std::vector<IndexChurn::Rule> copy_live;
    for (int round = 0; round < 6; ++round) {
      churn.churn(3000, kTarget);
      churn.check(churn.calc(), churn.live());
      if (round == 2) {
        copy = churn.calc();
        copy_live = churn.live();
      }
    }
    // The copy still answers for its own rules after the original's later
    // churn — and after the original drains to empty.
    churn.check(*copy, copy_live);
    churn.drain();
    EXPECT_EQ(churn.calc().update_words(), 0U);
    churn.check(churn.calc(), churn.live());
    churn.check(*copy, copy_live);
  }
}

}  // namespace
}  // namespace ofmtl
