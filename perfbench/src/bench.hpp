// Shared vocabulary of the switch benchmark: the clock, the metric sink, and
// order statistics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ns_between(Clock::time_point from,
                                       Clock::time_point to) {
  return std::chrono::duration<double, std::nano>(to - from).count();
}

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of ascending `values`; 0 when
/// empty. Allocation-free, for use inside measured windows.
[[nodiscard]] inline double quantile_sorted(const std::vector<double>& values,
                                            double q) {
  if (values.empty()) return 0.0;
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// quantile_sorted of `values` in any order.
[[nodiscard]] inline double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, q);
}

[[nodiscard]] inline double ratio(double num, double den) {
  return den != 0.0 ? num / den : 0.0;
}

/// Ordered name -> (value, unit) list; the report the binary prints.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void add(std::string name, double value, std::string unit) {
    entries_.push_back({std::move(name), value, std::move(unit)});
  }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

}  // namespace perfbench
