#include "flow/flow_table.hpp"

#include <algorithm>
#include <numeric>

namespace ofmtl {

void FlowTable::insert(FlowEntry entry) {
  // First position with strictly lower priority keeps insertion stable among
  // equal-priority entries.
  const auto pos = std::find_if(entries_.begin(), entries_.end(),
                                [&entry](const FlowEntry& existing) {
                                  return existing.priority < entry.priority;
                                });
  entries_.insert(pos, std::move(entry));
}

void FlowTable::replace(std::vector<FlowEntry> entries) {
  // Sort an index permutation, then move each (large) entry exactly once,
  // instead of letting a sort merge-move whole entries log(n) times. The
  // index tie-break keeps equal priorities in input order: stable_sort's
  // order without its temporary buffer, which comes from the nothrow
  // operator new that allocation-counting test harnesses leave unreplaced.
  std::vector<std::uint32_t> order(entries.size());
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  std::sort(order.begin(), order.end(),
            [&entries](std::uint32_t a, std::uint32_t b) {
              const auto pa = entries[a].priority, pb = entries[b].priority;
              return pa != pb ? pa > pb : a < b;
            });
  entries_.clear();
  entries_.reserve(entries.size());
  for (const auto i : order) entries_.push_back(std::move(entries[i]));
}

bool FlowTable::remove(FlowEntryId id) {
  const auto pos = std::find_if(entries_.begin(), entries_.end(),
                                [id](const FlowEntry& e) { return e.id == id; });
  if (pos == entries_.end()) return false;
  entries_.erase(pos);
  return true;
}

const FlowEntry* FlowTable::lookup(const PacketHeader& header) const {
  for (const auto& entry : entries_) {
    if (entry.match.matches(header)) return &entry;
  }
  return nullptr;
}

}  // namespace ofmtl
