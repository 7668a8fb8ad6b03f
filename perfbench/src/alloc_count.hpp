// Allocation counting of the benchmark binary (see alloc_count.cpp).
#pragma once

#include <cstdint>

namespace perfbench {

/// operator new calls so far on threads not marked as control plane.
[[nodiscard]] std::uint64_t data_plane_allocations();

/// Exclude the calling thread's allocations from data_plane_allocations().
void mark_control_thread();

}  // namespace perfbench
