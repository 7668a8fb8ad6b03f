// FlowModSink adapters: where a session's decoded flow-mod batches land.
//
// The production sink funnels each batch through the left-right
// SnapshotClassifier as ONE coalesced update() — one publish (two O(delta)
// side-applies) per batch, not per mod — so sustained control churn from
// many controllers costs the data path at most one epoch bump per batch and
// readers stay wait-free throughout (the publisher never blocks them; see
// docs/ARCHITECTURE.md "Left-right snapshot publish"). The model sink wraps
// a SwitchModel for single-threaded agent-style serving and for the soak
// oracle.
//
// Both sinks validate before mutating and report per-mod ErrorCodes instead
// of throwing: a controller's bad mod earns an ERROR reply, never an
// exception across the event loop.
#pragma once

#include <mutex>

#include "core/switch_model.hpp"
#include "ofp/server/session.hpp"
#include "runtime/snapshot.hpp"

namespace ofmtl::ofp::server {

/// Sink over the left-right publisher. `classifier` must outlive the server.
/// Thread-safe: the classifier serializes writers internally.
[[nodiscard]] FlowModSink make_classifier_sink(
    runtime::SnapshotClassifier& classifier);

/// Sink over a SwitchModel (reference + decomposed pipeline + stats), with
/// an external mutex when several server threads share the model. `model`
/// and `mutex` must outlive the server.
[[nodiscard]] FlowModSink make_model_sink(SwitchModel& model,
                                          std::mutex& mutex);

/// Validate-and-apply one batch against a bare MultiTableLookup — the
/// shared core of the classifier sink and of oracle construction in tests
/// and the soak tool. `results` must be mods.size() long; mods failing
/// validation are skipped (kDuplicateEntry / kUnknownEntry, kBadValue for an
/// unknown table or a Set-Field value wider than its field, or kBadMatch for
/// a match the target table cannot store), the rest apply in
/// order. Deterministic: same tables + same batch == same results and same
/// final state.
void apply_mods(MultiTableLookup& tables,
                std::span<const PendingFlowMod> mods,
                std::span<ErrorCode> results);

}  // namespace ofmtl::ofp::server
