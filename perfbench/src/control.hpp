// The control plane of the acl_churn workload: an OfpServer on loopback TCP
// whose sink publishes each flow-mod batch through ParallelRuntime::update
// with server::apply_mods (the two calls make_classifier_sink makes, here
// timed), and one scripted controller thread that pushes barrier-fenced
// batches which alternately add and delete the same churn rules.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "ofp/messages.hpp"
#include "ofp/server/server.hpp"
#include "ofp/testing/fault_injection.hpp"
#include "runtime/runtime.hpp"

namespace perfbench {

/// Counters and samples of one churn run.
struct ChurnReport {
  std::uint64_t rounds = 0;        ///< barrier-fenced batches completed
  std::uint64_t mods_sent = 0;
  std::uint64_t mods_failed = 0;   ///< ERROR replies or admission rejects
  /// (round, xid) of every mod answered with ERROR: those were not applied.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> rejected;
  double seconds = 0.0;            ///< controller wall time
  std::vector<double> rtt_us;      ///< per batch: first send -> barrier reply
  double rtt_ns_total = 0.0;
  // sink side (server loop thread)
  std::uint64_t sink_calls = 0;
  std::uint64_t sink_mods = 0;
  std::uint64_t sink_errors = 0;   ///< mods apply_mods answered with an error
  double sink_ns_total = 0.0;
  std::vector<double> publish_us;  ///< per sink call
  bool transport_ok = true;
};

class ChurnPlane {
 public:
  /// `rules` are the churn rules (table 0).
  ChurnPlane(ofmtl::runtime::ParallelRuntime& rt,
             std::span<const ofmtl::FlowEntry> rules);
  ~ChurnPlane();

  ChurnPlane(const ChurnPlane&) = delete;
  ChurnPlane& operator=(const ChurnPlane&) = delete;

  /// Server start plus controller connect, HELLO handshake and master role
  /// claim (part of the workload's set-up). False when any fails.
  [[nodiscard]] bool connect();

  /// Start the controller thread.
  void begin();
  /// Stop the controller once an add round completes, so the table holds
  /// the churn rules and comparing it with a replay shows lost adds, then
  /// stop the server.
  void finish();

  [[nodiscard]] const ChurnReport& report() const { return report_; }

  /// The mod batch of round `round` (even: add every rule, odd: delete)
  /// with the xid each mod was sent under.
  [[nodiscard]] const std::vector<ofmtl::ofp::server::PendingFlowMod>& batch(
      std::uint64_t round) const {
    return round % 2 == 0 ? adds_ : deletes_;
  }
  /// The encoded frames of every batch (what try_decode sees).
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> encoded_frames() const;

 private:
  void controller_loop();
  /// Echo barrier: true once every frame sent before it was processed.
  /// ERROR replies met on the way are recorded against `round`.
  bool fence(std::uint64_t round);

  ofmtl::runtime::ParallelRuntime& rt_;
  std::vector<ofmtl::ofp::server::PendingFlowMod> adds_;
  std::vector<ofmtl::ofp::server::PendingFlowMod> deletes_;
  std::vector<std::vector<std::uint8_t>> add_frames_;
  std::vector<std::vector<std::uint8_t>> delete_frames_;
  ChurnReport report_;
  std::unique_ptr<ofmtl::ofp::server::OfpServer> server_;
  ofmtl::ofp::testing::ScriptedController controller_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // declared last: uses every member above
};

}  // namespace perfbench
