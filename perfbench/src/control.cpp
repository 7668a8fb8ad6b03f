#include "control.hpp"

#include <algorithm>
#include <variant>

#include "alloc_count.hpp"
#include "bench.hpp"
#include "ofp/server/flow_mod_sink.hpp"

namespace perfbench {

using namespace ofmtl;

namespace {

/// Batches the controller starts per second: an add round then a delete
/// round, each one coalesced publish (a late round starts late). With the 64
/// churn rules of a batch this offers 640 flow-mods/s, under 1 % of the 87k
/// to 112k flow-mods/s bench_ofp_server sustained for the same server on the
/// 4-vCPU Xeon VM the benchmark was calibrated on. The rate is a choice, not
/// a published churn rate. Each publish voids the flow cache and slows the
/// batches that follow it. Over ten seeds on that VM, at 100 rounds/s
/// capacity spread (IQR/median) 0.26 and 0.36 between runs; at 25 rounds/s
/// the paced p95 sat on the edge of the post-publish tail and split between
/// about 300 and 650-1,165 us across runs; at 10 rounds/s it stayed within
/// 169-272 us over two series.
constexpr double kRoundsPerSecond = 10.0;
constexpr std::size_t kSampleCap = 1 << 16;

ofp::server::PendingFlowMod make_mod(std::uint32_t xid, const FlowEntry& rule,
                                     FlowModCommand command) {
  ofp::server::PendingFlowMod pending;
  pending.xid = xid;
  pending.mod.command = command;
  pending.mod.table_id = 0;
  pending.mod.entry = rule;
  return pending;
}

}  // namespace

ChurnPlane::ChurnPlane(runtime::ParallelRuntime& rt,
                       std::span<const FlowEntry> rules)
    : rt_(rt) {
  // Clear of the barrier xids, which count up from 1.
  std::uint32_t xid = 1u << 30;
  for (const auto& rule : rules) {
    adds_.push_back(make_mod(xid++, rule, FlowModCommand::kAdd));
    deletes_.push_back(make_mod(xid++, rule, FlowModCommand::kDelete));
    add_frames_.push_back(ofp::encode({adds_.back().xid, adds_.back().mod}));
    delete_frames_.push_back(
        ofp::encode({deletes_.back().xid, deletes_.back().mod}));
  }
  report_.rtt_us.reserve(kSampleCap);
  report_.publish_us.reserve(kSampleCap);
}

ChurnPlane::~ChurnPlane() { finish(); }

bool ChurnPlane::connect() {
  ofp::server::ServerConfig config;
  config.session.echo_interval_ms = 60'000;
  // The production sink's two calls, timed: one coalesced left-right
  // publish per flow-mod batch.
  auto sink = [this](std::span<const ofp::server::PendingFlowMod> mods,
                     std::span<ofp::ErrorCode> results) {
    mark_control_thread();
    const auto start = Clock::now();
    rt_.update([mods, results](MultiTableLookup& tables) {
      ofp::server::apply_mods(tables, mods, results);
    });
    const double ns = ns_between(start, Clock::now());
    ++report_.sink_calls;
    report_.sink_mods += mods.size();
    report_.sink_errors += static_cast<std::uint64_t>(
        std::count_if(results.begin(), results.end(), [](ofp::ErrorCode code) {
          return code != ofp::ErrorCode::kNone;
        }));
    report_.sink_ns_total += ns;
    if (report_.publish_us.size() < kSampleCap) {
      report_.publish_us.push_back(ns / 1e3);
    }
  };
  server_ = std::make_unique<ofp::server::OfpServer>(sink, config);
  if (!server_->start()) return false;
  // The switch's only controller claims the master role, as it would in a
  // deployment. The server's admission control sheds only non-master
  // sessions, and a non-master session it sheds cannot recover: the latency
  // signal that would let it out of shedding is fed only by the publishes it
  // now refuses, so the session is drained after 4,096 rejected mods.
  return controller_.connect(server_->port()) &&
         controller_.request_role(ofp::Role::kMaster, 1).has_value();
}

void ChurnPlane::begin() {
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { controller_loop(); });
}

void ChurnPlane::finish() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  if (server_ != nullptr) server_->stop();
}

std::vector<std::vector<std::uint8_t>> ChurnPlane::encoded_frames() const {
  std::vector<std::vector<std::uint8_t>> frames = add_frames_;
  frames.insert(frames.end(), delete_frames_.begin(), delete_frames_.end());
  return frames;
}

void ChurnPlane::controller_loop() {
  mark_control_thread();
  // Each batch goes out in one write, as a controller that coalesces its
  // flow-mods would send it, then an echo barrier fences it.
  std::vector<std::uint8_t> add_burst;
  std::vector<std::uint8_t> delete_burst;
  for (const auto& frame : add_frames_) {
    add_burst.insert(add_burst.end(), frame.begin(), frame.end());
  }
  for (const auto& frame : delete_frames_) {
    delete_burst.insert(delete_burst.end(), frame.begin(), frame.end());
  }
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kRoundsPerSecond));
  const auto start = Clock::now();
  auto next_start = start;
  // Stop only after an add round, so the table ends holding the churn rules.
  while (!stop_.load(std::memory_order_relaxed) || report_.rounds % 2 == 0) {
    std::this_thread::sleep_until(next_start);
    const bool add = report_.rounds % 2 == 0;
    const auto sent = Clock::now();
    // A late round starts at once but the schedule does not catch up, so a
    // stall never turns into a burst of publishes.
    next_start = std::max(next_start, sent) + interval;
    if (!controller_.socket().send_all(add ? add_burst : delete_burst)) {
      report_.transport_ok = false;
      break;
    }
    const bool fenced = fence(report_.rounds);
    const double ns = ns_between(sent, Clock::now());
    if (!fenced) {
      report_.transport_ok = false;
      break;
    }
    ++report_.rounds;
    report_.mods_sent += add ? add_frames_.size() : delete_frames_.size();
    report_.rtt_ns_total += ns;
    if (report_.rtt_us.size() < kSampleCap) report_.rtt_us.push_back(ns / 1e3);
  }
  report_.seconds = seconds_between(start, Clock::now());
  // ERRORs met in a round whose fence failed belong to no counted round.
  std::erase_if(report_.rejected, [this](const auto& entry) {
    return entry.first >= report_.rounds;
  });
  report_.mods_failed = report_.rejected.size();
}

bool ChurnPlane::fence(std::uint64_t round) {
  auto& socket = controller_.socket();
  const std::uint32_t xid = controller_.next_xid();
  if (!socket.send_all(ofp::encode({xid, ofp::EchoRequest{{0xB}}}))) {
    return false;
  }
  // Frames answer in order, so every ERROR before the echo reply belongs to
  // this round's mods.
  while (const auto frame = socket.read_frame()) {
    ofp::Envelope envelope;
    if (ofp::try_decode(*frame, envelope) != ofp::DecodeStatus::kOk) continue;
    if (std::holds_alternative<ofp::ErrorMsg>(envelope.message)) {
      report_.rejected.emplace_back(round, envelope.xid);
    } else if (std::holds_alternative<ofp::EchoReply>(envelope.message) &&
               envelope.xid == xid) {
      return true;
    } else if (const auto* probe =
                   std::get_if<ofp::EchoRequest>(&envelope.message)) {
      (void)socket.send_all(
          ofp::encode({envelope.xid, ofp::EchoReply{probe->payload}}));
    }
  }
  return false;  // receive timeout or connection lost
}

}  // namespace perfbench
