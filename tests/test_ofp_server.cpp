// The OFP control-plane server, bottom-up: FrameAssembler reassembly under
// arbitrary fragmentation, the sans-io Session state machine (handshake,
// echo liveness, flow-mod batching with barrier semantics, backpressure and
// malformed-input degradation — all on a virtual clock, no sockets), the
// FlowModSink adapters, and finally the epoll OfpServer end-to-end over
// loopback TCP with scripted fault injection (byte-at-a-time delivery,
// mid-message RST, slow readers). The robustness contract under test: no
// peer input ever crashes the server; it answers ERROR or closes gracefully.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "ofp/server/flow_mod_sink.hpp"
#include "ofp/server/frame_assembler.hpp"
#include "ofp/server/server.hpp"
#include "ofp/server/session.hpp"
#include "ofp/testing/fault_injection.hpp"
#include "runtime/snapshot.hpp"
#include "workload/rng.hpp"

namespace ofmtl::ofp::server {
namespace {

using testing::FaultLevel;
using testing::FaultySocket;
using testing::feed_fragmented;
using testing::FrameFault;
using testing::make_fault;
using testing::ScriptedController;

// --- shared helpers ---

std::vector<std::uint8_t> flow_mod_frame(std::uint32_t xid, std::uint32_t id,
                                         FlowModCommand command =
                                             FlowModCommand::kAdd,
                                         std::uint8_t table = 0) {
  FlowModMsg mod;
  mod.command = command;
  mod.table_id = table;
  mod.entry.id = id;
  mod.entry.priority = 1;
  mod.entry.match.set(FieldId::kEthDst, FieldMatch::exact(std::uint64_t{id}));
  mod.entry.instructions = output_instruction(id % 1024);
  return encode({xid, mod});
}

/// Sink that records batch sizes and answers with scripted codes (kNone when
/// the script runs out).
struct RecordingSink {
  std::vector<std::size_t> batches;
  std::vector<std::uint32_t> xids;
  std::vector<ErrorCode> script;

  FlowModSink make() {
    return [this](std::span<const PendingFlowMod> mods,
                  std::span<ErrorCode> results) {
      batches.push_back(mods.size());
      for (std::size_t i = 0; i < mods.size(); ++i) {
        xids.push_back(mods[i].xid);
        const auto n = xids.size() - 1;
        results[i] = n < script.size() ? script[n] : ErrorCode::kNone;
      }
    };
  }
};

/// Decode every frame the session has queued, consuming its output.
std::vector<Envelope> drain_frames(Session& session) {
  FrameAssembler assembler;
  const auto pending = session.pending_output();
  EXPECT_EQ(assembler.push(pending), FrameAssembler::Status::kOk);
  session.consume_output(pending.size());
  std::vector<Envelope> envelopes;
  std::vector<std::uint8_t> frame;
  while (assembler.next(frame)) {
    Envelope envelope;
    EXPECT_EQ(try_decode(frame, envelope), DecodeStatus::kOk);
    envelopes.push_back(std::move(envelope));
  }
  return envelopes;
}

/// A steady-state session: HELLO handshake done, server HELLO drained.
Session steady_session(FlowModSink sink, SessionConfig config = {}) {
  Session session(1, config, std::move(sink), 0);
  session.on_bytes(encode({1, Hello{}}), 0);
  const auto hello = drain_frames(session);
  EXPECT_EQ(hello.size(), 1U);
  EXPECT_EQ(session.state(), Session::State::kSteady);
  return session;
}

bool wait_until(const std::function<bool()>& predicate, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

// --- FrameAssembler ---

TEST(FrameAssembler, ReassemblesAtEveryFragmentation) {
  std::vector<std::uint8_t> stream;
  std::vector<std::vector<std::uint8_t>> frames = {
      encode({1, Hello{}}),
      encode({2, EchoRequest{{1, 2, 3, 4, 5}}}),
      flow_mod_frame(3, 7),
  };
  for (const auto& f : frames) stream.insert(stream.end(), f.begin(), f.end());

  for (std::size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    FrameAssembler assembler;
    std::vector<std::vector<std::uint8_t>> got;
    std::vector<std::uint8_t> frame;
    for (std::size_t off = 0; off < stream.size(); off += chunk) {
      const auto n = std::min(chunk, stream.size() - off);
      ASSERT_EQ(assembler.push({stream.data() + off, n}),
                FrameAssembler::Status::kOk);
      while (assembler.next(frame)) got.push_back(frame);
    }
    ASSERT_EQ(got, frames) << "chunk size " << chunk;
    EXPECT_EQ(assembler.buffered(), 0U);
  }
}

TEST(FrameAssembler, BadLengthPoisonsButEarlierFramesDrain) {
  FrameAssembler assembler;
  auto good = encode({1, Hello{}});
  std::vector<std::uint8_t> bad = {kProtocolVersion, 0, 0, 4, 0, 0, 0, 9};
  auto stream = good;
  stream.insert(stream.end(), bad.begin(), bad.end());
  // The bad header hides behind the good frame, so the push itself is clean;
  // popping the good frame exposes it and poisons the stream eagerly.
  EXPECT_EQ(assembler.push(stream), FrameAssembler::Status::kOk);
  std::vector<std::uint8_t> frame;
  EXPECT_TRUE(assembler.next(frame));  // the good frame survives
  EXPECT_EQ(frame, good);
  EXPECT_EQ(assembler.status(), FrameAssembler::Status::kBadLength);
  EXPECT_FALSE(assembler.next(frame));
  // Sticky: nothing rehabilitates the stream.
  EXPECT_EQ(assembler.push(good), FrameAssembler::Status::kBadLength);
}

TEST(FrameAssembler, OverflowIsStickyAndBounded) {
  FrameAssembler assembler(16);
  // One frame claiming 100 bytes can never complete within a 16-byte cap.
  std::vector<std::uint8_t> header = {kProtocolVersion, 0, 0, 100, 0, 0, 0, 1};
  EXPECT_EQ(assembler.push(header), FrameAssembler::Status::kOk);
  std::vector<std::uint8_t> filler(20, 0xAB);
  EXPECT_EQ(assembler.push(filler), FrameAssembler::Status::kOverflow);
  EXPECT_EQ(assembler.push(filler), FrameAssembler::Status::kOverflow);
  EXPECT_LE(assembler.buffered(), 16U);
}

// --- Session: sans-io state machine ---

TEST(Session, HandshakeThenEchoAtArbitraryFragmentation) {
  workload::Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    RecordingSink sink;
    Session session(1, {}, sink.make(), 0);
    EXPECT_EQ(session.state(), Session::State::kAwaitHello);

    std::vector<std::uint8_t> stream = encode({1, Hello{}});
    const auto echo = encode({2, EchoRequest{{0xAA, 0xBB}}});
    stream.insert(stream.end(), echo.begin(), echo.end());
    feed_fragmented(session, stream, rng, 0);

    EXPECT_EQ(session.state(), Session::State::kSteady);
    const auto out = drain_frames(session);
    ASSERT_EQ(out.size(), 2U);  // our HELLO + the echo reply
    EXPECT_TRUE(std::holds_alternative<Hello>(out[0].message));
    EXPECT_EQ(out[1].xid, 2U);
    EXPECT_EQ(std::get<EchoReply>(out[1].message).payload,
              (std::vector<std::uint8_t>{0xAA, 0xBB}));
    EXPECT_EQ(session.counters().frames_rx, 2U);
  }
}

TEST(Session, TrafficBeforeHelloFailsHandshake) {
  RecordingSink sink;
  Session session(1, {}, sink.make(), 0);
  session.on_bytes(encode({9, EchoRequest{{1}}}), 0);
  EXPECT_EQ(session.state(), Session::State::kDraining);
  EXPECT_EQ(session.close_reason(), CloseReason::kHandshakeFailed);
  const auto out = drain_frames(session);
  ASSERT_EQ(out.size(), 2U);  // HELLO was already queued, then the ERROR
  const auto& error = std::get<ErrorMsg>(out[1].message);
  EXPECT_EQ(error.type, ErrorType::kHelloFailed);
  EXPECT_TRUE(session.wants_close());  // output drained, nothing left
}

TEST(Session, MalformedFirstFrameFailsHandshake) {
  RecordingSink sink;
  Session session(1, {}, sink.make(), 0);
  auto bytes = encode({9, Hello{}});
  bytes[0] = 9;  // wrong version
  session.on_bytes(bytes, 0);
  EXPECT_EQ(session.close_reason(), CloseReason::kHandshakeFailed);
  const auto out = drain_frames(session);
  ASSERT_EQ(out.size(), 2U);
  EXPECT_EQ(std::get<ErrorMsg>(out[1].message).code, ErrorCode::kBadVersion);
  EXPECT_EQ(session.counters().malformed_frames, 1U);
}

TEST(Session, FlowModsBatchUntilBarrier) {
  RecordingSink sink;
  auto session = steady_session(sink.make());
  std::vector<std::uint8_t> stream;
  for (std::uint32_t i = 0; i < 3; ++i) {
    const auto f = flow_mod_frame(10 + i, 100 + i);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  const auto echo = encode({20, EchoRequest{{1}}});
  stream.insert(stream.end(), echo.begin(), echo.end());
  session.on_bytes(stream, 1);

  // One batch, flushed by the echo barrier — not three.
  ASSERT_EQ(sink.batches, (std::vector<std::size_t>{3}));
  EXPECT_EQ(sink.xids, (std::vector<std::uint32_t>{10, 11, 12}));
  const auto out = drain_frames(session);
  ASSERT_EQ(out.size(), 1U);  // echo reply only: successful mods are silent
  EXPECT_EQ(out[0].xid, 20U);
  EXPECT_EQ(session.counters().flow_mods_ok, 3U);
}

TEST(Session, PendingModsFlushAtEndOfRead) {
  RecordingSink sink;
  auto session = steady_session(sink.make());
  session.on_bytes(flow_mod_frame(10, 100), 1);
  // No barrier message arrived, but the read event ended: the batch must
  // not linger unapplied while the connection idles.
  ASSERT_EQ(sink.batches, (std::vector<std::size_t>{1}));
}

TEST(Session, MaxModsPerBatchForcesFlush) {
  RecordingSink sink;
  SessionConfig config;
  config.max_mods_per_batch = 2;
  auto session = steady_session(sink.make(), config);
  std::vector<std::uint8_t> stream;
  for (std::uint32_t i = 0; i < 5; ++i) {
    const auto f = flow_mod_frame(10 + i, 100 + i);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  session.on_bytes(stream, 1);
  ASSERT_EQ(sink.batches, (std::vector<std::size_t>{2, 2, 1}));
}

TEST(Session, FailedModsEarnErrorRepliesBeforeTheBarrierReply) {
  RecordingSink sink;
  sink.script = {ErrorCode::kNone, ErrorCode::kDuplicateEntry};
  auto session = steady_session(sink.make());
  std::vector<std::uint8_t> stream = flow_mod_frame(10, 100);
  const auto dup = flow_mod_frame(11, 100);
  stream.insert(stream.end(), dup.begin(), dup.end());
  const auto echo = encode({12, EchoRequest{{1}}});
  stream.insert(stream.end(), echo.begin(), echo.end());
  session.on_bytes(stream, 1);

  const auto out = drain_frames(session);
  ASSERT_EQ(out.size(), 2U);
  // ERROR for the failed mod precedes the echo reply: replies stay in frame
  // order, so the barrier proves every earlier mod was applied or answered.
  EXPECT_EQ(out[0].xid, 11U);
  EXPECT_EQ(std::get<ErrorMsg>(out[0].message).code,
            ErrorCode::kDuplicateEntry);
  EXPECT_EQ(out[1].xid, 12U);
  EXPECT_EQ(session.counters().flow_mods_ok, 1U);
  EXPECT_EQ(session.counters().flow_mods_failed, 1U);
}

TEST(Session, MalformedSteadyFrameAnswersErrorAndTolerates) {
  RecordingSink sink;
  auto session = steady_session(sink.make());
  auto bad = encode({30, EchoRequest{{1, 2}}});
  bad[1] = 250;  // unknown type
  session.on_bytes(bad, 1);
  EXPECT_EQ(session.state(), Session::State::kSteady);  // tolerant by default
  const auto out = drain_frames(session);
  ASSERT_EQ(out.size(), 1U);
  EXPECT_EQ(out[0].xid, 30U);
  EXPECT_EQ(std::get<ErrorMsg>(out[0].message).code, ErrorCode::kBadType);
  EXPECT_EQ(session.counters().malformed_frames, 1U);

  // The session still works afterwards.
  session.on_bytes(encode({31, EchoRequest{{3}}}), 2);
  const auto next = drain_frames(session);
  ASSERT_EQ(next.size(), 1U);
  EXPECT_EQ(next[0].xid, 31U);
}

TEST(Session, CloseOnMalformedConfigDrains) {
  RecordingSink sink;
  SessionConfig config;
  config.close_on_malformed = true;
  auto session = steady_session(sink.make(), config);
  auto bad = encode({30, Hello{}});
  bad[1] = 250;
  session.on_bytes(bad, 1);
  EXPECT_EQ(session.state(), Session::State::kDraining);
  EXPECT_EQ(session.close_reason(), CloseReason::kProtocolError);
}

TEST(Session, FramingDesyncClosesAfterBestEffortError) {
  RecordingSink sink;
  auto session = steady_session(sink.make());
  // Length field below the header size: reassembly cannot resynchronize.
  session.on_bytes(std::vector<std::uint8_t>{kProtocolVersion, 0, 0, 4}, 1);
  EXPECT_EQ(session.state(), Session::State::kDraining);
  EXPECT_EQ(session.close_reason(), CloseReason::kProtocolError);
  const auto out = drain_frames(session);
  ASSERT_EQ(out.size(), 1U);
  EXPECT_EQ(std::get<ErrorMsg>(out[0].message).code, ErrorCode::kBadLength);
  EXPECT_TRUE(session.wants_close());
}

TEST(Session, ReadOverflowCloses) {
  RecordingSink sink;
  SessionConfig config;
  config.read_buffer_cap = 32;
  auto session = steady_session(sink.make(), config);
  // A frame claiming 16 KiB parks partial bytes past the tiny cap.
  std::vector<std::uint8_t> header = {kProtocolVersion, 0, 0x40, 0, 0, 0, 0, 1};
  header.resize(64, 0);
  session.on_bytes(header, 1);
  EXPECT_EQ(session.close_reason(), CloseReason::kReadOverflow);
}

TEST(Session, BackpressureDrainsSlowReader) {
  RecordingSink sink;
  SessionConfig config;
  config.write_buffer_cap = 256;
  auto session = steady_session(sink.make(), config);
  // Echo requests whose replies the "peer" never reads: the write buffer
  // fills to the cap, then the session drains instead of growing.
  const std::vector<std::uint8_t> payload(100, 0xEE);
  std::uint32_t xid = 50;
  for (int i = 0; i < 10 &&
                  session.state() == Session::State::kSteady; ++i) {
    session.on_bytes(encode({xid++, EchoRequest{payload}}), 1);
  }
  EXPECT_EQ(session.state(), Session::State::kDraining);
  EXPECT_EQ(session.close_reason(), CloseReason::kBackpressure);
  EXPECT_LE(session.output_buffered(), config.write_buffer_cap);
  // The drain flushes what the peer already earned, then wants the close.
  session.consume_output(session.pending_output().size());
  EXPECT_TRUE(session.wants_close());
}

TEST(Session, EchoProbeThenTimeoutCloses) {
  RecordingSink sink;
  SessionConfig config;
  config.echo_interval_ms = 100;
  config.echo_timeout_ms = 50;
  auto session = steady_session(sink.make(), config);

  ASSERT_TRUE(session.next_deadline_ms().has_value());
  EXPECT_EQ(*session.next_deadline_ms(), 100U);
  session.on_tick(99);
  EXPECT_EQ(session.counters().echo_probes, 0U);
  session.on_tick(100);  // idle hit the interval: probe goes out
  EXPECT_EQ(session.counters().echo_probes, 1U);
  const auto out = drain_frames(session);
  ASSERT_EQ(out.size(), 1U);
  EXPECT_TRUE(std::holds_alternative<EchoRequest>(out[0].message));
  EXPECT_EQ(*session.next_deadline_ms(), 150U);

  session.on_tick(149);
  EXPECT_EQ(session.state(), Session::State::kSteady);
  session.on_tick(150);  // probe unanswered past the grace
  EXPECT_EQ(session.close_reason(), CloseReason::kEchoTimeout);
  EXPECT_TRUE(session.wants_close());
}

TEST(Session, AnyInboundByteAnswersProbe) {
  RecordingSink sink;
  SessionConfig config;
  config.echo_interval_ms = 100;
  config.echo_timeout_ms = 50;
  auto session = steady_session(sink.make(), config);
  session.on_tick(100);
  EXPECT_EQ(session.counters().echo_probes, 1U);
  session.on_bytes(encode({77, EchoReply{{}}}), 120);  // peer answered
  session.on_tick(150);
  EXPECT_EQ(session.state(), Session::State::kSteady);
  EXPECT_EQ(*session.next_deadline_ms(), 220U);  // idle clock restarted
}

TEST(Session, PeerCloseFlushesPendingMods) {
  RecordingSink sink;
  auto session = steady_session(sink.make());
  session.on_bytes(flow_mod_frame(10, 1), 1);
  session.on_peer_closed(2);
  EXPECT_EQ(session.close_reason(), CloseReason::kPeerClosed);
  // The mod that arrived before EOF was applied, not dropped.
  ASSERT_FALSE(sink.batches.empty());
}

// --- FlowModSink adapters ---

MultiTableLookup one_table() {
  MultiTableLookup tables;
  tables.add_table(LookupTable({FieldId::kEthDst}, {}));
  return tables;
}

PendingFlowMod pending(std::uint32_t xid, std::uint32_t id,
                       FlowModCommand command = FlowModCommand::kAdd,
                       std::uint8_t table = 0) {
  PendingFlowMod p;
  p.xid = xid;
  p.mod.command = command;
  p.mod.table_id = table;
  p.mod.entry.id = id;
  p.mod.entry.priority = 1;
  p.mod.entry.match.set(FieldId::kEthDst, FieldMatch::exact(std::uint64_t{id}));
  p.mod.entry.instructions = output_instruction(id % 1024);  // as flow_mod_frame
  return p;
}

TEST(FlowModSinks, ApplyModsValidatesPerMod) {
  auto tables = one_table();
  const std::vector<PendingFlowMod> mods = {
      pending(1, 10),                              // ok
      pending(2, 10),                              // duplicate add
      pending(3, 11, FlowModCommand::kModify),     // unknown id
      pending(4, 11, FlowModCommand::kDelete),     // unknown id
      pending(5, 12, FlowModCommand::kAdd, 9),     // bad table
      pending(6, 10, FlowModCommand::kDelete),     // ok: removes 10
  };
  std::vector<ErrorCode> results(mods.size(), ErrorCode::kNone);
  apply_mods(tables, mods, results);
  EXPECT_EQ(results,
            (std::vector<ErrorCode>{ErrorCode::kNone, ErrorCode::kDuplicateEntry,
                                    ErrorCode::kUnknownEntry,
                                    ErrorCode::kUnknownEntry,
                                    ErrorCode::kBadValue, ErrorCode::kNone}));
  EXPECT_FALSE(tables.contains_entry(0, 10));
}

TEST(FlowModSinks, UnstorableMatchAnswersBadMatchWithoutMutating) {
  auto tables = one_table();  // matches on eth_dst only
  auto outside = pending(1, 20);
  outside.mod.entry.match.set(FieldId::kIpProto,
                              FieldMatch::exact(std::uint64_t{6}));
  auto wrong_kind = pending(2, 21);
  wrong_kind.mod.entry.match.set(FieldId::kEthDst, FieldMatch::of_range(1, 9));
  auto modify = pending(4, 10, FlowModCommand::kModify);
  modify.mod.entry.match = outside.mod.entry.match;
  const std::vector<PendingFlowMod> mods = {outside, wrong_kind,
                                            pending(3, 10), modify};
  std::vector<ErrorCode> results(mods.size(), ErrorCode::kNone);
  apply_mods(tables, mods, results);
  EXPECT_EQ(results, (std::vector<ErrorCode>{ErrorCode::kBadMatch,
                                             ErrorCode::kBadMatch,
                                             ErrorCode::kNone,
                                             ErrorCode::kBadMatch}));
  EXPECT_FALSE(tables.contains_entry(0, 20));
  EXPECT_FALSE(tables.contains_entry(0, 21));
  EXPECT_TRUE(tables.contains_entry(0, 10));  // the rejected modify kept it
  // Nothing of the rejected mods stayed registered: the structures equal
  // those of a table that only ever saw the accepted add.
  auto reference = one_table();
  reference.insert_entry(0, pending(3, 10).mod.entry);
  EXPECT_EQ(tables.table(0).field_searches()[0].unique_values(),
            reference.table(0).field_searches()[0].unique_values());
  EXPECT_EQ(tables.update_words(), reference.update_words());
}

TEST(FlowModSinks, OverWideValuesAnswerErrorsWithoutMutating) {
  MultiTableLookup tables;
  tables.add_table(LookupTable({FieldId::kEthDst, FieldId::kVlanId}, {}));
  auto wide_set = pending(1, 20);
  wide_set.mod.entry.instructions.apply_actions.push_back(
      SetFieldAction{FieldId::kVlanId, U128{1} << 13});
  // An exact value wider than VLAN ID cannot even be put in a match (the
  // codec answers such bytes with kBadValue); a constraint that fits the
  // field but not the table's search, a range on the EM field, is kBadMatch.
  auto bad_match = pending(2, 21);
  const FlowMatch before = bad_match.mod.entry.match;
  EXPECT_THROW(bad_match.mod.entry.match.set(
                   FieldId::kVlanId, FieldMatch::exact(std::uint64_t{1} << 13)),
               std::invalid_argument);
  EXPECT_EQ(bad_match.mod.entry.match, before);
  bad_match.mod.entry.match.set(FieldId::kVlanId, FieldMatch::of_range(1, 2));
  auto modify = wide_set;  // must not delete the entry it cannot replace
  modify.xid = 4;
  modify.mod.command = FlowModCommand::kModify;
  modify.mod.entry.id = 10;
  const std::vector<PendingFlowMod> mods = {wide_set, bad_match,
                                            pending(3, 10), modify};
  std::vector<ErrorCode> results(mods.size(), ErrorCode::kNone);
  apply_mods(tables, mods, results);
  EXPECT_EQ(results, (std::vector<ErrorCode>{ErrorCode::kBadValue,
                                             ErrorCode::kBadMatch,
                                             ErrorCode::kNone,
                                             ErrorCode::kBadValue}));
  EXPECT_FALSE(tables.contains_entry(0, 20));
  EXPECT_FALSE(tables.contains_entry(0, 21));
  EXPECT_TRUE(tables.contains_entry(0, 10));
  // The rejected mods left nothing behind.
  MultiTableLookup reference;
  reference.add_table(LookupTable({FieldId::kEthDst, FieldId::kVlanId}, {}));
  reference.insert_entry(0, pending(3, 10).mod.entry);
  EXPECT_EQ(tables.update_words(), reference.update_words());
  EXPECT_EQ(tables.table(0).entries(), reference.table(0).entries());
}

TEST(FlowModSinks, ClassifierSinkRejectsBadMatchWithoutResync) {
  runtime::SnapshotClassifier classifier(one_table());
  auto sink = make_classifier_sink(classifier);
  auto bad = pending(2, 11);
  bad.mod.entry.match.set(FieldId::kIpProto, FieldMatch::exact(std::uint64_t{6}));
  const std::vector<PendingFlowMod> mods = {pending(1, 10), bad};
  std::vector<ErrorCode> results(mods.size(), ErrorCode::kNone);
  sink(mods, results);
  EXPECT_EQ(results, (std::vector<ErrorCode>{ErrorCode::kNone,
                                             ErrorCode::kBadMatch}));
  const auto guard = classifier.acquire();
  EXPECT_TRUE(guard.tables().contains_entry(0, 10));
  EXPECT_FALSE(guard.tables().contains_entry(0, 11));
}

TEST(Session, BadMatchEarnsBadMatchError) {
  runtime::SnapshotClassifier classifier(one_table());
  auto session = steady_session(make_classifier_sink(classifier));
  FlowModMsg mod;
  mod.command = FlowModCommand::kAdd;
  mod.entry.id = 7;
  mod.entry.match.set(FieldId::kIpProto, FieldMatch::exact(std::uint64_t{6}));
  session.on_bytes(encode({40, mod}), 1);

  const auto out = drain_frames(session);
  ASSERT_EQ(out.size(), 1U);
  EXPECT_EQ(out[0].xid, 40U);
  const auto& error = std::get<ErrorMsg>(out[0].message);
  EXPECT_EQ(error.type, ErrorType::kBadMatch);
  EXPECT_EQ(error.code, ErrorCode::kBadMatch);
  EXPECT_EQ(session.counters().flow_mods_failed, 1U);
}

TEST(FlowModSinks, ClassifierSinkPublishesOncePerBatch) {
  runtime::SnapshotClassifier classifier(one_table());
  auto sink = make_classifier_sink(classifier);
  const auto before = classifier.epoch();

  std::vector<PendingFlowMod> mods = {pending(1, 10), pending(2, 11),
                                      pending(3, 10)};  // last: duplicate
  std::vector<ErrorCode> results(mods.size(), ErrorCode::kNone);
  sink(mods, results);

  EXPECT_EQ(classifier.epoch(), before + 1);  // ONE publish for the batch
  EXPECT_EQ(results[0], ErrorCode::kNone);
  EXPECT_EQ(results[1], ErrorCode::kNone);
  EXPECT_EQ(results[2], ErrorCode::kDuplicateEntry);
  const auto guard = classifier.acquire();
  EXPECT_TRUE(guard.tables().contains_entry(0, 10));
  EXPECT_TRUE(guard.tables().contains_entry(0, 11));
}

// --- OfpServer: live sockets + fault injection ---

ServerConfig quick_config() {
  ServerConfig config;
  config.session.echo_interval_ms = 60'000;  // no probes unless a test asks
  return config;
}

TEST(OfpServer, StartHandshakeStop) {
  RecordingSink sink;
  OfpServer server(sink.make(), quick_config());
  ASSERT_TRUE(server.start());
  ASSERT_NE(server.port(), 0);

  ScriptedController controller;
  ASSERT_TRUE(controller.connect(server.port()));
  ASSERT_TRUE(wait_until([&] { return server.stats().handshakes == 1; }, 2000));
  EXPECT_EQ(server.active_sessions(), 1U);

  const auto barrier = controller.barrier();
  EXPECT_TRUE(barrier.ok);
  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.active_sessions(), 0U);
}

TEST(OfpServer, ByteAtATimeDeliveryConverges) {
  runtime::SnapshotClassifier classifier(one_table());
  OfpServer server(make_classifier_sink(classifier), quick_config());
  ASSERT_TRUE(server.start());

  ScriptedController controller;
  ASSERT_TRUE(controller.connect(server.port()));
  FrameFault byte_at_a_time;
  byte_at_a_time.chunks = {1};
  for (std::uint32_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(controller.send(flow_mod_frame(controller.next_xid(), id),
                                byte_at_a_time));
  }
  const auto barrier = controller.barrier();
  ASSERT_TRUE(barrier.ok);
  EXPECT_EQ(barrier.errors_seen, 0U);

  const auto guard = classifier.acquire();
  for (std::uint32_t id = 1; id <= 5; ++id) {
    EXPECT_TRUE(guard.tables().contains_entry(0, id)) << "id " << id;
  }
  server.stop();
}

TEST(OfpServer, MalformedFrameAnswersErrorOverTheWire) {
  RecordingSink sink;
  OfpServer server(sink.make(), quick_config());
  ASSERT_TRUE(server.start());

  ScriptedController controller;
  ASSERT_TRUE(controller.connect(server.port()));
  auto bad = encode({99, EchoRequest{{1, 2, 3}}});
  bad[1] = 250;  // unknown type, length still consistent
  ASSERT_TRUE(controller.send(bad));
  const auto frame = controller.socket().read_frame();
  ASSERT_TRUE(frame.has_value());
  Envelope envelope;
  ASSERT_EQ(try_decode(*frame, envelope), DecodeStatus::kOk);
  EXPECT_EQ(envelope.xid, 99U);
  EXPECT_EQ(std::get<ErrorMsg>(envelope.message).code, ErrorCode::kBadType);

  // The session survived: it still answers echoes.
  EXPECT_TRUE(controller.barrier().ok);
  EXPECT_GE(server.stats().malformed_frames, 1U);
  server.stop();
}

TEST(OfpServer, MidMessageRstThenReconnectConverges) {
  runtime::SnapshotClassifier classifier(one_table());
  OfpServer server(make_classifier_sink(classifier), quick_config());
  ASSERT_TRUE(server.start());

  {
    ScriptedController controller;
    ASSERT_TRUE(controller.connect(server.port()));
    const auto frame = flow_mod_frame(controller.next_xid(), 1);
    FrameFault cut_mid_frame;
    cut_mid_frame.cut = frame.size() / 2;  // partial frame, then hard RST
    EXPECT_FALSE(controller.send(frame, cut_mid_frame));
  }
  ASSERT_TRUE(
      wait_until([&] { return server.stats().sessions_closed >= 1; }, 2000));

  // The replayed controller resends everything; the server state converges.
  ScriptedController retry;
  ASSERT_TRUE(retry.connect(server.port()));
  ASSERT_TRUE(retry.send(flow_mod_frame(retry.next_xid(), 1)));
  ASSERT_TRUE(retry.barrier().ok);
  EXPECT_TRUE(classifier.acquire().tables().contains_entry(0, 1));
  server.stop();
}

TEST(OfpServer, TrafficBeforeHelloIsRejectedGracefully) {
  RecordingSink sink;
  OfpServer server(sink.make(), quick_config());
  ASSERT_TRUE(server.start());

  auto sock = FaultySocket::connect(server.port());
  ASSERT_TRUE(sock.has_value());
  ASSERT_TRUE(sock->send_all(encode({5, EchoRequest{{1}}})));  // no HELLO
  // Server answers HELLO (its own), then ERROR, then closes.
  bool saw_error = false;
  while (const auto frame = sock->read_frame()) {
    Envelope envelope;
    if (try_decode(*frame, envelope) != DecodeStatus::kOk) continue;
    if (const auto* error = std::get_if<ErrorMsg>(&envelope.message)) {
      EXPECT_EQ(error->type, ErrorType::kHelloFailed);
      saw_error = true;
    }
  }
  EXPECT_TRUE(saw_error);
  ASSERT_TRUE(
      wait_until([&] { return server.stats().protocol_closes >= 1; }, 2000));
  server.stop();
}

TEST(OfpServer, EchoTimeoutClosesSilentPeer) {
  RecordingSink sink;
  ServerConfig config;
  config.session.echo_interval_ms = 50;
  config.session.echo_timeout_ms = 50;
  OfpServer server(sink.make(), config);
  ASSERT_TRUE(server.start());

  ScriptedController controller;
  ASSERT_TRUE(controller.connect(server.port()));
  // Never answer the probe: the server must declare the peer dead.
  ASSERT_TRUE(
      wait_until([&] { return server.stats().echo_timeouts >= 1; }, 3000));
  EXPECT_EQ(server.active_sessions(), 0U);
  server.stop();
}

TEST(OfpServer, SlowReaderIsClosedUnderBackpressure) {
  RecordingSink sink;
  ServerConfig config;
  config.session.echo_interval_ms = 60'000;
  config.session.write_buffer_cap = 4 * 1024;
  OfpServer server(sink.make(), config);
  ASSERT_TRUE(server.start());

  auto sock = FaultySocket::connect(server.port());
  ASSERT_TRUE(sock.has_value());
  ASSERT_TRUE(sock->send_all(encode({1, Hello{}})));
  // Firehose echo requests without reading any replies: once the kernel
  // socket buffers fill, the session's write queue hits its cap and the
  // session must switch to a bounded drain instead of queuing unboundedly.
  const std::vector<std::uint8_t> payload(8192, 0xCD);
  for (int i = 0; i < 1500; ++i) {
    if (!sock->send_all(encode(
            {static_cast<std::uint32_t>(100 + i), EchoRequest{payload}}))) {
      break;  // server already hung up on us
    }
  }
  // Now read: the server flushes what we earned, then closes on us.
  while (sock->read_frame().has_value()) {
  }
  ASSERT_TRUE(
      wait_until([&] { return server.stats().backpressure_closes >= 1; }, 5000));
  server.stop();
}

TEST(OfpServer, ConcurrentFaultySessionsConvergeToOracle) {
  constexpr std::uint32_t kSessions = 4;
  constexpr std::uint32_t kModsPerSession = 25;

  runtime::SnapshotClassifier classifier(one_table());
  OfpServer server(make_classifier_sink(classifier), quick_config());
  ASSERT_TRUE(server.start());

  std::atomic<std::uint32_t> converged{0};
  std::vector<std::thread> controllers;
  for (std::uint32_t s = 0; s < kSessions; ++s) {
    controllers.emplace_back([&, s] {
      workload::Rng rng(1000 + s);
      const std::uint32_t base = 1 + s * kModsPerSession;
      ScriptedController controller;
      // Replay-from-start on every connection loss: duplicate adds earn
      // ERROR replies, but the final state is the same (exactly-once
      // effect via idempotent replay + disjoint id ranges).
      for (int attempt = 0; attempt < 64; ++attempt) {
        if (!controller.connect(server.port())) continue;
        bool alive = true;
        for (std::uint32_t i = 0; i < kModsPerSession && alive; ++i) {
          const auto frame = flow_mod_frame(controller.next_xid(), base + i);
          alive = controller.send(
              frame, make_fault(rng, frame.size(), FaultLevel::kLight));
        }
        if (!alive) continue;
        if (controller.barrier().ok) {
          converged.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : controllers) t.join();
  ASSERT_EQ(converged.load(), kSessions);

  // Oracle: the same mods applied sequentially to a fresh table.
  auto oracle = one_table();
  for (std::uint32_t s = 0; s < kSessions; ++s) {
    const std::uint32_t base = 1 + s * kModsPerSession;
    for (std::uint32_t i = 0; i < kModsPerSession; ++i) {
      std::vector<PendingFlowMod> one = {pending(1, base + i)};
      std::vector<ErrorCode> result(1);
      apply_mods(oracle, one, result);
      ASSERT_EQ(result[0], ErrorCode::kNone);
    }
  }

  // Bitwise agreement: same entries, same execution verdicts on probes.
  const auto guard = classifier.acquire();
  for (std::uint32_t id = 1; id <= kSessions * kModsPerSession; ++id) {
    ASSERT_TRUE(guard.tables().contains_entry(0, id)) << "id " << id;
    PacketHeader probe;
    probe.set(FieldId::kEthDst, std::uint64_t{id});
    const auto got = guard.tables().execute(probe);
    const auto want = oracle.execute(probe);
    ASSERT_EQ(got.verdict, want.verdict) << "id " << id;
    ASSERT_EQ(got.output_ports, want.output_ports) << "id " << id;
  }
  EXPECT_GE(server.stats().flow_mods_ok, kSessions * kModsPerSession);
  server.stop();
}

// --- stats endpoint: read-only HTTP plane inside the same epoll loop ---

/// Minimal HTTP/1.0 client: send one GET, read to EOF (the endpoint always
/// answers Connection: close).
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(OfpServerStats, EndpointServesPrometheusAndJson) {
  RecordingSink sink;
  obs::MetricsRegistry registry;
  ServerConfig config = quick_config();
  config.stats_port = 0;  // ephemeral
  config.metrics = &registry;
  OfpServer server(sink.make(), config);
  ASSERT_TRUE(server.start());
  ASSERT_NE(server.stats_port(), 0);

  // Drive one session so the counters have something to say.
  ScriptedController controller;
  ASSERT_TRUE(controller.connect(server.port()));
  ASSERT_TRUE(controller.send(flow_mod_frame(controller.next_xid(), 7)));
  ASSERT_TRUE(controller.barrier().ok);

  const std::string text = http_get(server.stats_port(), "/metrics");
  EXPECT_NE(text.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(text.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ofmtl_ofp_sessions_accepted_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("ofmtl_ofp_sessions_accepted_total 1"),
            std::string::npos);
  EXPECT_NE(text.find("ofmtl_ofp_flow_mods_ok_total 1"), std::string::npos);
  EXPECT_NE(text.find("ofmtl_ofp_active_sessions 1"), std::string::npos);
  EXPECT_NE(text.find("ofmtl_ofp_handshakes_total 1"), std::string::npos);

  const std::string json = http_get(server.stats_port(), "/metrics.json");
  EXPECT_NE(json.find("Content-Type: application/json"), std::string::npos);
  EXPECT_NE(json.find(R"({"metrics":[)"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"ofmtl_ofp_frames_rx_total")"),
            std::string::npos);

  const std::string missing = http_get(server.stats_port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.0 404 Not Found"), std::string::npos);

  server.stop();
  // The server's provider unregistered on stop: no dangling callback.
  EXPECT_EQ(registry.provider_count(), 0u);
}

TEST(OfpServerStats, EndpointSurvivesHostileAndPartialRequests) {
  RecordingSink sink;
  obs::MetricsRegistry registry;
  ServerConfig config = quick_config();
  config.stats_port = 0;
  config.metrics = &registry;
  OfpServer server(sink.make(), config);
  ASSERT_TRUE(server.start());

  // Garbage request line: answered 404, not crashed.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.stats_port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    const char junk[] = "\x00\xff garbage\r\n\r\n";
    (void)::send(fd, junk, sizeof junk - 1, 0);
    std::string response;
    char buf[1024];
    while (true) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      response.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    EXPECT_NE(response.find("404"), std::string::npos);
  }

  // Peer that connects and immediately disconnects: cleaned up, and the
  // data plane is untouched throughout.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.stats_port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    ::close(fd);
  }
  ScriptedController controller;
  ASSERT_TRUE(controller.connect(server.port()));
  EXPECT_TRUE(controller.barrier().ok);
  EXPECT_NE(http_get(server.stats_port(), "/metrics").find("200 OK"),
            std::string::npos);
  server.stop();
}

TEST(OfpServerStats, DisabledByDefault) {
  RecordingSink sink;
  OfpServer server(sink.make(), quick_config());
  ASSERT_TRUE(server.start());
  EXPECT_EQ(server.stats_port(), 0);  // no listener bound
  server.stop();
}

}  // namespace
}  // namespace ofmtl::ofp::server
