// ServePool vs standalone OnlineEngine: every session served by the pool
// must answer its queries bit-identically to one engine fed the same
// events — across all protocol kinds, three environments and several shard
// counts, with *heterogeneous* streams (each session gets a different
// trace, so a cross-session mixup cannot cancel out). Plus the lifecycle
// error contract, malformed-frame rejection accounting, engine recycling,
// and the ServeConcurrency.* cases the TSan CI job runs: many producer
// threads and dedicated query threads hammering the pool at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "online/engine.hpp"
#include "protocols/registry.hpp"
#include "serve/driver.hpp"
#include "serve/pool.hpp"
#include "serve/wire.hpp"
#include "sim/environments.hpp"
#include "sim/replay.hpp"

namespace rdt::serve {
namespace {

// Captures a builder's append stream as a replayable event list.
class Recorder final : public PatternListener {
 public:
  void on_send(MsgId m, ProcessId sender, ProcessId receiver) override {
    ops.push_back(StreamEvent::send(m, sender, receiver));
  }
  void on_deliver(MsgId m, ProcessId sender, ProcessId receiver) override {
    ops.push_back(StreamEvent::deliver(m, sender, receiver));
  }
  void on_internal(ProcessId p) override {
    ops.push_back(StreamEvent::internal(p));
  }
  void on_checkpoint(ProcessId p, CkptIndex index) override {
    ops.push_back(StreamEvent::checkpoint(p, index));
  }

  std::vector<StreamEvent> ops;
};

std::vector<StreamEvent> record_replay(const Trace& trace, ProtocolKind kind) {
  Recorder recorder;
  replay(trace, kind, {.online = &recorder});
  return recorder.ops;
}

// encode_frame takes a span, which a braced event list cannot bind to;
// tests building literal frames route through this vector-taking wrapper.
void encode_events(SessionId session, const std::vector<StreamEvent>& events,
                   std::vector<std::uint8_t>& out) {
  encode_frame(session, events, out);
}

// Chop a stream into wire frames of `batch` events and submit them all.
void submit_stream(ServePool& pool, SessionId session,
                   std::span<const StreamEvent> events, std::size_t batch) {
  std::vector<std::uint8_t> frame;
  for (std::size_t i = 0; i < events.size(); i += batch) {
    frame.clear();
    encode_frame(session, events.subspan(i, std::min(batch, events.size() - i)),
                 frame);
    pool.submit(frame);
  }
}

// The pooled session must be indistinguishable from a standalone engine fed
// the same events, on every public query.
void expect_matches_standalone(const ServePool& pool, SessionId session,
                               const OnlineEngine& standalone) {
  SCOPED_TRACE("session " + std::to_string(session));
  EXPECT_EQ(pool.events_consumed(session), standalone.events_consumed());
  EXPECT_EQ(pool.is_rdt_so_far(session), standalone.is_rdt_so_far());
  EXPECT_EQ(pool.session_stats(session), standalone.stats());
  const RecoveryOutcome pooled = pool.recovery_line(session).value;
  const RecoveryOutcome direct = standalone.recovery_line().value;
  EXPECT_EQ(pooled.line, direct.line);
  EXPECT_EQ(pooled.rollback_intervals, direct.rollback_intervals);
  EXPECT_EQ(pooled.total_rollback, direct.total_rollback);
  EXPECT_EQ(pooled.worst_fraction, direct.worst_fraction);  // bit-identical
}

// One pool, many sessions, each with its own stream: per-session
// bit-identity against standalone engines.
void check_heterogeneous_sessions(
    int shards, int num_processes,
    const std::vector<std::vector<StreamEvent>>& streams,
    std::size_t queue_frames = PoolOptions{}.queue_frames) {
  ServePool pool({.shards = shards,
                  .num_processes = num_processes,
                  .queue_frames = queue_frames});
  for (std::size_t i = 0; i < streams.size(); ++i)
    pool.open_session(static_cast<SessionId>(i + 1));
  // Interleave the sessions' frames (round-robin, uneven batch sizes) so a
  // shard queue holds several tenants' traffic at once.
  constexpr std::size_t kBatches[] = {1, 7, 64};
  std::vector<std::size_t> done(streams.size(), 0);
  std::vector<std::uint8_t> frame;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (done[i] >= streams[i].size()) continue;
      const std::size_t batch = kBatches[(i + done[i]) % 3];
      const std::size_t n = std::min(batch, streams[i].size() - done[i]);
      frame.clear();
      encode_frame(static_cast<SessionId>(i + 1),
                   std::span<const StreamEvent>(streams[i]).subspan(done[i], n),
                   frame);
      pool.submit(frame);
      done[i] += n;
      progressed = true;
    }
  }
  pool.drain();
  for (std::size_t i = 0; i < streams.size(); ++i) {
    OnlineEngine standalone(EngineOptions{num_processes});
    standalone.feed(streams[i]);
    expect_matches_standalone(pool, static_cast<SessionId>(i + 1), standalone);
  }
}

TEST(ServeEquivalence, RandomEnvAllProtocolsAcrossShardCounts) {
  for (const int shards : {1, 2, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    // One session per protocol kind, every session a different stream.
    std::vector<std::vector<StreamEvent>> streams;
    std::uint64_t seed = 1;
    for (const ProtocolKind kind : all_protocol_kinds()) {
      RandomEnvConfig cfg;
      cfg.num_processes = 4;
      cfg.duration = 12.0;
      cfg.basic_ckpt_mean = 5.0;
      cfg.seed = seed++;
      streams.push_back(record_replay(random_environment(cfg), kind));
    }
    check_heterogeneous_sessions(shards, 4, streams);
  }
}

TEST(ServeEquivalence, GroupEnvAllProtocolsAcrossShardCounts) {
  GroupEnvConfig cfg;
  cfg.num_groups = 2;
  cfg.group_size = 3;
  cfg.overlap = 1;
  cfg.duration = 10.0;
  cfg.basic_ckpt_mean = 5.0;
  for (const int shards : {1, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    std::vector<std::vector<StreamEvent>> streams;
    for (const ProtocolKind kind : all_protocol_kinds()) {
      cfg.seed += 1;
      streams.push_back(record_replay(group_environment(cfg), kind));
    }
    check_heterogeneous_sessions(shards, cfg.num_processes(), streams);
  }
}

TEST(ServeEquivalence, ClientServerEnvAllProtocolsAcrossShardCounts) {
  ClientServerEnvConfig cfg;
  cfg.num_servers = 3;
  cfg.num_requests = 8;
  cfg.basic_ckpt_mean = 5.0;
  for (const int shards : {1, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    std::vector<std::vector<StreamEvent>> streams;
    for (const ProtocolKind kind : all_protocol_kinds()) {
      cfg.seed += 1;
      streams.push_back(record_replay(client_server_environment(cfg), kind));
    }
    check_heterogeneous_sessions(shards, cfg.num_processes(), streams);
  }
}

// The worker takes max(1, queue_frames / 2) frames per batch: queue_frames 1
// is the one-frame edge (1 / 2 == 0), 2 the smallest ring with a free half,
// and the default batches up to 128 frames, coalescing each session's.
TEST(ServeEquivalence, RandomEnvAcrossQueueDepths) {
  std::vector<std::vector<StreamEvent>> streams;
  std::uint64_t seed = 40;
  for (const ProtocolKind kind : all_protocol_kinds()) {
    RandomEnvConfig cfg;
    cfg.num_processes = 4;
    cfg.duration = 12.0;
    cfg.basic_ckpt_mean = 5.0;
    cfg.seed = seed++;
    streams.push_back(record_replay(random_environment(cfg), kind));
  }
  const std::size_t default_frames = PoolOptions{}.queue_frames;
  for (const std::size_t queue_frames : {std::size_t{1}, std::size_t{2}, default_frames}) {
    for (const int shards : {1, 2}) {
      SCOPED_TRACE("queue_frames " + std::to_string(queue_frames) + ", shards " +
                   std::to_string(shards));
      check_heterogeneous_sessions(shards, 4, streams, queue_frames);
    }
  }
}

TEST(ServePool, ShardRoutingIsStableAndInRange) {
  ServePool pool({.shards = 4, .num_processes = 2});
  EXPECT_EQ(pool.num_shards(), 4);
  for (SessionId id = 0; id < 64; ++id) {
    const int shard = pool.shard_of(id);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
    EXPECT_EQ(pool.shard_of(id), shard);  // stable
  }
  ServePool single({.shards = 1, .num_processes = 2});
  for (SessionId id = 0; id < 8; ++id) EXPECT_EQ(single.shard_of(id), 0);
}

TEST(ServeLifecycle, RejectsBadSessionOperations) {
  ServePool pool({.shards = 2, .num_processes = 3});
  pool.open_session(1);
  EXPECT_THROW(pool.open_session(1), std::invalid_argument);  // duplicate

  std::vector<std::uint8_t> frame;
  encode_events(99, {StreamEvent::internal(0)}, frame);
  EXPECT_THROW(pool.submit(frame), std::invalid_argument);  // unknown session
  EXPECT_THROW(pool.is_rdt_so_far(99), std::invalid_argument);
  EXPECT_THROW(pool.recovery_line(99), std::invalid_argument);
  EXPECT_THROW(pool.session_stats(99), std::invalid_argument);
  EXPECT_THROW(pool.events_consumed(99), std::invalid_argument);
  EXPECT_THROW(pool.close_session(99), std::invalid_argument);

  pool.close_session(1);
  pool.drain();
  frame.clear();
  encode_events(1, {StreamEvent::internal(0)}, frame);
  EXPECT_THROW(pool.submit(frame), std::invalid_argument);  // closed session
  EXPECT_THROW(pool.is_rdt_so_far(1), std::invalid_argument);

  pool.open_session(1);  // the id is reusable after close
  pool.submit(frame);
  pool.drain();
  EXPECT_EQ(pool.events_consumed(1), 1);
}

TEST(ServeLifecycle, SubmitRequiresExactFrameSpan) {
  ServePool pool({.shards = 1, .num_processes = 2});
  pool.open_session(1);
  std::vector<std::uint8_t> frame;
  encode_events(1, {StreamEvent::internal(0)}, frame);
  frame.push_back(0x00);  // trailing byte past the frame end
  EXPECT_THROW(pool.submit(frame), std::invalid_argument);
  EXPECT_THROW(pool.submit(std::span<const std::uint8_t>()), std::invalid_argument);
}

TEST(ServeRejection, MalformedPayloadIsDroppedNotFatal) {
  ServePool pool({.shards = 1, .num_processes = 2});
  pool.open_session(1);

  std::vector<std::uint8_t> good;
  encode_events(1, {StreamEvent::internal(0), StreamEvent::checkpoint(0, 1)},
               good);
  pool.submit(good);

  // Valid envelope (session 1), malformed payload: checkpoint index 0 is
  // rejected at decode time inside the worker, after submit accepted it.
  const std::vector<std::uint8_t> bad_payload = {4, 1, 1, 3, 0};
  ASSERT_EQ(peek_frame(bad_payload, 0).session, 1u);
  pool.submit(bad_payload);

  // Well-formed wire bytes whose *events* the engine rejects (message id 7
  // where the engine requires dense ids): feed() throws, the frame is
  // dropped, the pool keeps serving.
  std::vector<std::uint8_t> bad_sequence;
  encode_events(1, {StreamEvent::send(7, 0, 1)}, bad_sequence);
  pool.submit(bad_sequence);

  good.clear();
  encode_events(1, {StreamEvent::internal(1)}, good);
  pool.submit(good);
  pool.drain();

  const ShardStats stats = pool.shard_stats(0);
  EXPECT_EQ(stats.rejected, 2);
  EXPECT_EQ(stats.frames, 2);  // only the good frames count as fed
  EXPECT_EQ(pool.events_consumed(1), 3);
  OnlineEngine standalone(EngineOptions{2});
  standalone.feed(std::vector<StreamEvent>{StreamEvent::internal(0),
                                           StreamEvent::checkpoint(0, 1),
                                           StreamEvent::internal(1)});
  expect_matches_standalone(pool, 1, standalone);
}

TEST(ServeRecycle, ReopenedSessionReusesEngineBitIdentically) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 12.0;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = 5;
  const std::vector<StreamEvent> warm =
      record_replay(random_environment(cfg), ProtocolKind::kNoForce);
  cfg.seed = 6;
  const std::vector<StreamEvent> fresh =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);

  ServePool pool({.shards = 1, .num_processes = 4});
  pool.open_session(1);
  submit_stream(pool, 1, warm, 32);
  pool.close_session(1);
  pool.drain();
  EXPECT_EQ(pool.shard_stats(0).engines_recycled, 0);

  // One shard, so the reopened session must be served by the warm engine.
  pool.open_session(2);
  EXPECT_EQ(pool.shard_stats(0).engines_recycled, 1);
  submit_stream(pool, 2, fresh, 32);
  pool.drain();
  OnlineEngine standalone(EngineOptions{4});
  standalone.feed(fresh);
  expect_matches_standalone(pool, 2, standalone);
}

TEST(ServeDriver, SummedAnswersMatchStandalone) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 12.0;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = 9;
  const std::vector<StreamEvent> stream =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);

  ServePool pool({.shards = 2, .num_processes = 4});
  DriverOptions options;
  options.sessions = 8;
  options.clients = 4;
  options.batch_events = 16;
  const DriverReport report = run_clients(pool, stream, options);

  OnlineEngine standalone(EngineOptions{4});
  standalone.feed(stream);
  EXPECT_EQ(report.events,
            static_cast<long long>(stream.size()) * options.sessions);
  EXPECT_EQ(report.events_consumed, standalone.events_consumed() * 8);
  EXPECT_EQ(report.rdt_sessions, standalone.is_rdt_so_far() ? 8 : 0);
  EXPECT_EQ(report.rollback_total,
            standalone.recovery_line().value.total_rollback * 8);
  EXPECT_EQ(report.delivered_messages,
            static_cast<long long>(standalone.stats().value.messages) * 8);
  EXPECT_GT(report.cheap_queries, 0);
  EXPECT_EQ(report.cheap_query_us.size(),
            static_cast<std::size_t>(report.cheap_queries));
}

// --- piggyback ingestion ---------------------------------------------------

// The driver generates real codec traffic; every frame's section must
// decode in the pool (the serve-side mirror of the replay measurement) and
// the event answers must stay untouched by the extra section bytes.
TEST(ServePiggyback, DriverCarriesCodecTrafficEndToEnd) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 12.0;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = 11;
  for (ProtocolKind kind :
       {ProtocolKind::kBhmr, ProtocolKind::kFdas, ProtocolKind::kBcs}) {
    SCOPED_TRACE(to_string(kind));
    const std::vector<StreamEvent> stream =
        record_replay(random_environment(cfg), kind);
    ServePool pool({.shards = 2, .num_processes = 4});
    DriverOptions options;
    options.sessions = 6;
    options.clients = 3;
    options.batch_events = 16;
    options.piggyback = kind;
    const DriverReport report = run_clients(pool, stream, options);
    EXPECT_EQ(report.piggyback_frames, report.frames);
    EXPECT_EQ(report.piggyback_rejected, 0);
    EXPECT_GT(report.piggyback_bits, 0);
    OnlineEngine standalone(EngineOptions{4});
    standalone.feed(stream);
    EXPECT_EQ(report.events_consumed, standalone.events_consumed() * 6);
    EXPECT_EQ(report.rdt_sessions, standalone.is_rdt_so_far() ? 6 : 0);
  }
}

// A bad section must not poison the frame's events or the pool: the events
// apply, the section is counted in piggyback_rejected, and the session
// keeps serving.
TEST(ServePiggyback, BadSectionIsCountedNotFatal) {
  ServePool pool({.shards = 1, .num_processes = 3});
  pool.open_session(1);
  // Each frame carries a fresh message (msg ids are single-use in a
  // session's stream); p is the sender for sends AND delivers.
  auto events = [](MsgId m) {
    return std::vector<StreamEvent>{StreamEvent::send(m, 0, 1),
                                    StreamEvent::deliver(m, 0, 1)};
  };
  std::vector<std::uint8_t> frame;

  // Process count disagrees with the pool's engines.
  PiggybackSection pb;
  pb.protocol = ProtocolKind::kFdas;
  pb.codec = PiggybackCodecKind::kDelta;
  pb.num_processes = 5;
  pb.sizes = {0};
  encode_frame(1, events(0), pb, frame);
  pool.submit(frame);

  // Right ids, but the blob is garbage for the declared delta codec (a
  // truncated varint).
  pb.num_processes = 3;
  pb.sizes = {1};
  pb.bytes = {0xFF};
  frame.clear();
  encode_frame(1, events(1), pb, frame);
  pool.submit(frame);

  // A well-formed section decodes: one send whose TDV delta names entry 0
  // going to 1 (count=1, gap=0, delta=1).
  pb.sizes = {3};
  pb.bytes = {1, 0, 1};
  frame.clear();
  encode_frame(1, events(2), pb, frame);
  pool.submit(frame);
  pool.drain();

  const ShardStats stats = pool.shard_stats(0);
  EXPECT_EQ(stats.frames, 3);
  EXPECT_EQ(stats.rejected, 0);  // the events of all three frames applied
  EXPECT_EQ(stats.piggyback_rejected, 2);
  EXPECT_EQ(stats.piggyback_frames, 1);
  EXPECT_EQ(stats.piggyback_bits, 3 * 8);
  EXPECT_EQ(pool.events_consumed(1), 6);
  pool.close_session(1);
}

// A blob longer than the codec's max_encoded_bytes() is refused: the
// frame's events still apply, the section counts in piggyback_rejected and
// the next section starts the session codec over. The decoder's own
// trailing-byte check refuses this padded blob too, so the counters cannot
// tell which check fired; the test guards the outcome, not the pre-check.
TEST(ServePiggyback, OversizedBlobIsRejected) {
  ServePool pool({.shards = 1, .num_processes = 3});
  pool.open_session(1);
  PiggybackSection pb;
  pb.protocol = ProtocolKind::kFdas;
  pb.codec = PiggybackCodecKind::kDelta;
  pb.num_processes = 3;
  const std::size_t cap =
      PiggybackCodec(pb.codec, 3, ProtocolRegistry::instance().info(pb.protocol).shape)
          .max_encoded_bytes();
  // A valid delta encoding (entry 0 goes to 1) padded one byte past the cap.
  pb.bytes = {1, 0, 1};
  pb.bytes.resize(cap + 1, 0);
  pb.sizes = {static_cast<std::uint32_t>(cap + 1)};
  std::vector<std::uint8_t> frame;
  encode_frame(1, std::vector<StreamEvent>{StreamEvent::send(0, 0, 1)}, pb, frame);
  pool.submit(frame);

  pb.bytes = {1, 0, 1};
  pb.sizes = {3};
  frame.clear();
  encode_frame(1, std::vector<StreamEvent>{StreamEvent::send(1, 0, 1)}, pb, frame);
  pool.submit(frame);
  pool.drain();

  const ShardStats stats = pool.shard_stats(0);
  EXPECT_EQ(stats.frames, 2);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.piggyback_rejected, 1);
  EXPECT_EQ(stats.piggyback_frames, 1);
  EXPECT_EQ(stats.piggyback_bits, 3 * 8);
  EXPECT_EQ(pool.events_consumed(1), 2);
}

// --- the coalesced apply step, without a worker thread ---------------------

// A session stream cut into 16-event frames that carry the BHMR piggyback
// section (delta codec, stateful across frames).
struct CodecStream {
  static constexpr std::size_t kBatch = 16;
  int num_processes = 4;
  std::vector<StreamEvent> events;
  std::vector<PiggybackSection> sections;  // one per frame

  std::size_t num_frames() const { return sections.size(); }
  std::span<const StreamEvent> chunk(std::size_t f) const {
    return std::span<const StreamEvent>(events).subspan(
        f * kBatch, std::min(kBatch, events.size() - f * kBatch));
  }
  std::vector<std::uint8_t> frame(std::size_t f) const {
    std::vector<std::uint8_t> out;
    encode_frame(1, chunk(f), sections[f], out);
    return out;
  }
  std::vector<std::vector<std::uint8_t>> frames() const {
    std::vector<std::vector<std::uint8_t>> out;
    for (std::size_t f = 0; f < num_frames(); ++f) out.push_back(frame(f));
    return out;
  }
};

CodecStream codec_stream() {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 12.0;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = 21;
  CodecStream cs;
  cs.events = record_replay(random_environment(cfg), ProtocolKind::kBhmr);
  cs.sections =
      build_piggyback_sections(cs.events, ProtocolKind::kBhmr, 4, CodecStream::kBatch);
  return cs;
}

struct Applied {
  ShardStats stats;
  std::unique_ptr<OnlineEngine> engine;
  SessionCodec codec;
};

// Applies `frames` to a fresh engine through FrameApplier: as one coalesced
// group, or one apply() per frame (the reference: one feed() per frame).
Applied apply_frames(int num_processes, const std::vector<std::vector<std::uint8_t>>& frames,
                     bool coalesce) {
  Applied out{ShardStats{}, std::make_unique<OnlineEngine>(EngineOptions{num_processes}), SessionCodec{}};
  FrameApplier applier(num_processes);
  const std::vector<std::span<const std::uint8_t>> spans(frames.begin(), frames.end());
  if (coalesce) {
    applier.apply(*out.engine, out.codec, spans, out.stats);
  } else {
    for (const auto& frame : spans) applier.apply(*out.engine, out.codec, {&frame, 1}, out.stats);
  }
  return out;
}

// The delta codec's channel shadows are not observable through counters,
// so decode the last section that carries blobs once more through a copy
// of a session codec: equal shadows decode it to equal payloads.
std::vector<std::int64_t> probe_codec(SessionCodec sc, const CodecStream& cs) {
  std::vector<std::int64_t> out;
  if (sc.num_processes == 0) return out;  // unconfigured: nothing to probe
  std::size_t f = cs.sections.size() - 1;
  while (f > 0 && cs.sections[f].sizes.empty()) --f;
  const PiggybackSection& pb = cs.sections[f];
  const auto n = static_cast<std::size_t>(sc.num_processes);
  const std::size_t words = bitdetail::words_for(n);
  std::vector<CkptIndex> tdv(n);
  std::vector<std::uint64_t> simple(words);
  std::vector<std::uint64_t> causal(n * words);
  CkptIndex index = 0;
  PiggybackSlot slot;
  if (sc.shape.tdv) slot.tdv = {tdv.data(), n};
  if (sc.shape.simple) slot.simple = {simple.data(), n};
  if (sc.shape.causal) slot.causal = {causal.data(), n, n};
  if (sc.shape.index) slot.index = &index;
  std::size_t start = 0;
  std::size_t blob = 0;
  for (const StreamEvent& e : cs.chunk(f)) {
    if (e.kind != EventKind::kSend) continue;
    std::size_t offset = 0;
    sc.codec.decode(e.p, e.q, {pb.bytes.data() + start, pb.sizes[blob]}, offset, slot);
    start += pb.sizes[blob++];
    out.insert(out.end(), tdv.begin(), tdv.end());
    out.insert(out.end(), simple.begin(), simple.end());
    out.insert(out.end(), causal.begin(), causal.end());
    out.push_back(index);
  }
  return out;
}

void expect_same_answers(const OnlineEngine& got, const OnlineEngine& want) {
  EXPECT_EQ(got.events_consumed(), want.events_consumed());
  EXPECT_EQ(got.is_rdt_so_far(), want.is_rdt_so_far());
  EXPECT_EQ(got.stats(), want.stats());
  const RecoveryOutcome a = got.recovery_line().value;
  const RecoveryOutcome b = want.recovery_line().value;
  EXPECT_EQ(a.line, b.line);
  EXPECT_EQ(a.rollback_intervals, b.rollback_intervals);
  EXPECT_EQ(a.total_rollback, b.total_rollback);
  EXPECT_EQ(a.worst_fraction, b.worst_fraction);
}

// Coalesced vs one frame at a time: the same answers, the same session
// codec state (probed with `cs`'s last section, if given) and every worker
// counter equal, except feeds. Returns the coalesced run.
Applied expect_coalesced_matches_reference(int num_processes,
                                           const std::vector<std::vector<std::uint8_t>>& frames,
                                           long long wire_rejected,
                                           const CodecStream* cs = nullptr) {
  Applied coalesced = apply_frames(num_processes, frames, true);
  Applied reference = apply_frames(num_processes, frames, false);
  expect_same_answers(*coalesced.engine, *reference.engine);
  EXPECT_EQ(coalesced.codec.num_processes, reference.codec.num_processes);
  if (cs != nullptr) {
    EXPECT_EQ(probe_codec(coalesced.codec, *cs), probe_codec(reference.codec, *cs));
  }
  const ShardStats& c = coalesced.stats;
  const ShardStats& r = reference.stats;
  EXPECT_EQ(c.frames, r.frames);
  EXPECT_EQ(c.events, r.events);
  EXPECT_EQ(c.rejected, r.rejected);
  EXPECT_EQ(c.piggyback_frames, r.piggyback_frames);
  EXPECT_EQ(c.piggyback_bits, r.piggyback_bits);
  EXPECT_EQ(c.piggyback_rejected, r.piggyback_rejected);
  // The reference feeds every frame that decodes once.
  EXPECT_EQ(r.feeds, static_cast<long long>(frames.size()) - wire_rejected);
  return coalesced;
}

// A frame whose payload fails decode_frame (checkpoint index 0), first, in
// the middle and last: rejected with no events, one feed for the rest.
TEST(ServeApply, BadWirePayloadAnywhereInTheGroup) {
  const CodecStream cs = codec_stream();
  const std::vector<std::uint8_t> bad_payload = {4, 1, 1, 3, 0};
  OnlineEngine standalone(EngineOptions{cs.num_processes});
  standalone.feed(cs.events);
  const std::size_t n = cs.num_frames();
  ASSERT_GE(n, 8u);
  for (const std::size_t at : {std::size_t{0}, n / 2, n}) {
    SCOPED_TRACE("bad payload at " + std::to_string(at));
    std::vector<std::vector<std::uint8_t>> frames = cs.frames();
    frames.insert(frames.begin() + static_cast<std::ptrdiff_t>(at), bad_payload);
    const Applied coalesced = expect_coalesced_matches_reference(cs.num_processes, frames, 1, &cs);
    EXPECT_EQ(coalesced.stats.rejected, 1);
    EXPECT_EQ(coalesced.stats.frames, static_cast<long long>(n));
    EXPECT_EQ(coalesced.stats.events, static_cast<long long>(cs.events.size()));
    EXPECT_EQ(coalesced.stats.feeds, 1);
    EXPECT_EQ(coalesced.stats.piggyback_frames, static_cast<long long>(n));
    EXPECT_EQ(coalesced.stats.piggyback_rejected, 0);
    expect_same_answers(*coalesced.engine, standalone);
  }
}

// Well-formed wire bytes the engine refuses mid-frame (message id far past
// the dense next id): the event before the fault stays applied, the frame
// is rejected, and feeding resumes at the next frame — a second feed().
// Then a replayed frame whose section is real: the engine refuses its
// events, so its section must not reach the session codec.
TEST(ServeApply, EngineRejectedFrameMidGroup) {
  const CodecStream cs = codec_stream();
  std::vector<std::uint8_t> bad_sequence;
  encode_events(1,
                {StreamEvent::internal(0), StreamEvent::send(1 << 20, 0, 1),
                 StreamEvent::internal(1)},
                bad_sequence);
  std::vector<std::vector<std::uint8_t>> frames = cs.frames();
  const std::size_t mid = frames.size() / 2;
  frames.insert(frames.begin() + static_cast<std::ptrdiff_t>(mid), bad_sequence);
  const Applied coalesced = expect_coalesced_matches_reference(cs.num_processes, frames, 0, &cs);
  EXPECT_EQ(coalesced.stats.rejected, 1);
  EXPECT_EQ(coalesced.stats.feeds, 2);
  EXPECT_EQ(coalesced.stats.events, static_cast<long long>(cs.events.size()));
  EXPECT_EQ(coalesced.engine->events_consumed(), static_cast<long long>(cs.events.size()) + 1);
  EXPECT_EQ(coalesced.stats.piggyback_rejected, 0);

  // The replay of frame `mid` is refused at its first non-internal event
  // (a taken message id, a delivered message or a stale checkpoint index),
  // and its section carries blobs for the frame's sends.
  const std::span<const StreamEvent> chunk = cs.chunk(mid);
  std::size_t internals = 0;
  while (internals < chunk.size() && chunk[internals].kind == EventKind::kInternal) ++internals;
  ASSERT_LT(internals, chunk.size());
  ASSERT_FALSE(cs.sections[mid].sizes.empty());
  frames = cs.frames();
  frames.insert(frames.begin() + static_cast<std::ptrdiff_t>(mid + 1), cs.frame(mid));
  Applied replayed = expect_coalesced_matches_reference(cs.num_processes, frames, 0, &cs);
  EXPECT_EQ(replayed.stats.rejected, 1);
  EXPECT_EQ(replayed.stats.feeds, 2);
  EXPECT_EQ(replayed.stats.piggyback_frames, static_cast<long long>(cs.num_frames()));
  EXPECT_EQ(replayed.engine->events_consumed(),
            static_cast<long long>(cs.events.size() + internals));
  // The codec ends where the stream without the replay leaves it.
  Applied clean = apply_frames(cs.num_processes, cs.frames(), true);
  const std::vector<std::int64_t> probe = probe_codec(clean.codec, cs);
  EXPECT_FALSE(probe.empty());
  EXPECT_EQ(probe_codec(replayed.codec, cs), probe);
}

// Garbage piggyback sections mid-stream unconfigure the delta codec; later
// sections restart it against zeroed shadows. The events all apply, and the
// codec walks the same states as with one frame per apply().
TEST(ServeApply, BadPiggybackSectionsMidGroup) {
  const CodecStream cs = codec_stream();
  std::vector<std::vector<std::uint8_t>> frames = cs.frames();
  for (const std::size_t f : {frames.size() / 3, frames.size() / 2}) {
    PiggybackSection garbage = cs.sections[f];
    std::fill(garbage.bytes.begin(), garbage.bytes.end(), std::uint8_t{0xFF});
    frames[f].clear();
    encode_frame(1, cs.chunk(f), garbage, frames[f]);
  }
  const Applied coalesced = expect_coalesced_matches_reference(cs.num_processes, frames, 0, &cs);
  EXPECT_EQ(coalesced.stats.rejected, 0);
  EXPECT_EQ(coalesced.stats.feeds, 1);
  EXPECT_GE(coalesced.stats.piggyback_rejected, 2);
  EXPECT_EQ(coalesced.stats.piggyback_frames + coalesced.stats.piggyback_rejected,
            static_cast<long long>(frames.size()));
  OnlineEngine standalone(EngineOptions{cs.num_processes});
  standalone.feed(cs.events);
  expect_same_answers(*coalesced.engine, standalone);
}

// Every fault at once, then a group long enough to be fed in two capped
// spans with an engine fault in the second.
TEST(ServeApply, MixedFaultsAndCappedSpans) {
  const CodecStream cs = codec_stream();
  std::vector<std::vector<std::uint8_t>> frames = cs.frames();
  PiggybackSection garbage = cs.sections[1];
  std::fill(garbage.bytes.begin(), garbage.bytes.end(), std::uint8_t{0xFF});
  frames[1].clear();
  encode_frame(1, cs.chunk(1), garbage, frames[1]);
  std::vector<std::uint8_t> bad_sequence;
  encode_events(1, {StreamEvent::send(1 << 20, 0, 1)}, bad_sequence);
  frames.insert(frames.begin() + 3, bad_sequence);
  frames.insert(frames.begin(), std::vector<std::uint8_t>{4, 1, 1, 3, 0});
  frames.push_back(std::vector<std::uint8_t>{4, 1, 1, 3, 0});
  const Applied mixed = expect_coalesced_matches_reference(cs.num_processes, frames, 2, &cs);
  EXPECT_EQ(mixed.stats.rejected, 3);
  EXPECT_EQ(mixed.stats.feeds, 2);

  // 20 frames of 7000 internal events: the first span closes past
  // kMaxSpanEvents after 10 frames; frame 15 names a process out of range.
  ASSERT_EQ(FrameApplier::kMaxSpanEvents, std::size_t{1} << 16);
  const std::vector<StreamEvent> internals(7000, StreamEvent::internal(0));
  const std::vector<StreamEvent> out_of_range(7000, StreamEvent::internal(3));
  std::vector<std::vector<std::uint8_t>> long_group(20);
  for (std::size_t f = 0; f < long_group.size(); ++f)
    encode_frame(1, f == 15 ? out_of_range : internals, long_group[f]);
  const Applied capped = expect_coalesced_matches_reference(2, long_group, 0);
  EXPECT_EQ(capped.stats.rejected, 1);
  EXPECT_EQ(capped.stats.feeds, 3);
  EXPECT_EQ(capped.stats.events, 19 * 7000);
  EXPECT_EQ(capped.engine->events_consumed(), 19 * 7000);
}

// --- TSan targets (the tsan CI job runs ServeConcurrency.*) ---------------

// Producer threads submitting into shared shards while dedicated query
// threads hammer every session's lock-free read path: no data race, and
// afterwards every session still answers bit-identically.
TEST(ServeConcurrency, QueryThreadsDuringConcurrentIngest) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 20.0;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = 11;
  const std::vector<StreamEvent> stream =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);

  constexpr int kSessions = 8;
  constexpr int kProducers = 4;
  ServePool pool({.shards = 2, .num_processes = 4, .queue_frames = 16});
  for (SessionId id = 1; id <= kSessions; ++id) pool.open_session(id);

  std::atomic<bool> done{false};
  std::vector<std::thread> queriers;
  std::atomic<long long> query_fold{0};  // keeps the answers observable
  for (int t = 0; t < 2; ++t) {
    queriers.emplace_back([&pool, &done, &query_fold] {
      long long fold = 0;
      while (!done.load(std::memory_order_relaxed)) {
        for (SessionId id = 1; id <= kSessions; ++id) {
          fold += pool.is_rdt_so_far(id) ? 1 : 0;
          fold += pool.session_stats(id).value.checkpoints;
          fold += pool.recovery_line(id).value.total_rollback;
        }
      }
      query_fold.fetch_add(fold, std::memory_order_relaxed);
    });
  }

  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&pool, &stream, t] {
      // Producer t owns sessions t+1 and t+1+kProducers; tiny batches keep
      // the shard queues churning against the bounded-capacity waiters.
      for (const SessionId id :
           {static_cast<SessionId>(t + 1),
            static_cast<SessionId>(t + 1 + kProducers)})
        submit_stream(pool, id, stream, 5);
    });
  }
  for (std::thread& p : producers) p.join();
  pool.drain();
  done.store(true, std::memory_order_relaxed);
  for (std::thread& q : queriers) q.join();
  EXPECT_GE(query_fold.load(), 0);

  OnlineEngine standalone(EngineOptions{4});
  standalone.feed(stream);
  for (SessionId id = 1; id <= kSessions; ++id)
    expect_matches_standalone(pool, id, standalone);
}

// The full driver workload — interleaved timed queries, session closes, a
// second round on recycled engines — under the race detector.
TEST(ServeConcurrency, DriverWorkloadWithRecycling) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 15.0;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = 13;
  const std::vector<StreamEvent> stream =
      record_replay(random_environment(cfg), ProtocolKind::kFdas);

  ServePool pool({.shards = 4, .num_processes = 4, .queue_frames = 8});
  DriverOptions options;
  options.sessions = 16;
  options.clients = 4;
  options.batch_events = 8;
  options.cheap_query_stride = 2;
  options.recovery_query_stride = 5;

  OnlineEngine standalone(EngineOptions{4});
  standalone.feed(stream);
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const DriverReport report = run_clients(pool, stream, options);
    EXPECT_EQ(report.events_consumed, standalone.events_consumed() * 16);
    EXPECT_EQ(report.rdt_sessions, standalone.is_rdt_so_far() ? 16 : 0);
    EXPECT_EQ(report.rollback_total,
              standalone.recovery_line().value.total_rollback * 16);
  }
  long long recycled = 0;
  for (int s = 0; s < pool.num_shards(); ++s)
    recycled += pool.shard_stats(s).engines_recycled;
  EXPECT_EQ(recycled, 16);  // round 2 reopened every engine from round 1
}

}  // namespace
}  // namespace rdt::serve
