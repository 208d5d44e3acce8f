// OnlineEngine vs the batch pipeline: the engine's answers (RDT verdict,
// recovery outcome, z-reach matrix, stats) must be bit-identical to running
// the full batch analysis on the *closed prefix* — the events observed so
// far minus the sends of still-in-flight messages, finalized with virtual
// checkpoints — at EVERY prefix of the stream, across all protocol kinds,
// three environments and several seeds; plus hand-built edge cases, a
// batched-vs-single bit-identity sweep over feed() batch sizes, and
// TSan-covered concurrent-reader cases (OnlineConcurrency.*).
#include <gtest/gtest.h>

#include <atomic>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ccp/builder.hpp"
#include "core/characterizations.hpp"
#include "core/pattern_stats.hpp"
#include "core/rdt_checker.hpp"
#include "online/engine.hpp"
#include "protocols/registry.hpp"
#include "recovery/recovery_line.hpp"
#include "sim/environments.hpp"
#include "sim/replay.hpp"

namespace rdt {
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

void feed_one(OnlineEngine& engine, const StreamEvent& op) {
  switch (op.kind) {
    case EventKind::kSend:
      engine.on_send(op.msg, op.p, op.q);
      break;
    case EventKind::kDeliver:
      engine.on_deliver(op.msg, op.p, op.q);
      break;
    case EventKind::kInternal:
      engine.on_internal(op.p);
      break;
    case EventKind::kCheckpoint:
      engine.on_checkpoint(op.p, op.index);
      break;
  }
}

// The batch pipeline's view of the prefix ops[0..len): drop sends whose
// delivery lies at or beyond len (message ids are remapped densely), close
// with virtual finals — exactly what the engine models.
Pattern closed_prefix(int num_processes, const std::vector<StreamEvent>& ops,
                      std::size_t len,
                      const std::vector<std::size_t>& deliver_pos) {
  PatternBuilder b(num_processes);
  std::vector<MsgId> remap(deliver_pos.size(), kNoMsg);
  for (std::size_t i = 0; i < len; ++i) {
    const StreamEvent& op = ops[i];
    switch (op.kind) {
      case EventKind::kSend:
        if (deliver_pos[static_cast<std::size_t>(op.msg)] < len)
          remap[static_cast<std::size_t>(op.msg)] = b.send(op.p, op.q);
        break;
      case EventKind::kDeliver:
        b.deliver(remap[static_cast<std::size_t>(op.msg)]);
        break;
      case EventKind::kInternal:
        b.internal(op.p);
        break;
      case EventKind::kCheckpoint:
        b.checkpoint(op.p);
        break;
    }
  }
  return b.build();
}

void expect_prefix_equivalence(const OnlineEngine& engine, const Pattern& pat,
                               std::size_t len) {
  SCOPED_TRACE("prefix length " + std::to_string(len));
  const RdtAnalyses analyses(pat);

  EXPECT_EQ(engine.is_rdt_so_far(), satisfies_rdt(analyses));

  const RecoveryOutcome online = engine.recovery_line().value;
  const RecoveryOutcome batch = recover_after_failure(pat, 0);
  EXPECT_EQ(online.line, batch.line);
  EXPECT_EQ(online.rollback_intervals, batch.rollback_intervals);
  EXPECT_EQ(online.total_rollback, batch.total_rollback);
  EXPECT_EQ(online.worst_fraction, batch.worst_fraction);  // bit-identical

  const PatternStats ps = compute_stats(analyses);
  const OnlineStats os = engine.stats().value;
  EXPECT_EQ(os.processes, ps.processes);
  EXPECT_EQ(os.messages, ps.messages);
  EXPECT_EQ(os.events, ps.events);
  EXPECT_EQ(os.checkpoints, ps.checkpoints);
  EXPECT_EQ(os.virtual_finals, ps.virtual_finals);
  EXPECT_EQ(os.causal_junctions, ps.causal_junctions);
  EXPECT_EQ(os.noncausal_junctions, ps.noncausal_junctions);

  const ReachabilityClosure& closure = analyses.closure();
  for (int u = 0; u < pat.total_ckpts(); ++u)
    for (int v = 0; v < pat.total_ckpts(); ++v)
      ASSERT_EQ(engine.zreach(pat.node_ckpt(u), pat.node_ckpt(v)),
                ZreachResult::make(closure.msg_reach(u, v)))
          << "zreach(" << pat.node_ckpt(u) << ", " << pat.node_ckpt(v) << ")";
}

// Every cheap live answer of the two engines, compared: the batched engine
// must be indistinguishable from the single-event one at each boundary.
void expect_same_live_state(const OnlineEngine& a, const OnlineEngine& b) {
  ASSERT_EQ(a.num_processes(), b.num_processes());
  EXPECT_EQ(a.events_consumed(), b.events_consumed());
  EXPECT_EQ(a.is_rdt_so_far(), b.is_rdt_so_far());
  EXPECT_EQ(a.stats().value, b.stats().value);
  for (ProcessId p = 0; p < a.num_processes(); ++p) {
    SCOPED_TRACE("process " + std::to_string(p));
    EXPECT_EQ(a.current_interval(p), b.current_interval(p));
    EXPECT_EQ(a.live_tdv(p), b.live_tdv(p));
    EXPECT_EQ(a.live_clock(p), b.live_clock(p));
  }
}

std::vector<std::size_t> deliver_positions(
    const std::vector<StreamEvent>& ops) {
  MsgId max_msg = -1;
  for (const StreamEvent& op : ops)
    if (op.msg > max_msg) max_msg = op.msg;
  std::vector<std::size_t> pos(static_cast<std::size_t>(max_msg + 1),
                               ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i)
    if (ops[i].kind == EventKind::kDeliver)
      pos[static_cast<std::size_t>(ops[i].msg)] = i;
  return pos;
}

void check_all_prefixes(int num_processes,
                        const std::vector<StreamEvent>& ops) {
  const std::vector<std::size_t> deliver_pos = deliver_positions(ops);
  OnlineEngine engine(EngineOptions{num_processes});
  expect_prefix_equivalence(
      engine, closed_prefix(num_processes, ops, 0, deliver_pos), 0);
  for (std::size_t len = 1; len <= ops.size(); ++len) {
    feed_one(engine, ops[len - 1]);
    expect_prefix_equivalence(
        engine, closed_prefix(num_processes, ops, len, deliver_pos), len);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

std::vector<StreamEvent> record_replay(const Trace& trace, ProtocolKind kind) {
  Recorder recorder;
  replay(trace, kind, {.online = &recorder});
  return recorder.ops;
}

TEST(OnlineEquivalence, RandomEnvironmentAllProtocolsAllSeeds) {
  for (const ProtocolKind kind : all_protocol_kinds()) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(ProtocolRegistry::instance().info(kind).id + " seed " +
                   std::to_string(seed));
      RandomEnvConfig cfg;
      cfg.num_processes = 4;
      cfg.duration = 12.0;
      cfg.basic_ckpt_mean = 5.0;
      cfg.seed = seed;
      check_all_prefixes(cfg.num_processes,
                         record_replay(random_environment(cfg), kind));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(OnlineEquivalence, GroupEnvironmentAllProtocolsAllSeeds) {
  for (const ProtocolKind kind : all_protocol_kinds()) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(ProtocolRegistry::instance().info(kind).id + " seed " +
                   std::to_string(seed));
      GroupEnvConfig cfg;
      cfg.num_groups = 2;
      cfg.group_size = 3;
      cfg.overlap = 1;
      cfg.duration = 10.0;
      cfg.basic_ckpt_mean = 5.0;
      cfg.seed = seed;
      check_all_prefixes(cfg.num_processes(),
                         record_replay(group_environment(cfg), kind));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(OnlineEquivalence, ClientServerEnvironmentAllProtocolsAllSeeds) {
  for (const ProtocolKind kind : all_protocol_kinds()) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(ProtocolRegistry::instance().info(kind).id + " seed " +
                   std::to_string(seed));
      ClientServerEnvConfig cfg;
      cfg.num_servers = 3;
      cfg.num_requests = 8;
      cfg.basic_ckpt_mean = 5.0;
      cfg.seed = seed;
      check_all_prefixes(cfg.num_processes(),
                         record_replay(client_server_environment(cfg), kind));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Edge cases a random environment rarely hits in one stream: an idle
// process, internal events, back-to-back checkpoints, a non-causal junction
// whose outgoing message is delivered much later (the deferred-verdict
// path), and trailing undelivered sends.
TEST(OnlineEquivalence, HandBuiltEdgeCases) {
  const ProcessId a = 0, b = 1, c = 2;  // process 3 stays idle throughout
  std::vector<StreamEvent> ops;
  const auto send = [&](MsgId m, ProcessId s, ProcessId r) {
    ops.push_back(StreamEvent::send(m, s, r));
  };
  const auto deliver = [&](MsgId m, ProcessId s, ProcessId r) {
    ops.push_back(StreamEvent::deliver(m, s, r));
  };
  const auto internal = [&](ProcessId p) {
    ops.push_back(StreamEvent::internal(p));
  };
  const auto checkpoint = [&](ProcessId p, CkptIndex x) {
    ops.push_back(StreamEvent::checkpoint(p, x));
  };

  internal(a);
  send(0, b, c);        // m0: b -> c, sent before b delivers m1 (non-causal
  send(1, a, b);        //     junction once both are delivered)
  deliver(1, a, b);
  checkpoint(b, 1);
  checkpoint(b, 2);     // back-to-back checkpoints (empty interval)
  send(2, c, a);        // m2 in flight across several checkpoints
  deliver(0, b, c);     // junction (m1, m0) materializes only here
  checkpoint(c, 1);
  deliver(2, c, a);
  checkpoint(a, 1);
  send(3, a, c);        // trailing undelivered send
  send(4, b, a);        // another, from a different process

  check_all_prefixes(4, ops);
}

// A junction discovered after its target checkpoint froze: m' is delivered
// at P2, P2 checkpoints, and only then is m delivered at P1 — the engine
// must judge the junction against the saved TDV history, not the live TDV.
TEST(OnlineEquivalence, JunctionAgainstFrozenTarget) {
  const std::vector<StreamEvent> ops = {
      StreamEvent::send(0, 1, 2),        // m' : P1 -> P2
      StreamEvent::deliver(0, 1, 2),
      StreamEvent::checkpoint(2, 1),     // target C_{2,1} freezes
      StreamEvent::send(1, 0, 1),        // m : P0 -> P1
      StreamEvent::deliver(1, 0, 1),     // junction (m, m') discovered now
      StreamEvent::checkpoint(0, 1),
      StreamEvent::checkpoint(1, 1),
  };
  check_all_prefixes(3, ops);
}

// feed() must be bit-identical to the same events fed one at a time: at
// every batch boundary the two engines answer every cheap query the same,
// and at the end the batched engine matches the batch pipeline exactly
// (including the full z-reach matrix).
void check_batched_vs_single(int num_processes,
                             const std::vector<StreamEvent>& ops,
                             std::size_t batch) {
  SCOPED_TRACE("batch size " + std::to_string(batch));
  OnlineEngine single(EngineOptions{num_processes});
  OnlineEngine batched(EngineOptions{num_processes});
  const std::span<const StreamEvent> all(ops);
  for (std::size_t i = 0; i < all.size(); i += batch) {
    const std::size_t n = std::min(batch, all.size() - i);
    batched.feed(all.subspan(i, n));
    for (std::size_t k = 0; k < n; ++k) feed_one(single, all[i + k]);
    expect_same_live_state(single, batched);
    if (::testing::Test::HasFatalFailure()) return;
  }
  const std::vector<std::size_t> deliver_pos = deliver_positions(ops);
  expect_prefix_equivalence(
      batched, closed_prefix(num_processes, ops, ops.size(), deliver_pos),
      ops.size());
}

TEST(OnlineBatched, MatchesSingleAllProtocolsEnvironmentsBatchSizes) {
  constexpr std::size_t kBatchSizes[] = {1, 7, 64, 4096};
  for (const ProtocolKind kind : all_protocol_kinds()) {
    SCOPED_TRACE(ProtocolRegistry::instance().info(kind).id);
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      RandomEnvConfig rnd;
      rnd.num_processes = 4;
      rnd.duration = 25.0;
      rnd.basic_ckpt_mean = 5.0;
      rnd.seed = seed;
      GroupEnvConfig grp;
      grp.num_groups = 2;
      grp.group_size = 3;
      grp.overlap = 1;
      grp.duration = 20.0;
      grp.basic_ckpt_mean = 5.0;
      grp.seed = seed;
      ClientServerEnvConfig cs;
      cs.num_servers = 3;
      cs.num_requests = 16;
      cs.basic_ckpt_mean = 5.0;
      cs.seed = seed;
      const struct {
        const char* name;
        int processes;
        std::vector<StreamEvent> ops;
      } envs[] = {
          {"random", rnd.num_processes,
           record_replay(random_environment(rnd), kind)},
          {"group", grp.num_processes(),
           record_replay(group_environment(grp), kind)},
          {"client_server", cs.num_processes(),
           record_replay(client_server_environment(cs), kind)},
      };
      for (const auto& env : envs) {
        SCOPED_TRACE(env.name);
        for (const std::size_t batch : kBatchSizes) {
          check_batched_vs_single(env.processes, env.ops, batch);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

// feed() with an empty span is a no-op, and a batch can span the whole
// stream in one call.
TEST(OnlineBatched, EmptyAndWholeStreamBatches) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 12.0;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = 3;
  const std::vector<StreamEvent> ops =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);

  OnlineEngine engine(EngineOptions{cfg.num_processes});
  engine.feed({});  // no-op
  EXPECT_EQ(engine.events_consumed(), 0);
  engine.feed(ops);
  engine.feed({});
  EXPECT_EQ(engine.events_consumed(),
            static_cast<long long>(ops.size()));

  OnlineEngine single(EngineOptions{cfg.num_processes});
  for (const StreamEvent& op : ops) feed_one(single, op);
  expect_same_live_state(single, engine);
}

// reset() must hand back an engine bit-identical to a freshly constructed
// one: warm an engine on one stream (optionally only part of it, so
// in-flight messages sit in the recycled pools), reset, then replay a
// different stream into the recycled and a fresh engine side by side —
// every live answer must match at each batch boundary, and the end state
// must match the batch pipeline exactly.
void check_reset_matches_fresh(int warm_processes,
                               const std::vector<StreamEvent>& warm,
                               std::size_t warm_len, int num_processes,
                               const std::vector<StreamEvent>& ops) {
  SCOPED_TRACE("warmed on " + std::to_string(warm_len) + " of " +
               std::to_string(warm.size()) + " events, reset " +
               std::to_string(warm_processes) + " -> " +
               std::to_string(num_processes) + " processes");
  OnlineEngine recycled(EngineOptions{warm_processes});
  recycled.feed(std::span<const StreamEvent>(warm).first(warm_len));
  recycled.reset(EngineOptions{num_processes});

  OnlineEngine fresh(EngineOptions{num_processes});
  expect_same_live_state(fresh, recycled);
  const std::span<const StreamEvent> all(ops);
  constexpr std::size_t kBatch = 32;
  for (std::size_t i = 0; i < all.size(); i += kBatch) {
    const std::size_t n = std::min(kBatch, all.size() - i);
    recycled.feed(all.subspan(i, n));
    fresh.feed(all.subspan(i, n));
    expect_same_live_state(fresh, recycled);
    if (::testing::Test::HasFatalFailure()) return;
  }
  const std::vector<std::size_t> deliver_pos = deliver_positions(ops);
  expect_prefix_equivalence(
      recycled, closed_prefix(num_processes, ops, ops.size(), deliver_pos),
      ops.size());
}

TEST(OnlineReset, RecycledEngineMatchesFreshSameProcessCount) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 12.0;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = 21;
  const std::vector<StreamEvent> warm =
      record_replay(random_environment(cfg), ProtocolKind::kNoForce);
  cfg.seed = 22;
  const std::vector<StreamEvent> ops =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);

  check_reset_matches_fresh(4, warm, warm.size(), 4, ops);
  // Mid-stream reset: undelivered sends' TDVs/clocks go back to the pools.
  check_reset_matches_fresh(4, warm, warm.size() / 2, 4, ops);
}

TEST(OnlineReset, RecycledEngineMatchesFreshAcrossProcessCounts) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 12.0;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = 23;
  const std::vector<StreamEvent> warm =
      record_replay(random_environment(cfg), ProtocolKind::kFdas);
  RandomEnvConfig narrow;
  narrow.num_processes = 3;
  narrow.duration = 12.0;
  narrow.basic_ckpt_mean = 5.0;
  narrow.seed = 24;
  const std::vector<StreamEvent> ops =
      record_replay(random_environment(narrow), ProtocolKind::kBhmr);

  check_reset_matches_fresh(4, warm, warm.size(), 3, ops);  // shrink
  check_reset_matches_fresh(3, ops, ops.size(), 4, warm);   // grow
}

TEST(OnlineReset, RepeatedResetStaysFresh) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 12.0;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = 25;
  const std::vector<StreamEvent> ops =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);

  OnlineEngine recycled(EngineOptions{cfg.num_processes});
  OnlineEngine fresh(EngineOptions{cfg.num_processes});
  fresh.feed(ops);
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    recycled.reset(EngineOptions{cfg.num_processes});
    EXPECT_EQ(recycled.events_consumed(), 0);
    recycled.feed(ops);
    expect_same_live_state(fresh, recycled);
    if (::testing::Test::HasFatalFailure()) return;
  }
  const std::vector<std::size_t> deliver_pos = deliver_positions(ops);
  expect_prefix_equivalence(
      recycled,
      closed_prefix(cfg.num_processes, ops, ops.size(), deliver_pos),
      ops.size());
}

TEST(OnlineConcurrency, QueriesDuringFeed) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 40.0;
  cfg.basic_ckpt_mean = 8.0;
  cfg.seed = 7;
  const std::vector<StreamEvent> ops =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);

  OnlineEngine engine(EngineOptions{cfg.num_processes});
  std::atomic<bool> done{false};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&engine, &done] {
      long long sink = 0;
      while (!done.load(std::memory_order_acquire)) {
        sink += engine.is_rdt_so_far() ? 1 : 0;
        sink += engine.recovery_line().value.total_rollback;
        sink += engine.stats().value.noncausal_junctions;
        sink += engine.zreach({0, 0}, {1, 0}).value ? 1 : 0;
        sink += engine.live_tdv(0).size();
      }
      EXPECT_GE(sink, 0);
    });
  }

  for (const StreamEvent& op : ops) feed_one(engine, op);
  done.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();

  // The feed's end state must still match the batch pipeline exactly.
  const std::vector<std::size_t> deliver_pos = deliver_positions(ops);
  expect_prefix_equivalence(
      engine,
      closed_prefix(cfg.num_processes, ops, ops.size(), deliver_pos),
      ops.size());
}

// The seqlock torture case: one feeder streaming batches while FOUR reader
// threads hammer every query — the wait-free ones (which retry under the
// seqlock) and the heavy cached ones (which serialize on the reader mutex
// only). Run under TSan in CI, this is the proof the read path takes no
// lock the feeder holds; the end state must still be exact.
TEST(OnlineConcurrency, SeqlockTortureFourReaders) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 60.0;
  cfg.basic_ckpt_mean = 8.0;
  cfg.seed = 11;
  const std::vector<StreamEvent> ops =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);

  OnlineEngine engine(EngineOptions{cfg.num_processes});
  std::atomic<bool> done{false};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&engine, &done, t] {
      long long sink = 0;
      ProcessId p = static_cast<ProcessId>(t % engine.num_processes());
      while (!done.load(std::memory_order_acquire)) {
        sink += engine.is_rdt_so_far() ? 1 : 0;
        sink += engine.events_consumed();
        sink += engine.current_interval(p);
        sink += engine.live_tdv(p).back();
        sink += engine.live_clock(p).get(p);
        const OnlineStats s = engine.stats().value;
        sink += s.events + s.checkpoints;
        if (t % 2 == 0) {
          sink += engine.recovery_line().value.total_rollback;
          sink += engine.zreach({p, 0}, {0, 0}).value ? 1 : 0;
        }
        p = static_cast<ProcessId>((p + 1) % engine.num_processes());
      }
      EXPECT_GE(sink, 0);
    });
  }

  const std::span<const StreamEvent> all(ops);
  constexpr std::size_t kBatch = 64;
  for (std::size_t i = 0; i < all.size(); i += kBatch)
    engine.feed(all.subspan(i, std::min(kBatch, all.size() - i)));
  done.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();

  const std::vector<std::size_t> deliver_pos = deliver_positions(ops);
  expect_prefix_equivalence(
      engine,
      closed_prefix(cfg.num_processes, ops, ops.size(), deliver_pos),
      ops.size());
}

// Readers racing compaction: the feeder interleaves feed() batches with
// compact() passes (which rebuild the published logs under the seqlock and
// the reader-cache under its mutex) while three reader threads hammer every
// query — including zreach on ids that cross the moving retention horizon,
// whose status may legitimately flip to kEvicted but must never tear or
// return a guessed value. Run under TSan in CI; the retained end state must
// still match a keep-all engine's.
TEST(OnlineConcurrency, ReadersAcrossCompaction) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 60.0;
  cfg.basic_ckpt_mean = 4.0;
  cfg.seed = 19;
  const std::vector<StreamEvent> ops =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);

  RetentionPolicy policy;
  policy.enabled = true;
  policy.compact_every_events = 0;  // the feeder compacts explicitly below
  policy.min_evictable_checkpoints = 1;
  OnlineEngine engine(EngineOptions{cfg.num_processes, policy});
  std::atomic<bool> done{false};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&engine, &done, t] {
      long long sink = 0;
      ProcessId p = static_cast<ProcessId>(t % engine.num_processes());
      while (!done.load(std::memory_order_acquire)) {
        sink += engine.is_rdt_so_far() ? 1 : 0;
        sink += engine.stats().value.checkpoints;
        sink += engine.first_retained(p);
        sink += engine.retention_stats().evicted_checkpoints;
        const ZreachResult z = engine.zreach({p, 0}, {0, 0});
        sink += z.ok() && z.value ? 1 : 0;
        sink += engine.recovery_line().value.total_rollback;
        p = static_cast<ProcessId>((p + 1) % engine.num_processes());
      }
      EXPECT_GE(sink, 0);
    });
  }

  const std::span<const StreamEvent> all(ops);
  constexpr std::size_t kBatch = 48;
  std::size_t batches = 0;
  for (std::size_t i = 0; i < all.size(); i += kBatch) {
    engine.feed(all.subspan(i, std::min(kBatch, all.size() - i)));
    if (++batches % 4 == 0) engine.compact();
  }
  engine.compact();
  done.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();

  // Retained-state answers still match a keep-all engine.
  OnlineEngine keepall(EngineOptions{cfg.num_processes});
  keepall.feed(ops);
  EXPECT_EQ(engine.is_rdt_so_far(), keepall.is_rdt_so_far());
  EXPECT_EQ(engine.stats().value, keepall.stats().value);
  const RecoveryOutcome got = engine.recovery_line().value;
  const RecoveryOutcome want = keepall.recovery_line().value;
  EXPECT_EQ(got.line, want.line);
  EXPECT_EQ(got.total_rollback, want.total_rollback);
  EXPECT_GT(engine.retention_stats().compactions, 0);
}

}  // namespace
}  // namespace rdt
