// OnlineEngine vs the batch pipeline: the engine's answers (RDT verdict,
// recovery outcome, z-reach matrix, stats) must be bit-identical to running
// the full batch analysis on the *closed prefix* — the events observed so
// far minus the sends of still-in-flight messages, finalized with virtual
// checkpoints — at EVERY prefix of the stream, across all protocol kinds,
// three environments and several seeds; plus hand-built edge cases, a
// batched-vs-single bit-identity sweep over feed() batch sizes, and
// TSan-covered concurrent-reader cases (OnlineConcurrency.*).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
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

// A precondition failure at event k of a batch commits events [0, k): they
// stay applied and readers see them, exactly as after k single events. A
// failed single event, even one naming a process that does not exist,
// changes nothing.
TEST(OnlineBatched, FailedEventCommitsThePrefixBeforeIt) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 20.0;
  cfg.basic_ckpt_mean = 4.0;
  cfg.seed = 5;
  const std::vector<StreamEvent> ops = record_replay(random_environment(cfg), ProtocolKind::kBhmr);
  ASSERT_GT(ops.size(), 40u);
  const std::span<const StreamEvent> all(ops);
  constexpr std::size_t kGood = 30;

  OnlineEngine twin(EngineOptions{cfg.num_processes});
  twin.feed(all.first(kGood));

  std::vector<StreamEvent> batch(ops.begin(), ops.begin() + kGood);
  batch.push_back(StreamEvent::internal(cfg.num_processes));  // no such process
  batch.insert(batch.end(), ops.begin() + kGood, ops.end());
  OnlineEngine engine(EngineOptions{cfg.num_processes});
  EXPECT_THROW(engine.feed(batch), std::invalid_argument);
  expect_same_live_state(twin, engine);

  EXPECT_THROW(engine.on_internal(cfg.num_processes), std::invalid_argument);
  EXPECT_THROW(engine.on_deliver(0, 0, -1), std::invalid_argument);
  EXPECT_THROW(engine.on_checkpoint(0, 1000), std::invalid_argument);
  expect_same_live_state(twin, engine);

  // The engine carries on from the committed prefix.
  engine.feed(all.subspan(kGood));
  const std::vector<std::size_t> deliver_pos = deliver_positions(ops);
  expect_prefix_equivalence(
      engine, closed_prefix(cfg.num_processes, ops, ops.size(), deliver_pos), ops.size());
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

// A recovery answer as the commit check compares it: the line plus each
// process's rollback distance, which also pins the durable indexes the
// sweep was bounded by (they move at every checkpoint, the line seldom).
using LineKey = std::pair<std::vector<CkptIndex>, std::vector<CkptIndex>>;

LineKey line_key(const RecoveryOutcome& rec) {
  return {rec.line.indices, rec.rollback_intervals};
}

// Feeds `all` to a sequential twin in `batch`-event spans and calls
// at_commit(twin) at every commit, the empty stream's included. With
// compact_every > 0 the twin also compacts after every compact_every-th
// batch and once at the end, each pass a commit of its own: the schedule
// ReadersAcrossCompaction's feeder follows.
template <typename AtCommit>
void for_each_commit(const EngineOptions& options, std::span<const StreamEvent> all,
                     std::size_t batch, std::size_t compact_every, AtCommit&& at_commit) {
  OnlineEngine twin(options);
  at_commit(twin);
  std::size_t batches = 0;
  for (std::size_t i = 0; i < all.size(); i += batch) {
    twin.feed(all.subspan(i, std::min(batch, all.size() - i)));
    at_commit(twin);
    if (compact_every > 0 && ++batches % compact_every == 0 && twin.compact()) at_commit(twin);
  }
  if (compact_every > 0 && twin.compact()) at_commit(twin);
}

// The recovery answer of every batch-commit state of `all` fed in
// `batch`-event spans, the empty stream's included, from a sequential
// keep-all twin.
std::set<LineKey> commit_lines(int num_processes, std::span<const StreamEvent> all,
                               std::size_t batch) {
  std::set<LineKey> lines;
  RecoveryOutcome last;
  for_each_commit(EngineOptions{num_processes}, all, batch, 0, [&](const OnlineEngine& twin) {
    const RecoveryOutcome rec = twin.recovery_line().value;
    EXPECT_TRUE(last.line.indices.empty() || leq(last.line, rec.line))
        << "the twin's recovery line moved back";
    lines.insert(line_key(rec));
    last = rec;
  });
  return lines;
}

// What concurrent readers saw of recovery_line() while the feeder ran.
// Every answer must be the answer of some batch-commit state, and one
// reader's successive lines never move backwards (the line is monotone):
// a sweep racing the feeder only ever sees committed graphs.
class LineWatch {
 public:
  explicit LineWatch(std::set<LineKey> lines) : lines_(std::move(lines)) {}

  // Checks one answer against the same reader's previous line (`last`,
  // empty before its first answer) and makes its line the new `last`.
  void observe(const RecoveryOutcome& rec, GlobalCkpt& last) {
    if (!lines_.contains(line_key(rec)))
      foreign_.fetch_add(1, std::memory_order_relaxed);
    if (!last.indices.empty() && !leq(last, rec.line))
      backwards_.fetch_add(1, std::memory_order_relaxed);
    last = rec.line;
  }

  void expect_clean() const {
    EXPECT_EQ(foreign_.load(), 0)
        << "readers saw recovery answers no batch commit produced";
    EXPECT_EQ(backwards_.load(), 0)
        << "a reader's successive recovery lines moved backwards";
  }

 private:
  const std::set<LineKey> lines_;
  std::atomic<long long> foreign_{0};
  std::atomic<long long> backwards_{0};
};

// Every cheap answer of one commit state. resident_bytes is left out of
// the retention counters: it measures reader-side capacity too, which
// differs between the twin and an engine its readers hammer.
struct CommitAnswer {
  OnlineStats stats;
  bool rdt = false;
  long long events = 0;
  RetentionStats retention;
  std::vector<CkptIndex> interval;  // [p] current_interval
  std::vector<Tdv> tdv;             // [p] live_tdv
  std::vector<VectorClock> clock;   // [p] live_clock
  std::vector<CkptIndex> horizon;   // [p] first_retained
};

RetentionStats counted(RetentionStats r) {
  r.resident_bytes = 0;
  return r;
}

CommitAnswer commit_answer(const OnlineEngine& e) {
  CommitAnswer a{e.stats().value, e.is_rdt_so_far(), e.events_consumed(),
                 counted(e.retention_stats()), {}, {}, {}, {}};
  for (ProcessId p = 0; p < e.num_processes(); ++p) {
    a.interval.push_back(e.current_interval(p));
    a.tdv.push_back(e.live_tdv(p));
    a.clock.push_back(e.live_clock(p));
    a.horizon.push_back(e.first_retained(p));
  }
  return a;
}

// What concurrent readers saw of the cheap queries. Each answer, taken on
// its own, must be that query's answer at some commit of the sequential
// twin: a reader never sees a state between two commits.
class CommitWatch {
 public:
  // Feeds the twin on the feeder's schedule (see for_each_commit).
  CommitWatch(const EngineOptions& options, std::span<const StreamEvent> all, std::size_t batch,
              std::size_t compact_every) {
    for_each_commit(options, all, batch, compact_every,
                    [&](const OnlineEngine& twin) { commits_.push_back(commit_answer(twin)); });
  }

  void stats(const OnlineStats& s) {
    check(kStats, [&](const CommitAnswer& c) { return c.stats == s; });
  }
  void rdt(bool r) {
    check(kRdt, [&](const CommitAnswer& c) { return c.rdt == r; });
  }
  void events(long long n) {
    check(kEvents, [&](const CommitAnswer& c) { return c.events == n; });
  }
  void retention(const RetentionStats& r) {
    check(kRetention, [&](const CommitAnswer& c) { return c.retention == counted(r); });
  }
  void interval(ProcessId p, CkptIndex x) {
    check(kInterval, [&](const CommitAnswer& c) { return c.interval[idx(p)] == x; });
  }
  void tdv(ProcessId p, const Tdv& t) {
    check(kTdv, [&](const CommitAnswer& c) { return c.tdv[idx(p)] == t; });
  }
  void clock(ProcessId p, const VectorClock& v) {
    check(kClock, [&](const CommitAnswer& c) { return c.clock[idx(p)] == v; });
  }
  void horizon(ProcessId p, CkptIndex h) {
    check(kHorizon, [&](const CommitAnswer& c) { return c.horizon[idx(p)] == h; });
  }

  void expect_clean() const {
    for (std::size_t k = 0; k < kKinds; ++k) {
      EXPECT_EQ(foreign_[k].load(), 0)
          << "readers saw " << kNames[k] << " answers no batch commit produced";
    }
  }

 private:
  enum Kind : std::size_t {
    kStats, kRdt, kEvents, kRetention, kInterval, kTdv, kClock, kHorizon, kKinds
  };
  static constexpr std::array<const char*, kKinds> kNames = {
      "stats()", "is_rdt_so_far()", "events_consumed()", "retention_stats()",
      "current_interval()", "live_tdv()", "live_clock()", "first_retained()"};

  static std::size_t idx(ProcessId p) { return static_cast<std::size_t>(p); }

  template <typename Pred>
  void check(Kind kind, Pred&& seen_at) {
    if (std::none_of(commits_.begin(), commits_.end(), seen_at))
      foreign_[kind].fetch_add(1, std::memory_order_relaxed);
  }

  std::vector<CommitAnswer> commits_;
  std::array<std::atomic<long long>, kKinds> foreign_{};
};

// The seqlock torture case: one feeder streaming batches while FOUR reader
// threads hammer every query — the wait-free ones (which retry under the
// seqlock) and the heavy cached ones (which serialize on the reader mutex
// only). Run under TSan in CI, this is the proof the read path takes no
// lock the feeder holds; every recovery answer and every cheap answer a
// reader sees must be a batch-commit answer, and the end state must still
// be exact.
TEST(OnlineConcurrency, SeqlockTortureFourReaders) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 600.0;  // ~100 batch commits for readers to race
  cfg.basic_ckpt_mean = 8.0;
  cfg.seed = 11;
  const std::vector<StreamEvent> ops =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);
  const std::span<const StreamEvent> all(ops);
  constexpr std::size_t kBatch = 64;
  LineWatch watch(commit_lines(cfg.num_processes, all, kBatch));
  CommitWatch commits(EngineOptions{cfg.num_processes}, all, kBatch, 0);

  OnlineEngine engine(EngineOptions{cfg.num_processes});
  std::atomic<bool> done{false};
  std::atomic<int> started{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&engine, &done, &started, &watch, &commits, t] {
      long long sink = 0;
      GlobalCkpt last;
      ProcessId p = static_cast<ProcessId>(t % engine.num_processes());
      started.fetch_add(1, std::memory_order_release);
      while (!done.load(std::memory_order_acquire)) {
        const long long events = engine.events_consumed();
        commits.events(events);
        const CkptIndex interval = engine.current_interval(p);
        commits.interval(p, interval);
        sink += events + interval;
        if (t == 3) {
          // Reader 3 polls only these two single-value queries, so no
          // multi-value snapshot paces it to the commits.
          p = static_cast<ProcessId>((p + 1) % engine.num_processes());
          continue;
        }
        const bool rdt = engine.is_rdt_so_far();
        commits.rdt(rdt);
        const Tdv tdv = engine.live_tdv(p);
        commits.tdv(p, tdv);
        const VectorClock clock = engine.live_clock(p);
        commits.clock(p, clock);
        const OnlineStats s = engine.stats().value;
        commits.stats(s);
        sink += (rdt ? 1 : 0) + tdv.back() + clock.get(p);
        sink += s.events + s.checkpoints;
        if (t % 2 == 0) {
          const RecoveryOutcome rec = engine.recovery_line().value;
          watch.observe(rec, last);
          sink += rec.total_rollback;
          sink += engine.zreach({p, 0}, {0, 0}).value ? 1 : 0;
        }
        p = static_cast<ProcessId>((p + 1) % engine.num_processes());
      }
      EXPECT_GE(sink, 0);
    });
  }

  // Start feeding only once every reader is polling.
  while (started.load(std::memory_order_acquire) < 4) std::this_thread::yield();
  for (std::size_t i = 0; i < all.size(); i += kBatch)
    engine.feed(all.subspan(i, std::min(kBatch, all.size() - i)));
  done.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();
  watch.expect_clean();
  commits.expect_clean();

  const std::vector<std::size_t> deliver_pos = deliver_positions(ops);
  expect_prefix_equivalence(
      engine,
      closed_prefix(cfg.num_processes, ops, ops.size(), deliver_pos),
      ops.size());
}

// A query that lands mid-batch returns the previous commit at once: the
// seqlock brackets only publish()'s copy, never the batch. One long batch
// (a message ring with periodic checkpoints; ~70 ms in a Release build)
// runs while a reader times each is_rdt_so_far() + stats() pair. Every
// answer must be the pre-batch or the post-batch commit, the reader must
// still get pre-batch answers in the batch's second half, and its slowest
// pair must stay far below the batch's wall time. Run under TSan in CI.
TEST(OnlineConcurrency, CheapQueriesDoNotWaitForABatch) {
  constexpr int kProcs = 4;
  constexpr std::size_t kEvents = 800000;
  constexpr std::size_t kWarm = 64;
  std::vector<StreamEvent> ops;
  ops.reserve(kEvents + 1);
  std::vector<CkptIndex> index(kProcs, 0);
  for (MsgId m = 0; ops.size() < kEvents; ++m) {
    const ProcessId p = static_cast<ProcessId>(m % kProcs);
    const ProcessId q = static_cast<ProcessId>((p + 1) % kProcs);
    ops.push_back(StreamEvent::send(m, p, q));
    ops.push_back(StreamEvent::deliver(m, p, q));
    if (m % 2 == 1) {  // every process checkpoints every eighth message
      const auto c = static_cast<ProcessId>((m / 2) % kProcs);
      ops.push_back(StreamEvent::checkpoint(c, ++index[static_cast<std::size_t>(c)]));
    }
  }
  const std::span<const StreamEvent> all(ops);

  OnlineEngine engine(EngineOptions{kProcs});
  engine.feed(all.first(kWarm));
  const OnlineStats before = engine.stats().value;
  const bool rdt_before = engine.is_rdt_so_far();

  using Clock = std::chrono::steady_clock;
  std::atomic<bool> done{false};
  std::atomic<long long> calls{0};
  // Written by the reader, read after join().
  Clock::duration slowest{};
  Clock::time_point last_before_end;  // end of the last pre-batch answer
  Clock::time_point first_after_start = Clock::time_point::max();
  std::optional<OnlineStats> after_seen;
  long long foreign = 0;  // answers of neither commit
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const Clock::time_point t0 = Clock::now();
      const bool rdt = engine.is_rdt_so_far();
      const OnlineStats s = engine.stats().value;
      const Clock::time_point t1 = Clock::now();
      slowest = std::max(slowest, t1 - t0);
      if (s == before) {
        // is_rdt_so_far() ran first, so it saw the pre-batch commit too.
        if (rdt != rdt_before) ++foreign;
        last_before_end = t1;
      } else if (!after_seen) {
        after_seen = s;
        first_after_start = t0;
      } else if (s != *after_seen) {
        ++foreign;
      }
      calls.fetch_add(1, std::memory_order_release);
    }
  });

  while (calls.load(std::memory_order_acquire) == 0) std::this_thread::yield();
  const Clock::time_point start = Clock::now();
  engine.feed(all.subspan(kWarm));
  const Clock::duration wall = Clock::now() - start;
  done.store(true, std::memory_order_release);
  reader.join();

  const auto ms = [](Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  SCOPED_TRACE("batch of " + std::to_string(all.size() - kWarm) + " events took " +
               std::to_string(ms(wall)) + " ms; slowest pair " + std::to_string(ms(slowest)) +
               " ms over " + std::to_string(calls.load()) + " pairs");
  EXPECT_EQ(foreign, 0) << "the reader saw answers of neither commit";
  if (after_seen) {
    EXPECT_EQ(*after_seen, engine.stats().value);
    EXPECT_GE(first_after_start, last_before_end) << "a pre-batch answer followed the commit";
  }
  EXPECT_GE(last_before_end, start + wall / 2)
      << "the reader got no pre-batch answer in the batch's second half";
  EXPECT_LT(slowest, wall / 4) << "a query waited for the batch";
}

// Readers racing compaction: the feeder interleaves feed() batches with
// compact() passes (which rebuild the published logs under the seqlock and
// the reader-cache under its mutex) while three reader threads hammer every
// query — including zreach on ids that cross the moving retention horizon,
// whose status may legitimately flip to kEvicted but must never tear or
// return a guessed value — and a fourth polls only the retention answers.
// Run under TSan in CI; every recovery answer a reader sees must be a
// batch-commit answer of a keep-all twin, every cheap answer
// (retention_stats() and first_retained() included) a commit answer of a
// twin on the same feed/compact schedule, and the retained end state must
// still match a keep-all engine's. The stream is long enough that a
// retention counter published before its commit is caught in every run.
TEST(OnlineConcurrency, ReadersAcrossCompaction) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 1200.0;  // ~320 commits, ~140 late edges for readers to race
  cfg.basic_ckpt_mean = 4.0;
  cfg.seed = 19;
  const std::vector<StreamEvent> ops =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);
  const std::span<const StreamEvent> all(ops);
  constexpr std::size_t kBatch = 48;
  constexpr std::size_t kCompactEvery = 4;
  LineWatch watch(commit_lines(cfg.num_processes, all, kBatch));

  RetentionPolicy policy;
  policy.enabled = true;
  policy.compact_every_events = 0;  // the feeder compacts explicitly below
  policy.min_evictable_checkpoints = 1;
  const EngineOptions options{cfg.num_processes, policy};
  CommitWatch commits(options, all, kBatch, kCompactEvery);
  OnlineEngine engine(options);
  std::atomic<bool> done{false};
  std::atomic<int> started{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&engine, &done, &started, &watch, &commits, t] {
      long long sink = 0;
      GlobalCkpt last;
      ProcessId p = static_cast<ProcessId>(t % engine.num_processes());
      started.fetch_add(1, std::memory_order_release);
      while (!done.load(std::memory_order_acquire)) {
        if (t == 3) {
          // Reader 3 polls only the retention answers. Its tight loop
          // samples each batch and compaction many times over, so a counter
          // that became visible before its commit (the late-edge count
          // bumped mid-batch, say) does not slip between two samples.
          const RetentionStats retained = engine.retention_stats();
          commits.retention(retained);
          const CkptIndex horizon = engine.first_retained(p);
          commits.horizon(p, horizon);
          sink += retained.evicted_checkpoints + horizon;
          p = static_cast<ProcessId>((p + 1) % engine.num_processes());
          continue;
        }
        const bool rdt = engine.is_rdt_so_far();
        commits.rdt(rdt);
        const OnlineStats s = engine.stats().value;
        commits.stats(s);
        const long long events = engine.events_consumed();
        commits.events(events);
        const CkptIndex horizon = engine.first_retained(p);
        commits.horizon(p, horizon);
        const CkptIndex interval = engine.current_interval(p);
        commits.interval(p, interval);
        const Tdv tdv = engine.live_tdv(p);
        commits.tdv(p, tdv);
        const VectorClock clock = engine.live_clock(p);
        commits.clock(p, clock);
        const RetentionStats retained = engine.retention_stats();
        commits.retention(retained);
        sink += (rdt ? 1 : 0) + s.checkpoints + events + horizon + interval;
        sink += tdv.back() + clock.get(p) + retained.evicted_checkpoints;
        const ZreachResult z = engine.zreach({p, 0}, {0, 0});
        sink += z.ok() && z.value ? 1 : 0;
        const RecoveryOutcome rec = engine.recovery_line().value;
        watch.observe(rec, last);
        sink += rec.total_rollback;
        p = static_cast<ProcessId>((p + 1) % engine.num_processes());
      }
      EXPECT_GE(sink, 0);
    });
  }

  while (started.load(std::memory_order_acquire) < 4) std::this_thread::yield();
  std::size_t batches = 0;
  for (std::size_t i = 0; i < all.size(); i += kBatch) {
    engine.feed(all.subspan(i, std::min(kBatch, all.size() - i)));
    if (++batches % kCompactEvery == 0) engine.compact();
  }
  engine.compact();
  done.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();
  watch.expect_clean();
  commits.expect_clean();

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
