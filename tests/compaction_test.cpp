// Prefix compaction vs a keep-all engine: a retention-enabled OnlineEngine,
// compacted at arbitrary stream positions, must stay bit-identical on every
// query about retained state — across all protocol kinds, three
// environments and several seeds — while queries behind the retention
// horizon report kEvicted (never a guessed answer). Plus the exact horizon
// boundary (the at-line checkpoint is evicted, line+1 is retained), the
// automatic compaction cadence, the keep-all no-op contract, and the
// retention caps a reset() applies to recycled capacity.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "ccp/builder.hpp"
#include "online/engine.hpp"
#include "protocols/registry.hpp"
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

std::vector<StreamEvent> record_replay(const Trace& trace, ProtocolKind kind) {
  Recorder recorder;
  replay(trace, kind, {.online = &recorder});
  return recorder.ops;
}

// Manual-only compaction with no eviction floor: compact() folds whatever
// the recovery line allows, which makes every boundary observable.
RetentionPolicy eager_manual() {
  RetentionPolicy policy;
  policy.enabled = true;
  policy.compact_every_events = 0;
  policy.min_evictable_checkpoints = 1;
  return policy;
}

// Every query the two engines share, compared. `durable[p]` is the highest
// checkpoint index the stream produced for p; the z-reach sweep walks one
// index past it so the open frontier (and the first invalid id) are covered
// on both sides.
void expect_matches_keepall(const OnlineEngine& compacted,
                            const OnlineEngine& keepall,
                            const std::vector<CkptIndex>& durable) {
  ASSERT_EQ(compacted.num_processes(), keepall.num_processes());
  EXPECT_EQ(compacted.events_consumed(), keepall.events_consumed());
  EXPECT_EQ(compacted.is_rdt_so_far(), keepall.is_rdt_so_far());

  const StatsResult cs = compacted.stats();
  const StatsResult ks = keepall.stats();
  ASSERT_TRUE(cs.ok());
  ASSERT_TRUE(ks.ok());
  EXPECT_EQ(cs.value, ks.value);

  const RecoveryResult cr = compacted.recovery_line();
  const RecoveryResult kr = keepall.recovery_line();
  ASSERT_TRUE(cr.ok());
  ASSERT_TRUE(kr.ok());
  EXPECT_EQ(cr.value.line, kr.value.line);
  EXPECT_EQ(cr.value.rollback_intervals, kr.value.rollback_intervals);
  EXPECT_EQ(cr.value.total_rollback, kr.value.total_rollback);
  EXPECT_EQ(cr.value.worst_fraction, kr.value.worst_fraction);

  const int n = keepall.num_processes();
  const auto retained = [&](const CkptId& c) {
    return c.index >= compacted.first_retained(c.process);
  };
  for (ProcessId p = 0; p < n; ++p) {
    for (CkptIndex x = 0; x <= durable[static_cast<std::size_t>(p)] + 2; ++x) {
      for (ProcessId q = 0; q < n; ++q) {
        for (CkptIndex y = 0; y <= durable[static_cast<std::size_t>(q)] + 2;
             ++y) {
          const CkptId u{p, x}, v{q, y};
          const ZreachResult keep = keepall.zreach(u, v);
          const ZreachResult got = compacted.zreach(u, v);
          if (keep.status == QueryStatus::kInvalid) {
            // An id the stream never produced is invalid on both sides —
            // eviction never reclassifies nonsense as merely unanswerable.
            ASSERT_EQ(got.status, QueryStatus::kInvalid)
                << "zreach(" << u << ", " << v << ")";
          } else if (retained(u) && retained(v)) {
            ASSERT_EQ(got, keep) << "zreach(" << u << ", " << v << ")";
          } else {
            ASSERT_EQ(got.status, QueryStatus::kEvicted)
                << "zreach(" << u << ", " << v << ")";
          }
        }
      }
    }
  }
}

// Feed the same stream into a compacted and a keep-all engine, compacting
// the former at `rounds` pseudo-random cut points (deterministic seed), and
// compare the full query surface after every compaction and at the end.
void check_compaction_equivalence(int num_processes,
                                  const std::vector<StreamEvent>& ops,
                                  std::uint32_t seed, int rounds = 4) {
  OnlineEngine compacted(EngineOptions{num_processes, eager_manual()});
  OnlineEngine keepall(EngineOptions{num_processes});
  std::vector<CkptIndex> durable(static_cast<std::size_t>(num_processes), 0);

  std::minstd_rand rng(seed);
  std::vector<std::size_t> cuts;
  for (int r = 0; r < rounds; ++r)
    cuts.push_back(rng() % (ops.size() + 1));
  std::sort(cuts.begin(), cuts.end());
  cuts.push_back(ops.size());

  std::size_t fed = 0;
  const std::span<const StreamEvent> all(ops);
  for (const std::size_t cut : cuts) {
    compacted.feed(all.subspan(fed, cut - fed));
    keepall.feed(all.subspan(fed, cut - fed));
    for (std::size_t i = fed; i < cut; ++i)
      if (ops[i].kind == EventKind::kCheckpoint)
        durable[static_cast<std::size_t>(ops[i].p)] = ops[i].index;
    fed = cut;
    compacted.compact();
    expect_matches_keepall(compacted, keepall, durable);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_FALSE(keepall.retention_stats().enabled);
  EXPECT_TRUE(compacted.retention_stats().enabled);
}

TEST(CompactionEquivalence, RandomEnvAllProtocolsAllSeeds) {
  for (const ProtocolKind kind : all_protocol_kinds()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(ProtocolRegistry::instance().info(kind).id + " seed " +
                   std::to_string(seed));
      RandomEnvConfig cfg;
      cfg.num_processes = 4;
      cfg.duration = 12.0;
      cfg.basic_ckpt_mean = 5.0;
      cfg.seed = seed;
      check_compaction_equivalence(
          cfg.num_processes, record_replay(random_environment(cfg), kind),
          static_cast<std::uint32_t>(seed));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(CompactionEquivalence, GroupEnvAllProtocols) {
  GroupEnvConfig cfg;
  cfg.num_groups = 2;
  cfg.group_size = 3;
  cfg.overlap = 1;
  cfg.duration = 10.0;
  cfg.basic_ckpt_mean = 5.0;
  for (const ProtocolKind kind : all_protocol_kinds()) {
    SCOPED_TRACE(ProtocolRegistry::instance().info(kind).id);
    cfg.seed += 1;
    check_compaction_equivalence(
        cfg.num_processes(), record_replay(group_environment(cfg), kind),
        static_cast<std::uint32_t>(cfg.seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CompactionEquivalence, ClientServerEnvAllProtocols) {
  ClientServerEnvConfig cfg;
  cfg.num_servers = 3;
  cfg.num_requests = 8;
  cfg.basic_ckpt_mean = 5.0;
  for (const ProtocolKind kind : all_protocol_kinds()) {
    SCOPED_TRACE(ProtocolRegistry::instance().info(kind).id);
    cfg.seed += 1;
    check_compaction_equivalence(
        cfg.num_processes(),
        record_replay(client_server_environment(cfg), kind),
        static_cast<std::uint32_t>(cfg.seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// The horizon boundary, pinned exactly: after a compaction the checkpoint
// AT the recovery line is evicted (its Z-paths may run through the evicted
// region), line+1 is the first retained index, and an id past the frontier
// stays invalid, not evicted.
TEST(CompactionHorizon, ExactlyAtLineCheckpointsAreEvicted) {
  // Two isolated processes: with no messages every durable checkpoint is
  // valid, so the recovery line is simply (2, 2).
  const std::vector<StreamEvent> ops = {
      StreamEvent::checkpoint(0, 1), StreamEvent::checkpoint(1, 1),
      StreamEvent::internal(0),      StreamEvent::internal(1),
      StreamEvent::checkpoint(0, 2), StreamEvent::checkpoint(1, 2),
      StreamEvent::internal(0),      StreamEvent::internal(1),
  };
  OnlineEngine engine(EngineOptions{2, eager_manual()});
  engine.feed(ops);

  EXPECT_EQ(engine.first_retained(0), 0);
  EXPECT_EQ(engine.first_retained(1), 0);
  ASSERT_TRUE(engine.compact());
  EXPECT_EQ(engine.recovery_line().value.line.indices,
            (std::vector<CkptIndex>{2, 2}));
  EXPECT_EQ(engine.first_retained(0), 3);
  EXPECT_EQ(engine.first_retained(1), 3);

  // Behind the horizon, including exactly at the line: evicted.
  for (const CkptIndex x : {0, 1, 2}) {
    EXPECT_TRUE(engine.zreach({0, x}, {1, 3}).evicted()) << x;
    EXPECT_TRUE(engine.zreach({0, 3}, {1, x}).evicted()) << x;
  }
  // The open frontier interval (line+1) is retained and answerable.
  const ZreachResult frontier = engine.zreach({0, 3}, {1, 3});
  ASSERT_TRUE(frontier.ok());
  EXPECT_FALSE(frontier.value);  // isolated processes: no Z-path
  // Past the frontier, and off the process grid: invalid, not evicted.
  EXPECT_EQ(engine.zreach({0, 4}, {1, 3}).status, QueryStatus::kInvalid);
  EXPECT_EQ(engine.zreach({0, -7}, {1, 3}).status, QueryStatus::kInvalid);
  EXPECT_EQ(engine.zreach({2, 0}, {1, 3}).status, QueryStatus::kInvalid);

  // Nothing left to evict: the line cannot advance without new checkpoints.
  EXPECT_FALSE(engine.compact());

  const RetentionStats stats = engine.retention_stats();
  EXPECT_TRUE(stats.enabled);
  EXPECT_EQ(stats.compactions, 1);
  // Indices 0..2 on each of the two processes folded into summaries.
  EXPECT_EQ(stats.evicted_checkpoints, 6);
  EXPECT_GT(stats.resident_bytes, 0u);
}

// compact() on a keep-all engine is a contract-level no-op.
TEST(CompactionPolicy, KeepAllCompactIsANoOp) {
  OnlineEngine engine(EngineOptions{4});
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 12.0;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = 31;
  engine.feed(record_replay(random_environment(cfg), ProtocolKind::kBhmr));
  EXPECT_FALSE(engine.compact());
  const RetentionStats stats = engine.retention_stats();
  EXPECT_FALSE(stats.enabled);
  EXPECT_EQ(stats.compactions, 0);
  for (ProcessId p = 0; p < 4; ++p) EXPECT_EQ(engine.first_retained(p), 0);
}

// The automatic cadence: a bounded policy compacts on its own while the
// stream is fed in batches, advances the horizon, and the surviving answers
// still match a keep-all twin.
TEST(CompactionAuto, CadencePolicyCompactsDuringFeed) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 60.0;
  cfg.basic_ckpt_mean = 4.0;
  cfg.seed = 17;
  const std::vector<StreamEvent> ops =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);

  RetentionPolicy policy = RetentionPolicy::bounded(/*every_events=*/128);
  policy.min_evictable_checkpoints = 4;
  OnlineEngine engine(EngineOptions{cfg.num_processes, policy});
  OnlineEngine keepall(EngineOptions{cfg.num_processes});
  std::vector<CkptIndex> durable(4, 0);

  const std::span<const StreamEvent> all(ops);
  constexpr std::size_t kBatch = 64;
  for (std::size_t i = 0; i < all.size(); i += kBatch) {
    const std::size_t n = std::min(kBatch, all.size() - i);
    engine.feed(all.subspan(i, n));
    keepall.feed(all.subspan(i, n));
  }
  for (const StreamEvent& op : ops)
    if (op.kind == EventKind::kCheckpoint)
      durable[static_cast<std::size_t>(op.p)] = op.index;

  const RetentionStats stats = engine.retention_stats();
  EXPECT_GT(stats.compactions, 0);
  EXPECT_GT(stats.evicted_checkpoints, 0);
  CkptIndex max_horizon = 0;
  for (ProcessId p = 0; p < 4; ++p)
    max_horizon = std::max(max_horizon, engine.first_retained(p));
  EXPECT_GT(max_horizon, 0);
  expect_matches_keepall(engine, keepall, durable);
}

// reset() under a retention policy caps the recycled capacity; the engine
// that comes back must still be bit-identical to a fresh one, and its
// accounted footprint must undercut a keep-all reset of an identically
// warmed twin (which preserves every arena).
TEST(CompactionReset, RetentionCapsRecycledCapacity) {
  RandomEnvConfig warm_cfg;
  warm_cfg.num_processes = 4;
  warm_cfg.duration = 60.0;
  warm_cfg.basic_ckpt_mean = 5.0;
  warm_cfg.seed = 41;
  const std::vector<StreamEvent> warm =
      record_replay(random_environment(warm_cfg), ProtocolKind::kNoForce);

  RetentionPolicy tight = eager_manual();
  tight.max_pool_buffers = 2;
  tight.max_reset_message_capacity = 64;
  tight.max_pooled_reach_rows = 2;

  OnlineEngine capped(EngineOptions{4});
  OnlineEngine uncapped(EngineOptions{4});
  capped.feed(warm);
  uncapped.feed(warm);
  capped.reset(EngineOptions{4, tight});
  uncapped.reset(EngineOptions{4});  // keep-all reset: every arena keeps its capacity
  EXPECT_LT(capped.retention_stats().resident_bytes,
            uncapped.retention_stats().resident_bytes);

  // The capped recycled engine still answers like a fresh engine.
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 12.0;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = 42;
  const std::vector<StreamEvent> ops =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);
  OnlineEngine fresh(EngineOptions{4});
  capped.feed(ops);
  fresh.feed(ops);
  std::vector<CkptIndex> durable(4, 0);
  for (const StreamEvent& op : ops)
    if (op.kind == EventKind::kCheckpoint)
      durable[static_cast<std::size_t>(op.p)] = op.index;
  capped.compact();
  expect_matches_keepall(capped, fresh, durable);
}

// Compaction is cumulative: repeated compact() calls as the line advances
// keep folding, the horizon is monotone, and the counters only grow.
TEST(CompactionRepeated, HorizonIsMonotoneAcrossCompactions) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 40.0;
  cfg.basic_ckpt_mean = 4.0;
  cfg.seed = 53;
  const std::vector<StreamEvent> ops =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);

  OnlineEngine engine(EngineOptions{4, eager_manual()});
  const std::span<const StreamEvent> all(ops);
  std::vector<CkptIndex> horizon(4, 0);
  long long last_evicted = 0;
  constexpr std::size_t kSlices = 8;
  for (std::size_t s = 0; s < kSlices; ++s) {
    const std::size_t begin = all.size() * s / kSlices;
    const std::size_t end = all.size() * (s + 1) / kSlices;
    engine.feed(all.subspan(begin, end - begin));
    engine.compact();
    const RetentionStats stats = engine.retention_stats();
    EXPECT_GE(stats.evicted_checkpoints, last_evicted);
    last_evicted = stats.evicted_checkpoints;
    for (ProcessId p = 0; p < 4; ++p) {
      const CkptIndex h = engine.first_retained(p);
      EXPECT_GE(h, horizon[static_cast<std::size_t>(p)]) << "process " << p;
      horizon[static_cast<std::size_t>(p)] = h;
    }
  }
  EXPECT_GT(last_evicted, 0);
}

}  // namespace
}  // namespace rdt
