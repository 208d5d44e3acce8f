// Codecs change representation, never semantics: a replay whose payloads
// travel through any PiggybackCodec must produce analysis results
// bit-identical to the flat-path replay — same counters, same per-reason
// attribution, same checkpoint pattern, same saved TDVs. This is the
// property the serving pool and the sweeps rely on when they report
// measured wire bits next to the flat comparison column.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "protocols/registry.hpp"
#include "sim/environments.hpp"
#include "sim/payload_arena.hpp"
#include "sim/replay.hpp"
#include "sim/runner.hpp"

namespace rdt {
namespace {

struct Env {
  std::string name;
  std::function<Trace(std::uint64_t)> generate;
};

std::vector<Env> small_environments() {
  std::vector<Env> envs;
  envs.push_back({"random", [](std::uint64_t seed) {
                    RandomEnvConfig cfg;
                    cfg.num_processes = 6;
                    cfg.duration = 80.0;
                    cfg.basic_ckpt_mean = 8.0;
                    cfg.seed = seed;
                    return random_environment(cfg);
                  }});
  envs.push_back({"group", [](std::uint64_t seed) {
                    GroupEnvConfig cfg;
                    cfg.num_groups = 3;
                    cfg.group_size = 3;
                    cfg.overlap = 1;
                    cfg.duration = 80.0;
                    cfg.basic_ckpt_mean = 8.0;
                    cfg.seed = seed;
                    return group_environment(cfg);
                  }});
  envs.push_back({"client_server", [](std::uint64_t seed) {
                    ClientServerEnvConfig cfg;
                    cfg.num_servers = 5;
                    cfg.num_requests = 60;
                    cfg.basic_ckpt_mean = 8.0;
                    cfg.seed = seed;
                    return client_server_environment(cfg);
                  }});
  return envs;
}

// Every protocol x every codec x every environment family: the counters a
// sweep aggregates must not move when payloads go through the wire.
TEST(CodecEquivalence, EveryCodecMatchesFlatPathCounters) {
  constexpr int kSeeds = 4;
  PayloadArena shared;
  for (const Env& env : small_environments()) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      const Trace trace = env.generate(seed);
      for (ProtocolKind kind : all_protocol_kinds()) {
        const ReplayResult flat = replay_metrics(trace, kind, &shared);
        ASSERT_FALSE(flat.wire_measured);
        for (int c = 0; c < kNumPiggybackCodecKinds; ++c) {
          const auto codec = static_cast<PiggybackCodecKind>(c);
          SCOPED_TRACE(env.name + "/" + to_string(kind) + "/" +
                       to_cstring(codec) + "/seed=" + std::to_string(seed));
          const ReplayResult wire =
              replay_metrics(trace, kind, &shared, codec);
          EXPECT_TRUE(wire.wire_measured);
          EXPECT_EQ(flat.messages, wire.messages);
          EXPECT_EQ(flat.basic, wire.basic);
          EXPECT_EQ(flat.forced, wire.forced);
          EXPECT_EQ(flat.forced_by_reason, wire.forced_by_reason);
          EXPECT_EQ(flat.flat_bits_total, wire.flat_bits_total);
          // The flat codec is the byte-aligned reference layout: whole
          // bytes per message, never below the analytic bit count (bit
          // planes round up to bytes). The clever codecs may land on
          // either side of the analytic column (sparse inflates dense
          // planes), which is exactly why the sweeps *measure*.
          if (codec == PiggybackCodecKind::kFlat) {
            EXPECT_EQ(wire.wire_bits_total % 8, 0u);
            EXPECT_GE(wire.wire_bits_total, flat.flat_bits_total);
          }
        }
      }
    }
  }
}

// Stronger than counters: the materialized checkpoint pattern, the forced
// checkpoint inventory and the saved TDVs are identical object by object
// under the protocol's *declared* codec.
TEST(CodecEquivalence, DeclaredCodecPreservesThePattern) {
  for (const Env& env : small_environments()) {
    const Trace trace = env.generate(3);
    for (ProtocolKind kind : all_protocol_kinds()) {
      SCOPED_TRACE(env.name + "/" + to_string(kind));
      const ReplayResult flat = replay(trace, kind);
      ReplayOptions options;
      options.wire_codec = ProtocolRegistry::instance().info(kind).codec;
      const ReplayResult wire = replay(trace, kind, options);

      ASSERT_TRUE(flat.pattern_built);
      ASSERT_TRUE(wire.pattern_built);
      ASSERT_EQ(flat.pattern.num_processes(), wire.pattern.num_processes());
      for (ProcessId p = 0; p < flat.pattern.num_processes(); ++p)
        EXPECT_EQ(flat.pattern.num_ckpts(p), wire.pattern.num_ckpts(p));
      EXPECT_EQ(flat.forced_ckpts, wire.forced_ckpts);
      EXPECT_EQ(flat.saved_tdvs, wire.saved_tdvs);
    }
  }
}

// The wire measurement feeds the sweep aggregates: payload-carrying
// protocols report strictly positive measured bits bounded by the flat
// column; payload-free ones report zero on both.
TEST(CodecEquivalence, SweepWireBitsAreMeasuredAndBounded) {
  const auto generate = [](std::uint64_t seed) {
    RandomEnvConfig cfg;
    cfg.num_processes = 6;
    cfg.duration = 80.0;
    cfg.basic_ckpt_mean = 8.0;
    cfg.seed = seed;
    return random_environment(cfg);
  };
  const std::vector<ProtocolKind> kinds = all_protocol_kinds();
  const auto stats = sweep(generate, kinds, 5);
  for (const ProtocolStats& s : stats) {
    SCOPED_TRACE(to_string(s.kind));
    const PayloadShape shape = ProtocolRegistry::instance().info(s.kind).shape;
    const bool carries =
        shape.tdv || shape.simple || shape.causal || shape.index;
    if (carries) {
      EXPECT_GT(s.wire_bits.mean, 0.0);
      EXPECT_LE(s.wire_bits.mean, s.flat_bits.mean);
    } else {
      EXPECT_EQ(s.wire_bits.mean, 0.0);
      EXPECT_EQ(s.flat_bits.mean, 0.0);
    }
  }
}

// Byte identity of every codec on real protocol traffic: fixed-seed
// replays of the three presets (plus a 70-process random run, whose rows
// span two words and which only the stateless codecs accept) for every
// study protocol that carries a payload (CBR and NRAS carry none), each
// payload encoded in send order under every codec that accepts the
// process count. The FNV-1a hash of the concatenated bytes and the total
// bits are pinned to what the per-bit reference encoders produced, so an
// encoder rewrite must emit the same bytes, not merely bytes that decode
// to the same planes, and the protocols must fill the same payloads.
TEST(CodecEquivalence, StudyTrafficBytesArePinned) {
  std::vector<Trace> traces;
  for (const Env& env : small_environments()) traces.push_back(env.generate(5));
  RandomEnvConfig wide;
  wide.num_processes = 70;
  wide.duration = 30.0;
  wide.basic_ckpt_mean = 8.0;
  wide.seed = 5;
  traces.push_back(random_environment(wide));

  struct Golden {
    ProtocolKind kind;
    PiggybackCodecKind codec;
    std::uint64_t hash;
    std::uint64_t bits;
  };
  const std::vector<Golden> golden = {
      {ProtocolKind::kFdi, PiggybackCodecKind::kFlat, 0xa7d079a05f9a5792ULL, 4847232},
      {ProtocolKind::kFdi, PiggybackCodecKind::kDelta, 0xb0a0aed584263aa7ULL, 76048},
      {ProtocolKind::kFdi, PiggybackCodecKind::kSparse, 0xe870bfb49c0c10ccULL, 1211808},
      {ProtocolKind::kFdas, PiggybackCodecKind::kFlat, 0xe3110f6a4c0b5702ULL, 4847232},
      {ProtocolKind::kFdas, PiggybackCodecKind::kDelta, 0x182ce5f91cbb7c92ULL, 76048},
      {ProtocolKind::kFdas, PiggybackCodecKind::kSparse, 0xa150d7acb266ed54ULL, 1211808},
      {ProtocolKind::kBhmrC1Only, PiggybackCodecKind::kFlat, 0x294aa23ff276b717ULL, 15305760},
      {ProtocolKind::kBhmrC1Only, PiggybackCodecKind::kDelta, 0xc8a442917415691bULL, 126736},
      {ProtocolKind::kBhmrC1Only, PiggybackCodecKind::kSparse, 0xeada6ccbfc88f950ULL, 6285528},
      {ProtocolKind::kBhmrNoSimple, PiggybackCodecKind::kFlat, 0x6422265aaaa0753aULL, 15305760},
      {ProtocolKind::kBhmrNoSimple, PiggybackCodecKind::kDelta, 0x0b6df62f69842797ULL, 129680},
      {ProtocolKind::kBhmrNoSimple, PiggybackCodecKind::kSparse, 0x54cb209b5a6cab71ULL, 7476696},
      {ProtocolKind::kBhmr, PiggybackCodecKind::kFlat, 0x198010b0214a57daULL, 15463696},
      {ProtocolKind::kBhmr, PiggybackCodecKind::kDelta, 0x070f07d088dee5dbULL, 156816},
      {ProtocolKind::kBhmr, PiggybackCodecKind::kSparse, 0x798a43dd86c6eaf1ULL, 7662368},
      {ProtocolKind::kAdaptive, PiggybackCodecKind::kFlat, 0x3856e9927ae48a94ULL, 15463696},
      {ProtocolKind::kAdaptive, PiggybackCodecKind::kDelta, 0xf707589df6010425ULL, 152952},
      {ProtocolKind::kAdaptive, PiggybackCodecKind::kSparse, 0xb7b93a1265b79868ULL, 7434296},
  };
  PayloadArena arena;
  std::vector<std::uint8_t> bytes;
  for (const Golden& g : golden) {
    SCOPED_TRACE(to_string(g.kind) + "/" + to_cstring(g.codec));
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    std::uint64_t bits = 0;
    for (const Trace& trace : traces) {
      if (g.codec == PiggybackCodecKind::kDelta &&
          trace.num_processes > kMaxDeltaProcesses)
        continue;
      replay_metrics(trace, g.kind, &arena);
      PiggybackCodec codec(g.codec, trace.num_processes,
                           ProtocolRegistry::instance().info(g.kind).shape);
      for (const TraceOp& op : trace.ops) {
        if (op.kind != TraceOpKind::kSend) continue;
        const TraceMessage& m = trace.messages[static_cast<std::size_t>(op.msg)];
        bytes.clear();
        codec.encode(m.sender, m.receiver, arena.view(op.msg), bytes);
        for (const std::uint8_t b : bytes) hash = (hash ^ b) * 0x100000001b3ULL;
        bits += 8 * bytes.size();
      }
    }
    EXPECT_EQ(hash, g.hash);
    EXPECT_EQ(bits, g.bits);
  }
}

// Degenerate traces stay degenerate through the codec path: no messages
// means no wire bits and no decode calls, with or without checkpoints.
TEST(CodecEquivalence, MessageFreeTraces) {
  Trace empty;
  empty.num_processes = 2;
  Trace ckpts_only;
  ckpts_only.num_processes = 3;
  ckpts_only.ops.push_back(
      {.kind = TraceOpKind::kBasicCkpt, .time = 1.0, .process = 0});
  ckpts_only.ops.push_back(
      {.kind = TraceOpKind::kBasicCkpt, .time = 2.0, .process = 2});
  for (const Trace* trace : {&empty, &ckpts_only}) {
    for (ProtocolKind kind : all_protocol_kinds()) {
      for (int c = 0; c < kNumPiggybackCodecKinds; ++c) {
        SCOPED_TRACE(to_string(kind));
        const ReplayResult r = replay_metrics(
            *trace, kind, nullptr, static_cast<PiggybackCodecKind>(c));
        EXPECT_EQ(r.messages, 0);
        EXPECT_EQ(r.forced, 0);
        EXPECT_EQ(r.wire_bits_total, 0u);
        EXPECT_TRUE(r.wire_measured);
      }
    }
  }
}

}  // namespace
}  // namespace rdt
