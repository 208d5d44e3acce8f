// The batch analysis vs per-pair reference derivations kept here.
//
// ReachabilityClosure builds its rows from one SCC condensation of the
// R-graph, and the characterization checkers count whole rows against
// per-process prefix masks. Both must agree bit for bit with the direct
// definitions:
//  * the closure rows with a word-parallel Warshall closure plus the
//    message-edge OR pass, and with per-node BFS sweeps;
//  * every CheckResult (ok, witness, paths_checked, paths_satisfied) with
//    loops that test one (start, target) pair at a time through
//    TdvAnalysis::trackable and the closure's single-bit queries.
// The per-process start maxima of ChainAnalysis are pinned to its start
// bitsets as well. Coverage: every protocol kind x three environments x four seeds (the
// no-force, CAS and BCS patterns carry Z-cycles), uniformly random
// patterns, and the hand-built fixtures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/rdt_checker.hpp"
#include "fixtures.hpp"
#include "protocols/registry.hpp"
#include "rgraph/reachability.hpp"
#include "rgraph/zigzag.hpp"
#include "sim/environments.hpp"
#include "sim/replay.hpp"
#include "util/rng.hpp"

namespace rdt {
namespace {

// ---------------------------------------------------------------- closure

std::vector<std::pair<int, int>> message_edges(const Pattern& p) {
  std::vector<std::pair<int, int>> edges;
  for (const Message& m : p.messages())
    edges.emplace_back(p.node_id({m.sender, m.send_interval}),
                       p.node_id({m.receiver, m.deliver_interval}));
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

void expect_closure_matches_references(const ReachabilityClosure& closure) {
  const RGraph& graph = closure.graph();
  const auto nodes = static_cast<std::size_t>(graph.num_nodes());
  const auto edges = message_edges(graph.pattern());

  // Warshall over the untyped successor lists, then msg_reach(a) = OR of
  // reach(v) over the message edges (u, v) with reach(a, u).
  BitMatrix warshall(nodes, nodes);
  for (std::size_t u = 0; u < nodes; ++u)
    for (int v : graph.successors(static_cast<int>(u)))
      warshall.set(u, static_cast<std::size_t>(v));
  warshall.close_transitively();
  const BitMatrix& w = warshall;
  BitMatrix msg_warshall(nodes, nodes);
  for (std::size_t a = 0; a < nodes; ++a)
    for (const auto& [u, v] : edges)
      if (w.get(a, static_cast<std::size_t>(u)))
        msg_warshall.row(a).merge(w.row(static_cast<std::size_t>(v)));

  // The same two relations from independent BFS sweeps.
  std::vector<BitVector> bfs(nodes);
  for (std::size_t u = 0; u < nodes; ++u)
    bfs[u] = graph.reachable_from(static_cast<int>(u));

  for (std::size_t a = 0; a < nodes; ++a) {
    SCOPED_TRACE("node " + std::to_string(a));
    const int node = static_cast<int>(a);
    BitVector msg_bfs(nodes);
    for (const auto& [u, v] : edges)
      if (bfs[a].get(static_cast<std::size_t>(u)))
        msg_bfs.merge(bfs[static_cast<std::size_t>(v)]);
    ASSERT_TRUE(closure.reach_row(node) == w.row(a));
    ASSERT_TRUE(closure.reach_row(node) == bfs[a].span());
    ASSERT_TRUE(closure.msg_reach_row(node) == std::as_const(msg_warshall).row(a));
    ASSERT_TRUE(closure.msg_reach_row(node) == msg_bfs.span());
  }
}

// ------------------------------------------------------ chain start maxima

// The per-process start maxima ChainAnalysis carries through its sweep must
// be the maxima of the start bitsets themselves.
void expect_start_maxima_match_bitsets(const Pattern& p,
                                       const ChainAnalysis& chains) {
  for (MsgId m = 0; m < p.num_messages(); ++m)
    for (ProcessId k = 0; k < p.num_processes(); ++k) {
      CkptIndex causal = 0;
      CkptIndex simple = 0;
      for (CkptIndex z = 1; z <= p.last_ckpt(k); ++z) {
        const auto node = static_cast<std::size_t>(p.node_id({k, z}));
        if (chains.causal_starts(m).get(node)) causal = z;
        if (chains.simple_causal_starts(m).get(node)) simple = z;
      }
      ASSERT_EQ(chains.max_causal_start(m, k), causal) << "m" << m << " P" << k;
      for (CkptIndex z = 0; z <= p.last_ckpt(k) + 1; ++z) {
        ASSERT_EQ(chains.causal_start_at_or_after(m, k, z), causal >= std::max(z, 1));
        ASSERT_EQ(chains.simple_causal_start_at_or_after(m, k, z),
                  simple >= std::max(z, 1));
      }
    }
}

// ------------------------------------------------- per-pair reference checks

CheckResult ref_definitional(const RdtAnalyses& a) {
  const Pattern& p = a.pattern();
  const ReachabilityClosure& closure = a.closure();
  CheckResult result;
  for (int u = 0; u < p.total_ckpts(); ++u) {
    const CkptId cu = p.node_ckpt(u);
    for (int v = 0; v < p.total_ckpts(); ++v) {
      if (!closure.msg_reach(u, v)) continue;
      const CkptId cv = p.node_ckpt(v);
      ++result.paths_checked;
      if (a.tdv().trackable(cu, cv)) {
        ++result.paths_satisfied;
      } else if (result.ok) {
        result.ok = false;
        result.witness = RdtViolation{cu, cv, std::nullopt};
      }
    }
  }
  return result;
}

enum class Family { kMm, kCm, kPcm };

// One junction family, one start at a time: the induced path from every
// admissible start C_{k,z} to the junction's target C_{j,y} must be doubled
// (trackable) or, with `visible`, visibly doubled — by a causal chain from
// C_{k,z'}, z' >= z, whose last message reaches P_j by C_{j,y} and was sent
// in the causal past of the junction's delivery.
CheckResult ref_junctions(const RdtAnalyses& a, Family family, bool visible) {
  const Pattern& p = a.pattern();
  const ChainAnalysis& chains = a.chains();
  CheckResult result;
  for (const NonCausalJunction& jn : chains.noncausal_junctions()) {
    const Message& mc = p.message(jn.incoming);
    const Message& mp = p.message(jn.outgoing);
    const CkptId target{mp.receiver, mp.deliver_interval};
    std::vector<CkptId> starts;
    if (family == Family::kMm) {
      starts.push_back({mc.sender, mc.send_interval});
    } else {
      const BitVector& bits = family == Family::kCm
                                  ? chains.causal_starts(jn.incoming)
                                  : chains.simple_causal_starts(jn.incoming);
      for (int node = 0; node < p.total_ckpts(); ++node)
        if (bits.get(static_cast<std::size_t>(node)))
          starts.push_back(p.node_ckpt(node));
    }
    for (const CkptId& start : starts) {
      ++result.paths_checked;
      bool ok = false;
      if (!visible) {
        ok = a.tdv().trackable(start, target);
      } else if (start.process == target.process) {
        ok = start.index <= target.index;
      } else {
        for (const Message& m2 : p.messages()) {
          if (m2.receiver != target.process ||
              m2.deliver_interval > target.index ||
              !p.happened_before(m2.send_event(), mc.deliver_event()))
            continue;
          const BitVector& from = chains.causal_starts(m2.id);
          for (CkptIndex z = start.index; z <= p.last_ckpt(start.process); ++z)
            ok = ok || from.get(static_cast<std::size_t>(
                           p.node_id({start.process, z})));
        }
      }
      if (ok) {
        ++result.paths_satisfied;
      } else if (result.ok) {
        result.ok = false;
        result.witness = RdtViolation{start, target, jn};
      }
    }
  }
  return result;
}

CheckResult ref_no_z_cycle(const RdtAnalyses& a) {
  const Pattern& p = a.pattern();
  CheckResult result;
  for (int node = 0; node < p.total_ckpts(); ++node) {
    const CkptId c = p.node_ckpt(node);
    ++result.paths_checked;
    if (!on_zigzag_cycle(a.closure(), c)) {
      ++result.paths_satisfied;
    } else if (result.ok) {
      result.ok = false;
      result.witness = RdtViolation{c, c, std::nullopt};
    }
  }
  return result;
}

void expect_same(const CheckResult& got, const CheckResult& want,
                 const std::string& name) {
  SCOPED_TRACE(name);
  EXPECT_EQ(got.ok, want.ok);
  EXPECT_EQ(got.paths_checked, want.paths_checked);
  EXPECT_EQ(got.paths_satisfied, want.paths_satisfied);
  ASSERT_EQ(got.witness.has_value(), want.witness.has_value());
  if (!want.witness) return;
  EXPECT_EQ(got.witness->from, want.witness->from);
  EXPECT_EQ(got.witness->to, want.witness->to);
  EXPECT_EQ(got.witness->junction, want.witness->junction);
}

// What the checked patterns exercised, so a sweep that silently stopped
// reaching the violation paths fails instead of passing vacuously.
struct Coverage {
  int patterns = 0;
  int z_cycles = 0;
  int rdt_violations = 0;
  int invisible_doublings = 0;  // RDT holds, VCM does not
};

void check_pattern(const Pattern& p, Coverage& seen) {
  const RdtAnalyses a(p);
  expect_closure_matches_references(a.closure());
  expect_start_maxima_match_bitsets(p, a.chains());

  const RdtReport r = analyze_rdt(a);
  const CheckResult def = ref_definitional(a);
  const CheckResult cm = ref_junctions(a, Family::kCm, false);
  const CheckResult pcm = ref_junctions(a, Family::kPcm, false);
  const CheckResult mm = ref_junctions(a, Family::kMm, false);
  const CheckResult vcm = ref_junctions(a, Family::kCm, true);
  const CheckResult vpcm = ref_junctions(a, Family::kPcm, true);
  const CheckResult cycle = ref_no_z_cycle(a);
  expect_same(r.definitional, def, "definitional");
  expect_same(r.cm, cm, "cm");
  expect_same(r.pcm, pcm, "pcm");
  expect_same(r.mm, mm, "mm");
  expect_same(r.vcm, vcm, "vcm");
  expect_same(r.vpcm, vpcm, "vpcm");
  expect_same(r.no_z_cycle, cycle, "no_z_cycle");
  // The standalone checkers run the same engine one family at a time.
  expect_same(check_rdt_definitional(a), def, "check_rdt_definitional");
  expect_same(check_cm_doubled(a), cm, "check_cm_doubled");
  expect_same(check_pcm_doubled(a), pcm, "check_pcm_doubled");
  expect_same(check_mm_doubled(a), mm, "check_mm_doubled");
  expect_same(check_cm_visibly_doubled(a), vcm, "check_cm_visibly_doubled");
  expect_same(check_pcm_visibly_doubled(a), vpcm, "check_pcm_visibly_doubled");
  expect_same(check_no_z_cycle(a), cycle, "check_no_z_cycle");

  ++seen.patterns;
  seen.z_cycles += cycle.ok ? 0 : 1;
  seen.rdt_violations += def.ok ? 0 : 1;
  seen.invisible_doublings += def.ok && !vcm.ok ? 1 : 0;
}

// ------------------------------------------------------------------- sweeps

TEST(AnalysisEquivalence, EveryProtocolEnvironmentAndSeed) {
  Coverage seen;
  for (const ProtocolKind kind : all_protocol_kinds()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const std::string label =
          ProtocolRegistry::instance().info(kind).id + " seed " +
          std::to_string(seed);
      RandomEnvConfig random;
      random.num_processes = 5;
      random.duration = 25.0;
      random.basic_ckpt_mean = 5.0;
      random.seed = seed;
      GroupEnvConfig group;
      group.num_groups = 2;
      group.group_size = 3;
      group.overlap = 1;
      group.duration = 20.0;
      group.basic_ckpt_mean = 5.0;
      group.seed = seed;
      ClientServerEnvConfig client_server;
      client_server.num_servers = 3;
      client_server.num_requests = 12;
      client_server.basic_ckpt_mean = 5.0;
      client_server.seed = seed;
      const std::pair<const char*, Trace> traces[] = {
          {"random", random_environment(random)},
          {"group", group_environment(group)},
          {"client-server", client_server_environment(client_server)}};
      for (const auto& [env, trace] : traces) {
        SCOPED_TRACE(label + " " + env);
        check_pattern(replay(trace, kind).pattern, seen);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  EXPECT_EQ(seen.patterns,
            static_cast<int>(all_protocol_kinds().size()) * 4 * 3);
  EXPECT_GT(seen.z_cycles, 0) << "no pattern exercised the Z-cycle path";
  EXPECT_GT(seen.rdt_violations, 0);
}

TEST(AnalysisEquivalence, UniformlyRandomPatterns) {
  Coverage seen;
  Rng rng(20260);
  for (int i = 0; i < 60; ++i) {
    SCOPED_TRACE("pattern " + std::to_string(i));
    const int procs = 2 + static_cast<int>(rng.below(5));
    const int steps = 20 + static_cast<int>(rng.below(220));
    check_pattern(test::random_pattern(rng, procs, steps), seen);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(seen.z_cycles, 0);
  EXPECT_GT(seen.rdt_violations, 0);
  EXPECT_LT(seen.rdt_violations, seen.patterns);
}

TEST(AnalysisEquivalence, HandBuiltFixtures) {
  Coverage seen;
  check_pattern(test::figure1().pattern, seen);
  check_pattern(test::rdt_but_not_visibly_doubled(), seen);
  EXPECT_EQ(seen.rdt_violations, 1);  // Figure 1's hidden dependency
  EXPECT_EQ(seen.invisible_doublings, 1);
}

}  // namespace
}  // namespace rdt
