// E6, E7, E9–E13: what the protocols' checkpoint patterns imply —
// consistent global checkpoints on the fly, the characterization hierarchy,
// the domino effect, useless checkpoints, the study repeated over live
// applications, hindsight necessity, and the contrast with coordinated
// checkpointing.
#include <chrono>
#include <iostream>

#include "ccp/shrink.hpp"
#include "core/global_checkpoint.hpp"
#include "core/rdt_checker.hpp"
#include "des/apps.hpp"
#include "des/snapshot.hpp"
#include "experiments.hpp"
#include "logging/message_log.hpp"
#include "protocols/registry.hpp"
#include "recovery/gc.hpp"
#include "recovery/recovery_line.hpp"
#include "rgraph/zigzag.hpp"
#include "sim/replay.hpp"
#include "util/rng.hpp"

// The randomized-pattern generator shared with the test suite.
#include "../tests/fixtures.hpp"

namespace rdt::bench {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// One replay of `kind` over a random environment of `n` processes.
ReplayResult replay_random(ProtocolKind kind, int n, double duration,
                           double basic_ckpt_mean, std::uint64_t seed) {
  RandomEnvConfig cfg;
  cfg.num_processes = n;
  cfg.duration = duration;
  cfg.basic_ckpt_mean = basic_ckpt_mean;
  cfg.seed = seed;
  return replay(random_environment(cfg), kind);
}

}  // namespace

// E6 — Corollary 4.5 in practice: the protocol hands out the minimum
// consistent global checkpoint containing each local checkpoint on the fly
// (a vector read), versus computing it offline from the pattern
// (orphan-repair fixpoint). Verifies the two agree and times them as the
// computation grows.
void run_mincgc(BenchReport& report) {
  banner({"E6 (minimum consistent global checkpoint) — Corollary 4.5",
          "on-the-fly (read the saved TDV) vs offline fixpoint, per query"});
  Table table({"duration", "ckpts", "messages", "on-the-fly us", "offline us",
               "agreement"});
  for (double duration : {50.0, 100.0, 200.0, 400.0, 800.0}) {
    const ReplayResult r = replay_random(ProtocolKind::kBhmr, 8, duration, 10.0, 7);
    const Pattern& p = r.pattern;

    long long queries = 0;
    long long agree = 0;

    // On the fly: assemble the global checkpoint from the saved vector.
    const auto t0 = Clock::now();
    std::vector<GlobalCkpt> onthefly;
    for (ProcessId i = 0; i < p.num_processes(); ++i) {
      const auto& saved = r.saved_tdvs[static_cast<std::size_t>(i)];
      for (CkptIndex x = 0; x < static_cast<CkptIndex>(saved.size()); ++x) {
        GlobalCkpt g;
        g.indices = saved[static_cast<std::size_t>(x)];
        g.indices[static_cast<std::size_t>(i)] = x;
        onthefly.push_back(std::move(g));
        ++queries;
      }
    }
    const double us_fly = 1e3 * ms_since(t0) / static_cast<double>(queries);

    // Offline: pinned orphan-repair fixpoint per checkpoint.
    const auto t1 = Clock::now();
    std::size_t q = 0;
    for (ProcessId i = 0; i < p.num_processes(); ++i) {
      const auto& saved = r.saved_tdvs[static_cast<std::size_t>(i)];
      for (CkptIndex x = 0; x < static_cast<CkptIndex>(saved.size()); ++x) {
        const std::vector<CkptId> pins{{i, x}};
        const auto offline = min_consistent_containing(p, pins);
        agree += offline && *offline == onthefly[q];
        ++q;
      }
    }
    const double us_off = 1e3 * ms_since(t1) / static_cast<double>(queries);

    report.add_metrics("mincgc",
                       json::Object{{"duration", duration},
                                    {"total_ckpts", p.total_ckpts()},
                                    {"messages", p.num_messages()},
                                    {"onthefly_us_per_query", us_fly},
                                    {"offline_us_per_query", us_off},
                                    {"agree", agree},
                                    {"queries", queries}});
    table.begin_row()
        .add(duration, 0)
        .add(p.total_ckpts())
        .add(p.num_messages())
        .add(us_fly, 3)
        .add(us_off, 1)
        .add(std::to_string(agree) + "/" + std::to_string(queries));
  }
  table.print(std::cout);
  std::cout << "\nunder the RDT-ensuring protocol the on-the-fly answer always "
               "matches the offline\ncomputation, at a per-query cost that "
               "stays flat while the offline cost grows\nwith the pattern.\n";
}

// E7 — the characterization hierarchy, empirically: agreement of every
// checker with the definitional RDT test over randomized patterns (the
// PODC paper's equivalences), plus the cost of each checker as the pattern
// grows. Also reports how often raw independent checkpointing satisfies
// RDT at all — the motivation for forcing checkpoints.
void run_characterizations(BenchReport& report) {
  banner({"E7 (visible characterizations) — checker agreement and cost",
          "hierarchy: {VCM<=>VPCM} => {DEF<=>CM<=>PCM<=>MM} => no Z-cycle"});
  // Each tally's table column, report key, and count over the patterns.
  struct Tally {
    const char* column = nullptr;
    const char* key = nullptr;
    long long count = 0;
  };
  Tally rdt_ok{"RDT holds", "rdt_holds"}, mm_eq{"MM==DEF", "mm_eq_def"},
      cm_eq{"CM==DEF", "cm_eq_def"}, pcm_eq{"PCM==DEF", "pcm_eq_def"},
      vcm_impl{"VCM=>DEF", "vcm_implies_def"}, vpcm_eq{"VPCM==VCM", "vpcm_eq_vcm"},
      def_not_vcm{"DEF w/o VCM", "def_without_vcm"},
      nozc_not_def{"cycle-free w/o RDT", "cycle_free_without_rdt"};
  Rng rng(20260705);
  const int patterns = 3000;
  for (int round = 0; round < patterns; ++round) {
    const int n = 2 + static_cast<int>(rng.below(4));
    const int steps = 20 + static_cast<int>(rng.below(150));
    const Pattern p = test::random_pattern(rng, n, steps);
    const RdtReport r = analyze_rdt(p);
    rdt_ok.count += r.definitional.ok;
    mm_eq.count += r.mm.ok == r.definitional.ok;
    cm_eq.count += r.cm.ok == r.definitional.ok;
    pcm_eq.count += r.pcm.ok == r.definitional.ok;
    vcm_impl.count += !r.vcm.ok || r.definitional.ok;
    vpcm_eq.count += r.vpcm.ok == r.vcm.ok;
    def_not_vcm.count += r.definitional.ok && !r.vcm.ok;
    nozc_not_def.count += r.no_z_cycle.ok && !r.definitional.ok;
  }
  const Tally* tallies[] = {&rdt_ok,   &mm_eq,   &cm_eq,       &pcm_eq,
                            &vcm_impl, &vpcm_eq, &def_not_vcm, &nozc_not_def};
  std::vector<std::string> columns{"patterns"};
  json::Object metrics{{"patterns", patterns}};
  for (const Tally* t : tallies) {
    columns.push_back(t->column);
    metrics.emplace_back(t->key, t->count);
  }
  Table agreement(std::move(columns));
  agreement.begin_row().add(patterns);
  for (const Tally* t : tallies) agreement.add(t->count);
  report.add_metrics("agreement", std::move(metrics));
  agreement.print(std::cout);
  std::cout << "MM/CM/PCM agree with the definitional check on every pattern "
               "(the equivalences);\nVCM implies RDT but not conversely "
               "(visibility is strictly stronger); cycle-freedom\nis strictly "
               "weaker. Independent checkpointing yields RDT on only a small "
               "fraction.\n";

  std::cout << "\nchecker cost (ms per pattern, single run) and junction-graph "
               "shape\n";
  Table cost({"steps", "ckpts", "junctions", "edges", "SCCs", "zreach ms",
              "DEF ms", "MM ms", "CM ms", "PCM ms", "VCM ms", "fused ms"});
  Rng cost_rng(99);
  for (int steps : {200, 400, 800, 1600, 3200}) {
    const Pattern p = test::random_pattern(cost_rng, 6, steps);
    const RdtAnalyses analyses(p);
    // One timed run per checker. DEF runs first, so its figure includes
    // building the closure.
    auto ms = [&](auto&& checker) {
      const auto t0 = Clock::now();
      (void)checker(analyses);
      return ms_since(t0);
    };
    const double def_ms = ms(check_rdt_definitional);
    const auto zs = analyses.chains().zreach_stats();
    const double mm_ms = ms(check_mm_doubled), cm_ms = ms(check_cm_doubled),
                 pcm_ms = ms(check_pcm_doubled), vcm_ms = ms(check_cm_visibly_doubled),
                 fused_ms = ms(check_junction_families);
    report.add_metrics("checker_cost", json::Object{{"steps", steps},
                                                    {"total_ckpts", p.total_ckpts()},
                                                    {"def_ms", def_ms},
                                                    {"mm_ms", mm_ms},
                                                    {"cm_ms", cm_ms},
                                                    {"pcm_ms", pcm_ms},
                                                    {"vcm_ms", vcm_ms},
                                                    {"fused_ms", fused_ms}});
    cost.begin_row()
        .add(steps)
        .add(p.total_ckpts())
        .add(analyses.chains().noncausal_junctions().size())
        .add(zs.edges)
        .add(zs.sccs);
    for (const double t : {zs.sweep_ms, def_ms, mm_ms, cm_ms, pcm_ms, vcm_ms, fused_ms})
      cost.add(t, 2);
  }
  cost.print(std::cout);
  std::cout << "'fused ms' runs all five junction families in one pass — "
               "compare with the sum of MM..VCM.\n";
}

namespace {

Trace ping_pong_trace(int rounds) {
  TraceBuilder tb(2);
  double t = 0;
  for (int round = 0; round < rounds; ++round) {
    tb.send(0, 1, t + 0.1, t + 0.4);
    tb.basic_ckpt(1, t + 0.5);
    tb.send(1, 0, t + 0.6, t + 0.9);
    tb.basic_ckpt(0, t + 1.0);
    t += 1.0;
  }
  return tb.build();
}


}  // namespace

// E9 — the domino effect, quantified (the paper's Section 1 motivation):
// rollback distance after a failure, with independent (basic only)
// checkpointing versus the RDT-ensuring protocols, on the adversarial
// ping-pong workload and on random traffic; then what sender-based message
// logs add on top.
void run_domino(BenchReport& report) {
  banner({"E9 (domino effect) — rollback after a failure, baseline vs RDT"});
  std::cout << "\nadversarial ping-pong workload, failure of P0 at the end;\n"
               "cells: total checkpoint intervals rolled back (all "
               "processes)\n";
  Table ping_pong({"rounds", "no-force", "NRAS", "FDAS", "BHMR"});
  for (int rounds : {4, 8, 16, 32, 64}) {
    const Trace t = ping_pong_trace(rounds);
    ping_pong.begin_row().add(rounds);
    json::Object row{{"rounds", rounds}};
    for (ProtocolKind kind : {ProtocolKind::kNoForce, ProtocolKind::kNras,
                              ProtocolKind::kFdas, ProtocolKind::kBhmr}) {
      const ReplayResult r = replay(t, kind);
      const long long rollback = recover_after_failure(r.pattern, 0).total_rollback;
      ping_pong.add(rollback);
      row.emplace_back(to_string(kind), rollback);
    }
    report.add_metrics("ping_pong_rollback", std::move(row));
  }
  ping_pong.print(std::cout);
  std::cout << "no-force grows linearly with the computation (unbounded "
               "domino); every\nRDT-ensuring protocol keeps the loss "
               "constant.\n";

  std::cout << "\nrandom environment (n=6), failure of P0; averages over 10 "
               "seeds\n";
  Table random({"protocol", "rollback intervals", "worst fraction",
                "forced ckpts"});
  for (ProtocolKind kind : {ProtocolKind::kNoForce, ProtocolKind::kNras,
                            ProtocolKind::kFdi, ProtocolKind::kFdas,
                            ProtocolKind::kBhmr}) {
    RunningStats rollback;
    RunningStats worst;
    long long forced = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const ReplayResult r = replay_random(kind, 6, 200, 10.0, seed);
      const RecoveryOutcome out = recover_after_failure(r.pattern, 0);
      rollback.add(static_cast<double>(out.total_rollback));
      worst.add(out.worst_fraction);
      forced += r.forced;
    }
    report.add_metrics(
        "random_rollback",
        json::Object{{"protocol", to_string(kind)},
                     {"rollback_intervals", to_json(rollback.summary())},
                     {"worst_fraction", to_json(worst.summary())},
                     {"forced", forced}});
    random.begin_row()
        .add(to_string(kind))
        .add(pm(rollback.summary(), 1))
        .add(pm(worst.summary(), 3))
        .add(forced);
  }
  random.print(std::cout);

  std::cout << "\ncheckpointing alone vs checkpointing + sender-based message "
               "logs\n(random n=6, single failure of P0, 10 seeds): work "
               "LOST vs work RE-EXECUTED\n";
  Table logging({"protocol", "lost (ckpt only)", "lost (with logs)",
                 "replayed events (logs)"});
  for (ProtocolKind kind : {ProtocolKind::kNoForce, ProtocolKind::kBhmr}) {
    RunningStats lost_plain;
    RunningStats lost_logs;
    RunningStats replayed;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const ReplayResult r = replay_random(kind, 6, 200, 10.0, seed);
      lost_plain.add(static_cast<double>(
          recover_after_failure(r.pattern, 0).total_rollback));
      const std::vector<ProcessId> failed{0};
      const LoggedRecoveryOutcome logged =
          recover_with_logging(r.pattern, failed);
      lost_logs.add(static_cast<double>(logged.rollback.total_rollback));
      replayed.add(static_cast<double>(logged.total_replayed));
    }
    report.add_metrics(
        "logging_rollback",
        json::Object{{"protocol", to_string(kind)},
                     {"lost_ckpt_only", to_json(lost_plain.summary())},
                     {"lost_with_logs", to_json(lost_logs.summary())},
                     {"replayed_events", to_json(replayed.summary())}});
    logging.begin_row()
        .add(to_string(kind))
        .add(pm(lost_plain.summary(), 1))
        .add(pm(lost_logs.summary(), 1))
        .add(pm(replayed.summary(), 1));
  }
  logging.print(std::cout);
  std::cout << "with logs a single failure loses nothing regardless of the "
               "protocol — the failed\nprocess deterministically replays from "
               "the surviving senders' logs (piecewise\ndeterminism, Section 1 "
               "of the paper).\n";
}

// E10 — useless checkpoints, storage, and where BCS sits. A checkpoint on a
// zigzag cycle belongs to no consistent global checkpoint — taking it was
// wasted work. Per protocol: the fraction of checkpoints that end up
// useless, how often the pattern satisfies RDT at all, and the fraction of
// stable storage the recovery line lets a garbage collector reclaim. The
// index-based BCS protocol is the interesting middle point: zero useless
// checkpoints (its guarantee) with O(1) piggybacking, yet RDT — a strictly
// stronger property — still fails without dependency vectors.
void run_useless_ckpts(BenchReport& report) {
  banner({"E10 (useless checkpoints & storage) — no-force vs BCS vs RDT family"});
  const int seeds = 8;
  Table table({"protocol", "wire bits/msg", "useless ckpt %", "RDT runs",
               "GC-collectable %", "forced/basic"});
  for (ProtocolKind kind :
       {ProtocolKind::kNoForce, ProtocolKind::kBcs, ProtocolKind::kNras,
        ProtocolKind::kFdas, ProtocolKind::kBhmr}) {
    RunningStats useless_frac;
    RunningStats gc_frac;
    RunningStats r_metric;
    int rdt_runs = 0;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      const ReplayResult r = replay_random(kind, 6, 150, 8.0, seed);
      const RGraph graph(r.pattern);
      const ReachabilityClosure closure(graph);
      const auto useless = useless_checkpoints(closure);
      useless_frac.add(100.0 * static_cast<double>(useless.size()) /
                       static_cast<double>(r.pattern.total_ckpts()));
      gc_frac.add(100.0 * collect_obsolete(r.pattern).obsolete_fraction);
      r_metric.add(r.forced_per_basic());
      rdt_runs += satisfies_rdt(r.pattern);
    }
    const std::size_t wire_bits =
        ProtocolRegistry::instance().info(kind).piggyback_bits(6).value();
    report.add_metrics(
        "useless_ckpts",
        json::Object{{"protocol", to_string(kind)},
                     {"wire_bits", wire_bits},
                     {"useless_pct", to_json(useless_frac.summary())},
                     {"rdt_runs", rdt_runs},
                     {"seeds", seeds},
                     {"gc_collectable_pct", to_json(gc_frac.summary())},
                     {"r_mean", r_metric.summary().mean}});
    table.begin_row()
        .add(to_string(kind))
        .add(wire_bits)
        .add(pm(useless_frac.summary(), 1))
        .add(std::to_string(rdt_runs) + "/" + std::to_string(seeds))
        .add(pm(gc_frac.summary(), 1))
        .add(r_metric.summary().mean, 3);
  }
  table.print(std::cout);
  std::cout
      << "\nno-force wastes a large share of its checkpoints and lets stable\n"
         "storage grow; BCS eliminates useless checkpoints with 32 bits of\n"
         "piggyback but leaves hidden dependencies (RDT fails); the\n"
         "dependency-vector family delivers full RDT, the BHMR protocol at\n"
         "the lowest forced-checkpoint rate.\n";
}

// E11 — the simulation study repeated over *live applications*. The papers
// evaluate protocols over synthetic communication models; here the same
// comparison runs over real programs on the event-driven runtime (token
// ring with gossip, epidemic dissemination, synchronous request chains),
// with the protocol interposed as middleware. The point is external
// validity: the protocol ordering and the client/server-style BHMR
// advantage seen on synthetic traces must survive contact with actual
// application logic — message contents, state machines, timers and all.
void run_des_apps(BenchReport& report) {
  banner({"E11 (live applications) — protocols as middleware under real apps"});
  const int seeds = 6;
  const int processes = 6;
  const std::vector<std::pair<std::string, std::function<des::AppFactory()>>>
      apps = {
          {"token ring + gossip",
           [] {
             return des::token_ring_app(
                 std::make_shared<des::TokenRingStats>());
           }},
          {"epidemic gossip",
           [] { return des::gossip_app(std::make_shared<des::GossipStats>()); }},
          {"synchronous request chain",
           [] {
             return des::request_chain_app(
                 std::make_shared<des::RequestChainStats>());
           }},
      };
  for (const auto& [name, make_app] : apps) {
    Table table({"protocol", "msgs", "R = forced/basic", "RDT runs"});
    for (ProtocolKind kind : {ProtocolKind::kNras, ProtocolKind::kBcs,
                              ProtocolKind::kFdas, ProtocolKind::kBhmr}) {
      RunningStats r;
      long long msgs = 0;
      int rdt_runs = 0;
      for (int s = 1; s <= seeds; ++s) {
        des::SimConfig cfg;
        cfg.protocol = kind;
        cfg.horizon = 80.0;
        cfg.basic_ckpt_mean = 8.0;  // plus whatever the app checkpoints itself
        cfg.seed = static_cast<std::uint64_t>(s);
        const des::SimResult res =
            des::run_simulation(processes, make_app(), cfg);
        r.add(res.basic > 0 ? static_cast<double>(res.forced) /
                                  static_cast<double>(res.basic)
                            : 0.0);
        msgs += res.messages;
        rdt_runs += satisfies_rdt(res.pattern);
      }
      report.add_metrics(name,
                         json::Object{{"protocol", to_string(kind)},
                                      {"messages", msgs},
                                      {"r_forced_per_basic", to_json(r.summary())},
                                      {"rdt_runs", rdt_runs},
                                      {"seeds", seeds}});
      table.begin_row()
          .add(to_string(kind))
          .add(msgs)
          .add(pm(r.summary()))
          .add(std::to_string(rdt_runs) + "/" + std::to_string(seeds));
    }
    std::cout << '\n' << name << " (" << processes << " processes, " << seeds
              << " seeds)\n";
    table.print(std::cout);
  }
  std::cout << "\nthe synthetic-trace findings carry over: every RDT protocol "
               "run satisfies RDT\non live programs, BCS seldom does, and the "
               "full protocol's advantage is again\nlargest where synchronous "
               "request/reply chains dominate.\n";
}

// E12 — hindsight necessity: how conservative is each protocol? A forced
// checkpoint is taken on the spot, from local knowledge; with the whole
// pattern in hand we can ask, for each one, whether RDT would still hold
// had it been skipped (remove the single checkpoint, merge its intervals,
// re-check). The fraction of individually-removable forced checkpoints is
// a protocol's *hindsight waste* — an upper bound on how much a cleverer
// on-line rule could still save (removals interact, so the jointly
// removable set is smaller). This quantifies the paper's central design
// argument: the richer the piggybacked knowledge, the closer the on-line
// decision gets to the offline oracle.
void run_hindsight(BenchReport& report) {
  banner({"E12 (hindsight necessity) — % of forced checkpoints an offline",
          "oracle could have skipped one at a time (lower = closer to optimal)"});
  const int seeds = 4;
  Table table({"protocol", "forced", "removable", "hindsight waste %"});
  for (ProtocolKind kind :
       {ProtocolKind::kCbr, ProtocolKind::kNras, ProtocolKind::kFdi,
        ProtocolKind::kFdas, ProtocolKind::kBhmrNoSimple, ProtocolKind::kBhmr}) {
    long long forced = 0;
    long long removable = 0;
    for (int s = 1; s <= seeds; ++s) {
      // Small on purpose: each forced checkpoint costs a re-check.
      const ReplayResult run =
          replay_random(kind, 4, 40, 8.0, static_cast<std::uint64_t>(s));
      forced += static_cast<long long>(run.forced_ckpts.size());
      for (const CkptId& c : run.forced_ckpts)
        removable += satisfies_rdt(drop_elements(run.pattern, {}, {c}));
    }
    report.add_metrics("hindsight",
                       json::Object{{"protocol", to_string(kind)},
                                    {"forced", forced},
                                    {"removable", removable}});
    table.begin_row()
        .add(to_string(kind))
        .add(forced)
        .add(removable)
        .add(forced > 0 ? 100.0 * static_cast<double>(removable) /
                              static_cast<double>(forced)
                        : 0.0,
             1);
  }
  table.print(std::cout);
  std::cout << "\nCBR's blind checkpoints are mostly skippable in hindsight; "
               "the dependency-\nvector protocols waste progressively less, "
               "with the full protocol the closest\nto the offline oracle — "
               "knowledge piggybacked is conservatism avoided.\n";
}

// E13 — coordinated vs communication-induced checkpointing: the paper's
// introduction contrast, measured. Chandy–Lamport buys each consistent
// global checkpoint with a flood of control messages, FIFO channels and
// snapshot latency; communication-induced checkpointing pays piggyback
// bytes and forced checkpoints but needs no control traffic, no channel
// assumptions, and every checkpoint is *continuously* covered
// (Corollary 4.5 gives a consistent global checkpoint per local
// checkpoint, not per coordination round).
void run_coordinated(BenchReport& report) {
  banner({"E13 (coordinated vs communication-induced) — the intro's contrast"});
  const int seeds = 6;
  Table table({"n", "CL control msgs/snapshot", "CL latency", "CL needs FIFO",
               "BHMR control msgs", "BHMR piggyback B/msg",
               "BHMR consistent cuts"});
  for (int n : {4, 8, 16}) {
    RunningStats latency;
    long long markers = 0;
    RunningStats cuts;  // local checkpoints, each with its min consistent GC
    for (int s = 1; s <= seeds; ++s) {
      // Coordinated: one Chandy–Lamport round over gossip traffic.
      auto log = std::make_shared<des::SnapshotLog>(n);
      des::SimConfig cl;
      cl.protocol = ProtocolKind::kNoForce;
      cl.horizon = 60.0;
      cl.fifo_channels = true;
      cl.seed = static_cast<std::uint64_t>(s);
      des::run_simulation(
          n,
          des::chandy_lamport_app(
              des::gossip_app(std::make_shared<des::GossipStats>(), 0.8, 0.4,
                              0.0),
              log, 0, 20.0),
          cl);
      markers += log->markers_sent;
      double last = 20.0;
      for (const auto& cut : log->cuts) last = std::max(last, cut.recorded_at);
      latency.add(last - 20.0);

      // Communication-induced: the same traffic under BHMR, basic
      // checkpoints at a comparable rate.
      des::SimConfig cic = cl;
      cic.protocol = ProtocolKind::kBhmr;
      cic.fifo_channels = false;  // no channel assumption needed
      cic.basic_ckpt_mean = 20.0;
      const des::SimResult run = des::run_simulation(
          n,
          des::gossip_app(std::make_shared<des::GossipStats>(), 0.8, 0.4, 0.0),
          cic);
      cuts.add(static_cast<double>(run.basic + run.forced));
    }
    const auto bhmr_bits = ProtocolRegistry::instance().info(ProtocolKind::kBhmr).piggyback_bits(n);
    const double piggy_bytes = static_cast<double>(bhmr_bits.value()) / 8.0;
    report.add_metrics(
        "coordinated_vs_cic",
        json::Object{{"num_processes", n},
                     {"seeds", seeds},
                     {"cl_control_msgs_per_snapshot", markers / seeds},
                     {"cl_latency", to_json(latency.summary())},
                     {"bhmr_wire_bytes_per_msg", piggy_bytes},
                     {"bhmr_consistent_cuts", to_json(cuts.summary())}});
    table.begin_row()
        .add(n)
        .add(markers / seeds)
        .add(pm(latency.summary(), 2))
        .add("yes")
        .add(0)
        .add(piggy_bytes, 0)
        .add(pm(cuts.summary(), 0));
  }
  table.print(std::cout);
  std::cout
      << "\none Chandy–Lamport round = one consistent cut for n(n-1) control\n"
         "messages plus the FIFO assumption; the CIC protocol recovers a\n"
         "consistent global checkpoint for EVERY local checkpoint (last "
         "column),\nwith zero control messages, paying instead with "
         "piggybacked bytes and\nforced checkpoints on the application's own "
         "traffic.\n";
}

}  // namespace rdt::bench
