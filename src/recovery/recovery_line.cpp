#include "recovery/recovery_line.hpp"

#include <algorithm>
#include <limits>

#include "ccp/audit.hpp"
#include "core/global_checkpoint.hpp"
#include "recovery/rollback.hpp"
#include "rgraph/rgraph.hpp"
#include "util/check.hpp"

namespace rdt {

GlobalCkpt last_durable(const Pattern& p) {
  GlobalCkpt g;
  g.indices.resize(static_cast<std::size_t>(p.num_processes()));
  for (ProcessId i = 0; i < p.num_processes(); ++i) {
    CkptIndex last = p.last_ckpt(i);
    if (last > 0 && p.ckpt_is_virtual(i, last)) --last;
    g.indices[static_cast<std::size_t>(i)] = last;
  }
  return g;
}

RecoveryOutcome recover_after_failure(const Pattern& p, ProcessId failed) {
  RDT_REQUIRE(failed >= 0 && failed < p.num_processes(), "process out of range");
  const GlobalCkpt upper = last_durable(p);

  RecoveryOutcome out;
  out.line = max_consistent_leq(p, upper);
  out.rollback_intervals.resize(static_cast<std::size_t>(p.num_processes()));
  for (ProcessId i = 0; i < p.num_processes(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const CkptIndex lost = upper.indices[idx] - out.line.indices[idx];
    out.rollback_intervals[idx] = lost;
    out.total_rollback += lost;
    if (upper.indices[idx] > 0)
      out.worst_fraction = std::max(
          out.worst_fraction, static_cast<double>(lost) /
                                  static_cast<double>(upper.indices[idx]));
  }
  if constexpr (kAuditsEnabled) audit_recovery_line(p, upper, out.line);
  return out;
}

GlobalCkpt recovery_line_rgraph(const Pattern& p, const GlobalCkpt& upper) {
  validate(p, upper);
  const RGraph graph(p);

  // Rolling P_i back to upper[i] means "before C_{i,upper[i]+1}" whenever
  // later checkpoints exist; everything R-reachable from those seeds is
  // invalidated. Batch = one propagate_rollback() sweep (the step the
  // online engine repeats incrementally), folding each invalidated node
  // into a per-process minimum instead of materializing the invalid set.
  std::vector<int> seeds;
  for (ProcessId i = 0; i < p.num_processes(); ++i) {
    const CkptIndex next = upper.indices[static_cast<std::size_t>(i)] + 1;
    if (next <= p.last_ckpt(i)) seeds.push_back(p.node_id({i, next}));
  }

  std::vector<CkptIndex> min_invalid(
      static_cast<std::size_t>(p.num_processes()),
      std::numeric_limits<CkptIndex>::max());
  DenseVisited visited(p.total_ckpts());
  std::vector<int> stack;
  propagate_rollback(
      visited, stack, seeds,
      [&](int u, auto&& emit) {
        for (const int v : graph.successors(u)) emit(v);
      },
      [&](int u) {
        const CkptId c = p.node_ckpt(u);
        CkptIndex& m = min_invalid[static_cast<std::size_t>(c.process)];
        m = std::min(m, c.index);
      });

  GlobalCkpt line = upper;
  for (ProcessId j = 0; j < p.num_processes(); ++j) {
    const auto idx = static_cast<std::size_t>(j);
    if (min_invalid[idx] <= line.indices[idx])
      line.indices[idx] = min_invalid[idx] - 1;  // below the first invalid node
    RDT_ASSERT(line.indices[idx] >= 0);  // C_{j,0} can never be invalidated
  }

  if constexpr (kAuditsEnabled) {
    // The pre-split derivation, verbatim: union the reachable sets into one
    // invalid bit vector and scan upward for the first invalid checkpoint.
    BitVector invalid(static_cast<std::size_t>(p.total_ckpts()));
    for (ProcessId i = 0; i < p.num_processes(); ++i) {
      const CkptIndex next = upper.indices[static_cast<std::size_t>(i)] + 1;
      if (next <= p.last_ckpt(i))
        invalid.or_with(graph.reachable_from(p.node_id({i, next})));
    }
    GlobalCkpt expect = upper;
    for (ProcessId j = 0; j < p.num_processes(); ++j) {
      const auto idx = static_cast<std::size_t>(j);
      for (CkptIndex y = 0; y <= expect.indices[idx]; ++y) {
        if (invalid.get(static_cast<std::size_t>(p.node_id({j, y})))) {
          expect.indices[idx] = y - 1;
          break;
        }
      }
    }
    RDT_AUDIT(line == expect,
              "rollback-propagation sweep disagrees with the direct "
              "invalid-set derivation of the recovery line");
  }

  return line;
}

void audit_recovery_line(const Pattern& p, const GlobalCkpt& upper,
                         const GlobalCkpt& line) {
  if constexpr (!kAuditsEnabled) return;
  validate(p, upper);
  validate(p, line);
  RDT_AUDIT(leq(line, upper), "recovery line exceeds the rollback bound");
  audit_consistent_global_ckpt(p, line, "the recovery line");
  // The orphan-repair fixpoint and Wang's R-graph rollback propagation are
  // independent algorithms for the same lattice maximum; they must agree.
  RDT_AUDIT(line == recovery_line_rgraph(p, upper),
            "orphan-repair fixpoint and R-graph rollback propagation disagree "
            "on the recovery line");
}

}  // namespace rdt
