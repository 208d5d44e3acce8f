#include "core/global_checkpoint.hpp"

#include <algorithm>
#include <vector>

#include "util/check.hpp"

namespace rdt {

namespace {

// Pin bookkeeping shared by the containing variants.
std::vector<bool> pin_mask(const Pattern& p, std::span<const CkptId> pins) {
  std::vector<bool> pinned(static_cast<std::size_t>(p.num_processes()), false);
  for (const CkptId& c : pins) {
    RDT_REQUIRE(c.process >= 0 && c.process < p.num_processes(),
                "pinned process out of range");
    RDT_REQUIRE(c.index >= 0 && c.index <= p.last_ckpt(c.process),
                "pinned checkpoint index out of range");
    RDT_REQUIRE(!pinned[static_cast<std::size_t>(c.process)],
                "at most one pinned checkpoint per process");
    pinned[static_cast<std::size_t>(c.process)] = true;
  }
  return pinned;
}

// Both fixpoints are worklists over processes. A component moves one way
// only, so each message needs one look, taken when it first becomes a
// candidate orphan: in the raise-sender fixpoint when its delivery enters
// the cut, in the lower-receiver one when its send leaves it. scanned[i]
// records how far P_i's events have been looked at; a process whose
// component moved past that mark goes back on the worklist.

// Raise-sender fixpoint. Returns false iff repairing an orphan would move a
// pinned component. When g[j] rises to y, only P_j's deliveries up to
// C_{j,y} not yet looked at can be new orphans.
bool min_fixpoint(const Pattern& p, GlobalCkpt& g, const std::vector<bool>& pinned) {
  const auto n = static_cast<std::size_t>(p.num_processes());
  std::vector<CkptIndex> scanned(n, 0);  // deliveries up to C_{j,scanned[j]}
  std::vector<ProcessId> work;
  std::vector<char> queued(n, 0);
  const auto enqueue = [&](std::size_t j) {
    if (g.indices[j] > scanned[j] && !queued[j]) {
      queued[j] = 1;
      work.push_back(static_cast<ProcessId>(j));
    }
  };
  for (std::size_t j = 0; j < n; ++j) enqueue(j);
  while (!work.empty()) {
    const ProcessId j = work.back();
    const auto ju = static_cast<std::size_t>(j);
    work.pop_back();
    queued[ju] = 0;
    const EventIndex from = p.ckpt_pos(j, scanned[ju]) + 1;
    scanned[ju] = g.indices[ju];
    const EventIndex to = p.ckpt_pos(j, scanned[ju]);
    for (EventIndex pos = from; pos < to; ++pos) {
      const Event& e = p.event(j, pos);
      if (e.kind != EventKind::kDeliver) continue;
      const Message& m = p.message(e.msg);
      const auto s = static_cast<std::size_t>(m.sender);
      if (m.send_interval > g.indices[s]) {
        if (pinned[s]) return false;
        g.indices[s] = m.send_interval;
        enqueue(s);
      }
    }
  }
  return true;
}

// Lower-receiver fixpoint, dual of the above: when g[i] drops to x, only
// P_i's sends after C_{i,x} not yet looked at can be new orphans.
bool max_fixpoint(const Pattern& p, GlobalCkpt& g, const std::vector<bool>& pinned) {
  const auto n = static_cast<std::size_t>(p.num_processes());
  std::vector<CkptIndex> scanned(n);  // sends after C_{i,scanned[i]}
  std::vector<ProcessId> work;
  std::vector<char> queued(n, 0);
  const auto enqueue = [&](std::size_t i) {
    if (g.indices[i] < scanned[i] && !queued[i]) {
      queued[i] = 1;
      work.push_back(static_cast<ProcessId>(i));
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    scanned[i] = p.last_ckpt(static_cast<ProcessId>(i));
    enqueue(i);
  }
  while (!work.empty()) {
    const ProcessId i = work.back();
    const auto iu = static_cast<std::size_t>(i);
    work.pop_back();
    queued[iu] = 0;
    const EventIndex to = p.ckpt_pos(i, scanned[iu]);
    scanned[iu] = g.indices[iu];
    const EventIndex from = p.ckpt_pos(i, scanned[iu]) + 1;
    for (EventIndex pos = from; pos < to; ++pos) {
      const Event& e = p.event(i, pos);
      if (e.kind != EventKind::kSend) continue;
      const Message& m = p.message(e.msg);
      const auto r = static_cast<std::size_t>(m.receiver);
      if (m.deliver_interval <= g.indices[r]) {
        if (pinned[r]) return false;
        g.indices[r] = m.deliver_interval - 1;
        enqueue(r);
      }
    }
  }
  return true;
}

}  // namespace

GlobalCkpt bottom_global_ckpt(const Pattern& p) {
  GlobalCkpt g;
  g.indices.assign(static_cast<std::size_t>(p.num_processes()), 0);
  return g;
}

GlobalCkpt top_global_ckpt(const Pattern& p) {
  GlobalCkpt g;
  g.indices.resize(static_cast<std::size_t>(p.num_processes()));
  for (ProcessId i = 0; i < p.num_processes(); ++i)
    g.indices[static_cast<std::size_t>(i)] = p.last_ckpt(i);
  return g;
}

GlobalCkpt min_consistent_geq(const Pattern& p, const GlobalCkpt& lower) {
  validate(p, lower);
  GlobalCkpt g = lower;
  const std::vector<bool> none(static_cast<std::size_t>(p.num_processes()), false);
  const bool ok = min_fixpoint(p, g, none);
  RDT_ASSERT(ok);  // the top is consistent, so the fixpoint cannot fail
  return g;
}

GlobalCkpt max_consistent_leq(const Pattern& p, const GlobalCkpt& upper) {
  validate(p, upper);
  GlobalCkpt g = upper;
  const std::vector<bool> none(static_cast<std::size_t>(p.num_processes()), false);
  const bool ok = max_fixpoint(p, g, none);
  RDT_ASSERT(ok);  // the bottom is consistent
  return g;
}

std::optional<GlobalCkpt> min_consistent_containing(const Pattern& p,
                                                    std::span<const CkptId> pins) {
  const std::vector<bool> pinned = pin_mask(p, pins);
  GlobalCkpt g = bottom_global_ckpt(p);
  for (const CkptId& c : pins)
    g.indices[static_cast<std::size_t>(c.process)] = c.index;
  if (!min_fixpoint(p, g, pinned)) return std::nullopt;
  return g;
}

std::optional<GlobalCkpt> max_consistent_containing(const Pattern& p,
                                                    std::span<const CkptId> pins) {
  const std::vector<bool> pinned = pin_mask(p, pins);
  GlobalCkpt g = top_global_ckpt(p);
  for (const CkptId& c : pins)
    g.indices[static_cast<std::size_t>(c.process)] = c.index;
  if (!max_fixpoint(p, g, pinned)) return std::nullopt;
  return g;
}

std::optional<GlobalCkpt> brute_force_min_consistent_containing(
    const Pattern& p, std::span<const CkptId> pins) {
  const std::vector<bool> pinned = pin_mask(p, pins);

  long long combos = 1;
  for (ProcessId i = 0; i < p.num_processes(); ++i) {
    if (!pinned[static_cast<std::size_t>(i)]) combos *= p.last_ckpt(i) + 1;
    RDT_REQUIRE(combos <= 4'000'000, "pattern too large for brute force");
  }

  GlobalCkpt g = bottom_global_ckpt(p);
  for (const CkptId& c : pins)
    g.indices[static_cast<std::size_t>(c.process)] = c.index;

  // Fold all consistent candidates with componentwise_min (consistent
  // global checkpoints form a lattice, so the fold itself stays consistent
  // and yields the unique minimum; lattice_test.cpp validates the closure
  // property independently).
  std::optional<GlobalCkpt> best;
  while (true) {
    if (consistent(p, g)) best = best ? componentwise_min(*best, g) : g;
    ProcessId i = 0;
    for (; i < p.num_processes(); ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (pinned[idx]) continue;
      if (g.indices[idx] < p.last_ckpt(i)) {
        ++g.indices[idx];
        break;
      }
      g.indices[idx] = 0;
    }
    if (i == p.num_processes()) break;
  }
  return best;
}

}  // namespace rdt
