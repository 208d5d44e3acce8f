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

// Raise-sender fixpoint. Returns false iff repairing an orphan would move a
// pinned component. A repair moves a component one way for good, so repairs
// are few next to the scan's visits (every message, every pass): both
// fixpoints keep the repair out of line and the scan loop contiguous.
bool min_fixpoint(const Pattern& p, GlobalCkpt& g, const std::vector<bool>& pinned) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Message& m : p.messages()) {
      auto& x = g.indices[static_cast<std::size_t>(m.sender)];
      const auto y = g.indices[static_cast<std::size_t>(m.receiver)];
      if (m.send_interval > x && m.deliver_interval <= y) [[unlikely]] {
        if (pinned[static_cast<std::size_t>(m.sender)]) return false;
        x = m.send_interval;
        changed = true;
      }
    }
  }
  return true;
}

// Lower-receiver fixpoint, dual of the above.
bool max_fixpoint(const Pattern& p, GlobalCkpt& g, const std::vector<bool>& pinned) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Message& m : p.messages()) {
      const auto x = g.indices[static_cast<std::size_t>(m.sender)];
      auto& y = g.indices[static_cast<std::size_t>(m.receiver)];
      if (m.send_interval > x && m.deliver_interval <= y) [[unlikely]] {
        if (pinned[static_cast<std::size_t>(m.receiver)]) return false;
        y = m.deliver_interval - 1;
        changed = true;
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
