// The pure rollback-propagation step shared by the batch recovery-line
// computation and the online engine.
//
// Wang's rule: rolling P_i back to C_{i,x} invalidates every checkpoint
// R-reachable from C_{i,x+1}. propagate_rollback() runs that multi-source
// sweep over any adjacency (a finished RGraph or the engine's published
// logs) and reports each invalidated node exactly once.
//
// The visited set is a parameter because the two callers want different
// ones. A batch sweep over a finished graph marks a dense array
// (DenseVisited). The online engine sweeps a small corner of a large,
// growing graph after every checkpoint; SparseVisited keeps its cost and
// footprint proportional to that corner, with no O(V) clear or resize.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace rdt {

// Visited set over the dense node ids [0, num_nodes) of a finished graph.
class DenseVisited {
 public:
  explicit DenseVisited(int num_nodes)
      : seen_(static_cast<std::size_t>(num_nodes), 0) {}

  // True when `node` was not yet in the set.
  bool insert(int node) {
    unsigned char& s = seen_[static_cast<std::size_t>(node)];
    if (s != 0) return false;
    s = 1;
    return true;
  }

 private:
  std::vector<unsigned char> seen_;
};

// Visited set for a long-lived caller: an open-addressing table of node
// ids, each slot tagged with the generation (sweep) that wrote it. clear()
// is O(1), and the table grows with the largest set ever held, never with
// the graph's node count.
class SparseVisited {
 public:
  void clear() {
    size_ = 0;
    if (++generation_ != 0) return;
    // Tag wrap-around: forget every stale slot once.
    std::fill(slots_.begin(), slots_.end(), Slot{});
    generation_ = 1;
  }

  // True when `node` was not yet in the set.
  bool insert(int node) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    const auto key = static_cast<std::uint32_t>(node);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.generation != generation_) {
        s = Slot{key, generation_};
        ++size_;
        return true;
      }
      if (s.node == key) return false;
    }
  }

  std::size_t capacity_bytes() const {
    return slots_.capacity() * sizeof(Slot);
  }

 private:
  struct Slot {
    std::uint32_t node = 0;
    std::uint32_t generation = 0;  // 0 never matches: generation_ >= 1
  };

  static std::size_t hash(std::uint32_t key) {
    return static_cast<std::size_t>(
        (std::uint64_t{key} * 0x9E3779B97F4A7C15ull) >> 32);
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<std::size_t>(64, 2 * old.size()), Slot{});
    size_ = 0;
    for (const Slot& s : old)
      if (s.generation == generation_) insert(static_cast<int>(s.node));
  }

  std::vector<Slot> slots_;  // power-of-two size, at most half full
  std::uint32_t generation_ = 1;
  std::size_t size_ = 0;
};

// Marks every node reachable (reflexively) from `seeds` and calls
// on_invalid(node) exactly once per marked node. `visited` must start
// empty; `stack` is caller-owned scratch. `for_each_succ(node, emit)` must
// call emit(v) for each successor v of `node`; duplicate emissions are
// fine. Seeds may repeat.
template <typename Visited, typename ForEachSucc, typename OnInvalid>
void propagate_rollback(Visited& visited, std::vector<int>& stack,
                        std::span<const int> seeds, ForEachSucc&& for_each_succ,
                        OnInvalid&& on_invalid) {
  stack.clear();
  const auto visit = [&](int n) {
    if (!visited.insert(n)) return;
    on_invalid(n);
    stack.push_back(n);
  };

  for (const int s : seeds) visit(s);
  while (!stack.empty()) {
    const int u = stack.back();
    stack.pop_back();
    for_each_succ(u, visit);
  }
}

}  // namespace rdt
