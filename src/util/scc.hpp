// Iterative Tarjan strongly-connected-component condensation.
//
// Shared by the two batch reachability sweeps that condense a graph before
// OR-ing bit rows along it: the R-graph closure (rgraph/reachability.cpp)
// and the junction graph of message chains (core/chains.cpp). Both graphs
// hand their adjacency out as contiguous id ranges, so the helper walks
// spans and keeps an explicit DFS stack — recursion would overflow on the
// long process chains of a large pattern.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace rdt {

// The components of a graph over nodes [0, n). Component ids follow
// completion order, which is reverse-topological: every successor
// component of c has an id < c, so one sweep over ids 0, 1, ... sees each
// component after all it can reach.
struct Condensation {
  std::vector<int> comp;           // per node: its component id
  std::vector<int> members;        // nodes grouped by component, in id order
  std::vector<std::size_t> begin;  // c's members: [begin[c], begin[c + 1])

  int size() const { return static_cast<int>(begin.size()) - 1; }
  std::span<const int> component(int c) const {
    const auto i = static_cast<std::size_t>(c);
    return std::span<const int>(members).subspan(begin[i], begin[i + 1] - begin[i]);
  }
};

// `successors(v)` returns the out-neighbours of v as a std::span<const int>.
template <typename Successors>
Condensation condense_scc(int n, Successors&& successors) {
  struct Frame {
    int v;
    std::span<const int> rest;
  };
  const auto size = static_cast<std::size_t>(n);
  Condensation out;
  out.comp.assign(size, -1);
  out.members.reserve(size);
  out.begin.push_back(0);
  std::vector<int> index(size, -1);
  std::vector<int> low(size, 0);
  std::vector<char> on_stack(size, 0);
  std::vector<int> stack;
  std::vector<Frame> dfs;
  int next_index = 0;

  const auto push_node = [&](int v) {
    const auto sv = static_cast<std::size_t>(v);
    index[sv] = low[sv] = next_index++;
    stack.push_back(v);
    on_stack[sv] = 1;
    dfs.push_back({v, successors(v)});
  };

  for (int root = 0; root < n; ++root) {
    if (index[static_cast<std::size_t>(root)] != -1) continue;
    push_node(root);
    while (!dfs.empty()) {
      Frame& f = dfs.back();
      if (!f.rest.empty()) {
        const int w = f.rest.front();
        f.rest = f.rest.subspan(1);
        const auto sw = static_cast<std::size_t>(w);
        if (index[sw] == -1) {
          push_node(w);
        } else if (on_stack[sw]) {
          auto& lv = low[static_cast<std::size_t>(f.v)];
          lv = std::min(lv, index[sw]);
        }
        continue;
      }
      const int v = f.v;
      const auto sv = static_cast<std::size_t>(v);
      if (low[sv] == index[sv]) {
        const int id = out.size();
        int member;
        do {
          member = stack.back();
          stack.pop_back();
          on_stack[static_cast<std::size_t>(member)] = 0;
          out.comp[static_cast<std::size_t>(member)] = id;
          out.members.push_back(member);
        } while (member != v);
        out.begin.push_back(out.members.size());
      }
      dfs.pop_back();
      if (!dfs.empty()) {
        auto& lp = low[static_cast<std::size_t>(dfs.back().v)];
        lp = std::min(lp, low[sv]);
      }
    }
  }
  return out;
}

}  // namespace rdt
