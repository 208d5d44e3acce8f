#include "rgraph/reachability.hpp"

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/scc.hpp"

namespace rdt {

ReachabilityClosure::ReachabilityClosure(const RGraph& graph) : graph_(&graph) {
  const int n = graph.num_nodes();
  const auto nodes = static_cast<std::size_t>(n);
  const Pattern& p = graph.pattern();

  // Typed CSR adjacency. RGraph's successor lists erase the process/message
  // distinction, so edges are re-derived from the pattern exactly as the
  // RGraph constructor does. Node u's list holds its process edge u -> u+1
  // first (when u is not its process's last checkpoint), then its
  // deduplicated message successors from msg_begin[u] on.
  std::vector<std::pair<int, int>> msg_edges;
  msg_edges.reserve(p.messages().size());
  for (const Message& m : p.messages())
    msg_edges.emplace_back(p.node_id({m.sender, m.send_interval}),
                           p.node_id({m.receiver, m.deliver_interval}));
  std::sort(msg_edges.begin(), msg_edges.end());
  msg_edges.erase(std::unique(msg_edges.begin(), msg_edges.end()), msg_edges.end());
  std::vector<char> has_next(nodes, 1);
  for (ProcessId i = 0; i < p.num_processes(); ++i)
    has_next[static_cast<std::size_t>(p.node_id({i, p.last_ckpt(i)}))] = 0;
  std::vector<std::size_t> begin(nodes + 1, 0);
  std::vector<std::size_t> msg_begin(nodes, 0);
  std::vector<int> adj;
  adj.reserve(nodes + msg_edges.size());
  std::size_t e = 0;
  for (std::size_t u = 0; u < nodes; ++u) {
    begin[u] = adj.size();
    if (has_next[u]) adj.push_back(static_cast<int>(u + 1));
    msg_begin[u] = adj.size();
    for (; e < msg_edges.size() && msg_edges[e].first == static_cast<int>(u); ++e)
      adj.push_back(msg_edges[e].second);
  }
  begin[nodes] = adj.size();

  // Condense, then fill rows in reverse-topological component order, so
  // every successor row read below is already final:
  //  * reach(c) = c's members | reach of every successor outside c;
  //  * msg(c)   = reach of message-edge successors | msg of process-edge
  //               successors, and all of reach(c) when c holds a message
  //               edge — a cycle inside c can then be taken first. Every
  //               non-trivial component holds one (process edges alone
  //               never close a cycle).
  // Members of one component share their rows: the first member's row is
  // computed and the others copy it.
  const Condensation scc = condense_scc(n, [&](int u) {
    const auto su = static_cast<std::size_t>(u);
    return std::span<const int>(adj).subspan(begin[su], begin[su + 1] - begin[su]);
  });

  reach_ = BitMatrix(nodes, nodes);
  msg_reach_ = BitMatrix(nodes, nodes);
  for (int c = 0; c < scc.size(); ++c) {
    const std::span<const int> group = scc.component(c);
    const auto first = static_cast<std::size_t>(group.front());
    const BitSpan reach = reach_.row(first);
    const BitSpan msg = msg_reach_.row(first);
    bool internal_msg = false;
    for (const int member : group) {
      const auto u = static_cast<std::size_t>(member);
      reach.set(u);
      for (std::size_t k = begin[u]; k < begin[u + 1]; ++k) {
        const auto v = static_cast<std::size_t>(adj[k]);
        const bool message = k >= msg_begin[u];
        if (scc.comp[v] == c) {
          internal_msg |= message;
          continue;
        }
        const ConstBitSpan reach_v = std::as_const(reach_).row(v);
        reach.merge(reach_v);
        msg.merge(message ? reach_v : std::as_const(msg_reach_).row(v));
      }
    }
    if (internal_msg) msg.merge(reach);
    for (const int member : group.subspan(1)) {
      reach_.row(static_cast<std::size_t>(member)).assign(reach);
      msg_reach_.row(static_cast<std::size_t>(member)).assign(msg);
    }
  }

  if constexpr (kAuditsEnabled) audit_reachability_closure(*this);
}

void audit_reachability_closure(const ReachabilityClosure& closure) {
  if constexpr (!kAuditsEnabled) return;
  const RGraph& graph = closure.graph();
  const Pattern& p = graph.pattern();
  const auto nodes = static_cast<std::size_t>(graph.num_nodes());

  // reach: each condensed row must equal an independent BFS from the node.
  std::vector<BitVector> bfs_rows(nodes);
  for (std::size_t u = 0; u < nodes; ++u) {
    bfs_rows[u] = graph.reachable_from(static_cast<int>(u));
    RDT_AUDIT(closure.reach_row(static_cast<int>(u)) == bfs_rows[u],
              "condensed reach closure disagrees with BFS at node " +
                  std::to_string(u));
  }

  // Word-parallel Warshall closure plus the message-edge OR pass — an
  // independent derivation of both planes the condensed build must
  // reproduce bit for bit.
  BitMatrix warshall(nodes, nodes);
  for (std::size_t u = 0; u < nodes; ++u)
    for (int v : graph.successors(static_cast<int>(u)))
      warshall.set(u, static_cast<std::size_t>(v));
  warshall.close_transitively();

  BitMatrix msg_warshall(nodes, nodes);
  std::vector<std::pair<int, int>> edges;
  edges.reserve(p.messages().size());
  for (const Message& m : p.messages())
    edges.emplace_back(p.node_id({m.sender, m.send_interval}),
                       p.node_id({m.receiver, m.deliver_interval}));
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  for (std::size_t a = 0; a < nodes; ++a) {
    const ConstBitSpan from_a = std::as_const(warshall).row(a);
    const BitSpan out = msg_warshall.row(a);
    for (const auto& [u, v] : edges)
      if (from_a.get(static_cast<std::size_t>(u)))
        out.or_with(std::as_const(warshall).row(static_cast<std::size_t>(v)));
  }
  for (std::size_t a = 0; a < nodes; ++a) {
    RDT_AUDIT(closure.reach_row(static_cast<int>(a)) ==
                  std::as_const(warshall).row(a),
              "condensed reach closure disagrees with the Warshall rebuild "
              "at node " +
                  std::to_string(a));
    RDT_AUDIT(closure.msg_reach_row(static_cast<int>(a)) ==
                  std::as_const(msg_warshall).row(a),
              "condensed msg_reach closure disagrees with the Warshall "
              "rebuild at node " +
                  std::to_string(a));
  }

  // msg_reach: re-derive from the BFS rows — msg_reach(a, b) iff some
  // message edge (u, v) has bfs(a, u) and bfs(v, b).
  std::vector<std::pair<int, int>> msg_edges;
  msg_edges.reserve(p.messages().size());
  for (const Message& m : p.messages())
    msg_edges.emplace_back(p.node_id({m.sender, m.send_interval}),
                           p.node_id({m.receiver, m.deliver_interval}));
  std::sort(msg_edges.begin(), msg_edges.end());
  msg_edges.erase(std::unique(msg_edges.begin(), msg_edges.end()), msg_edges.end());
  for (std::size_t a = 0; a < nodes; ++a) {
    BitVector expect(nodes);
    for (const auto& [u, v] : msg_edges)
      if (bfs_rows[a].get(static_cast<std::size_t>(u)))
        expect.or_with(bfs_rows[static_cast<std::size_t>(v)]);
    RDT_AUDIT(closure.msg_reach_row(static_cast<int>(a)) == expect,
              "msg_reach closure disagrees with BFS re-derivation at node " +
                  std::to_string(a));
  }
}

bool ReachabilityClosure::reach(int from, int to) const {
  RDT_REQUIRE(from >= 0 && from < graph_->num_nodes(), "node id out of range");
  RDT_REQUIRE(to >= 0 && to < graph_->num_nodes(), "node id out of range");
  return reach_.get(static_cast<std::size_t>(from), static_cast<std::size_t>(to));
}

bool ReachabilityClosure::reach(const CkptId& from, const CkptId& to) const {
  return reach(graph_->node(from), graph_->node(to));
}

bool ReachabilityClosure::msg_reach(int from, int to) const {
  RDT_REQUIRE(from >= 0 && from < graph_->num_nodes(), "node id out of range");
  RDT_REQUIRE(to >= 0 && to < graph_->num_nodes(), "node id out of range");
  return msg_reach_.get(static_cast<std::size_t>(from), static_cast<std::size_t>(to));
}

bool ReachabilityClosure::msg_reach(const CkptId& from, const CkptId& to) const {
  return msg_reach(graph_->node(from), graph_->node(to));
}

}  // namespace rdt
