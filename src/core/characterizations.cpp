#include "core/characterizations.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <vector>

#include "rgraph/zigzag.hpp"
#include "util/check.hpp"

namespace rdt {

std::string RdtViolation::describe() const {
  std::ostringstream os;
  os << "dependency " << from << " -> " << to << " is not on-line trackable";
  if (junction) {
    os << " (witness: non-causal junction at P" << junction->at << ": m"
       << junction->outgoing << " sent before m" << junction->incoming
       << " was delivered)";
  }
  return os.str();
}

const ChainAnalysis& RdtAnalyses::chains() const {
  std::call_once(chains_once_, [&] { chains_.emplace(*pattern_); });
  return *chains_;
}

const ReachabilityClosure& RdtAnalyses::closure() const {
  std::call_once(closure_once_, [&] {
    rgraph_.emplace(*pattern_);
    closure_.emplace(*rgraph_);
  });
  return *closure_;
}

namespace {

// Sets bits [lo, hi) of a word block.
void set_range(BitSpan bits, std::size_t lo, std::size_t hi) {
  if (lo >= hi) return;
  std::uint64_t* w = bits.words();
  const std::size_t first = lo >> 6;
  const std::size_t last = (hi - 1) >> 6;
  const std::uint64_t head = ~0ULL << (lo & 63);
  const std::uint64_t tail = ~0ULL >> (63 - ((hi - 1) & 63));
  if (first == last) {
    w[first] |= head & tail;
    return;
  }
  w[first] |= head;
  for (std::size_t i = first + 1; i < last; ++i) w[i] = ~0ULL;
  w[last] |= tail;
}

// A row of candidate paths counted against the mask of the ones that hold.
struct MaskTally {
  long long all = 0;
  long long inside = 0;
  std::size_t first_outside = 0;  // lowest set bit of row & ~mask, or size
};

MaskTally tally(ConstBitSpan row, ConstBitSpan mask) {
  const std::uint64_t* r = row.words();
  const std::uint64_t* m = mask.words();
  MaskTally t;
  t.first_outside = row.size();
  for (std::size_t w = 0; w < row.num_words(); ++w) {
    t.all += std::popcount(r[w]);
    t.inside += std::popcount(r[w] & m[w]);
    const std::uint64_t out = r[w] & ~m[w];
    if (out != 0 && t.first_outside == row.size())
      t.first_outside = w * 64 + static_cast<std::size_t>(std::countr_zero(out));
  }
  return t;
}

// Adds the tally's counts to `result`; on the first failure, records the
// witness make_witness(first_outside) builds.
template <typename MakeWitness>
void record(CheckResult& result, const MaskTally& t, MakeWitness&& make_witness) {
  result.paths_checked += t.all;
  result.paths_satisfied += t.inside;
  if (t.inside != t.all && result.ok) {
    result.ok = false;
    result.witness = make_witness(t.first_outside);
  }
}

}  // namespace

// Per source process k, x sweeps from last_ckpt(k) down to 0 while `mask`
// grows to the targets C_{k,x} can track: P_k's checkpoints from x on, and
// every C_{j,y} with TDV_{j,y}[k] >= x. Each source row is then counted
// against the mask word-parallel. The witness is the first untracked pair
// in (u, v) node order: the lowest untracked bit at the smallest violating
// x of the first violating process.
CheckResult check_rdt_definitional(const RdtAnalyses& a) {
  const Pattern& p = a.pattern();
  const ReachabilityClosure& closure = a.closure();
  const TdvAnalysis& tdv = a.tdv();
  const auto nodes = static_cast<std::size_t>(p.total_ckpts());
  CheckResult result;
  BitVector mask(nodes);
  // Nodes of the other processes bucketed by TDV entry: singly linked
  // lists through `next`, one head per value of x.
  std::vector<int> head;
  std::vector<int> next(nodes, -1);
  for (ProcessId k = 0; k < p.num_processes(); ++k) {
    const CkptIndex last = p.last_ckpt(k);
    const auto base = static_cast<std::size_t>(p.node_id({k, 0}));
    head.assign(static_cast<std::size_t>(last) + 1, -1);
    for (ProcessId j = 0; j < p.num_processes(); ++j) {
      if (j == k) continue;
      for (CkptIndex y = 0; y <= p.last_ckpt(j); ++y) {
        const int v = p.node_id({j, y});
        const auto x = static_cast<std::size_t>(std::min(
            tdv.at_ckpt({j, y})[static_cast<std::size_t>(k)], last));
        next[static_cast<std::size_t>(v)] = head[x];
        head[x] = v;
      }
    }
    mask.reset();
    CkptIndex bad_x = -1;
    std::size_t bad_v = 0;
    for (CkptIndex x = last; x >= 0; --x) {
      const std::size_t u = base + static_cast<std::size_t>(x);
      mask.set(u);
      for (int v = head[static_cast<std::size_t>(x)]; v != -1;
           v = next[static_cast<std::size_t>(v)])
        mask.set(static_cast<std::size_t>(v));
      const MaskTally t = tally(closure.msg_reach_row(static_cast<int>(u)), mask);
      result.paths_checked += t.all;
      result.paths_satisfied += t.inside;
      if (t.inside != t.all) {
        bad_x = x;
        bad_v = t.first_outside;
      }
    }
    if (bad_x >= 0 && result.ok) {
      result.ok = false;
      result.witness = RdtViolation{
          {k, bad_x}, p.node_ckpt(static_cast<int>(bad_v)), std::nullopt};
    }
  }
  return result;
}

namespace {

enum class Family { kMm, kCm, kPcm };
enum class Doubling { kAny, kVisible };

struct JunctionQuery {
  Family family;
  Doubling mode;
  CheckResult* out;
};

// Shared engine for the junction-based checkers. For every non-causal
// junction (m_c delivered at P_i after m' was sent to P_j in the same
// interval) and every admissible start checkpoint C_{k,z} of the chain
// prefix ending at m_c, the induced path C_{k,z} -> C_{j,y} must be doubled
// (resp. visibly doubled). Both relations are per-process prefixes of the
// start's index, so each junction builds two masks — "trackable to C_{j,y}"
// and "visibly doubled" — and every family's start bitset is counted
// against them word-parallel. Evaluating all queries in one sweep lets the
// families share the masks and the visible-doubling scan; each query's
// counters and first witness (the lowest failing start node of the first
// failing junction) are exactly what a standalone run would produce.
void run_junction_queries(const RdtAnalyses& a,
                          const std::vector<JunctionQuery>& queries) {
  const Pattern& p = a.pattern();
  const ChainAnalysis& chains = a.chains();
  const TdvAnalysis& tdv = a.tdv();
  const auto nodes = static_cast<std::size_t>(p.total_ckpts());

  // The masks serve the bitset families (CM, PCM). MM — only ever checked
  // for plain doubling — has one start per junction, which is cheaper to
  // test directly than to build a mask for.
  bool want_track = false;
  bool want_visible = false;
  for (const JunctionQuery& q : queries) {
    RDT_ASSERT(q.family != Family::kMm || q.mode == Doubling::kAny);
    if (q.family != Family::kMm)
      (q.mode == Doubling::kAny ? want_track : want_visible) = true;
  }

  // Messages delivered to each process in delivery order, for the
  // visible-doubling scan.
  std::vector<std::vector<MsgId>> delivered_to(
      static_cast<std::size_t>(p.num_processes()));
  if (want_visible) {
    for (const Message& m : p.messages())
      delivered_to[static_cast<std::size_t>(m.receiver)].push_back(m.id);
    for (auto& list : delivered_to)
      std::sort(list.begin(), list.end(), [&p](MsgId x, MsgId y) {
        return p.message(x).deliver_pos < p.message(y).deliver_pos;
      });
  }

  std::vector<CkptIndex> best_visible;
  BitVector trackable(nodes);
  BitVector visible(nodes);
  // Sets, for every process k, the bits of C_{k,0..bound(k)}.
  const auto fill_prefixes = [&p](BitVector& mask, auto&& bound) {
    mask.reset();
    for (ProcessId k = 0; k < p.num_processes(); ++k) {
      const auto base = static_cast<std::size_t>(p.node_id({k, 0}));
      const CkptIndex hi = std::min(bound(k), p.last_ckpt(k));
      set_range(mask.span(), base, base + static_cast<std::size_t>(hi) + 1);
    }
  };

  for (const NonCausalJunction& jn : chains.noncausal_junctions()) {
    const Message& mc = p.message(jn.incoming);
    const Message& mp = p.message(jn.outgoing);
    const ProcessId j = mp.receiver;
    const CkptIndex y = mp.deliver_interval;
    const CkptId target{j, y};

    // trackable: C_{k,z} -> C_{j,y} is on-line trackable iff z <= y on P_j
    // itself, else z <= TDV_{j,y}[k].
    if (want_track) {
      const Tdv& at_target = tdv.at_ckpt(target);
      fill_prefixes(trackable, [&](ProcessId k) {
        return k == j ? y : at_target[static_cast<std::size_t>(k)];
      });
    }

    // Visible doublings available at this junction: best_visible[k] is the
    // highest z' such that a causal chain from C_{k,z'} reaches P_j at or
    // before C_{j,y} with its last send in the causal past of the decision
    // point deliver(m_c). Same-process doubling is positional: P_j's own
    // order is visible.
    if (want_visible) {
      best_visible.assign(static_cast<std::size_t>(p.num_processes()), 0);
      for (MsgId cand : delivered_to[static_cast<std::size_t>(j)]) {
        const Message& m2 = p.message(cand);
        if (m2.deliver_interval > y) break;
        if (!p.happened_before(m2.send_event(), mc.deliver_event())) continue;
        for (ProcessId k = 0; k < p.num_processes(); ++k) {
          const CkptIndex z = chains.max_causal_start(cand, k);
          if (z > best_visible[static_cast<std::size_t>(k)])
            best_visible[static_cast<std::size_t>(k)] = z;
        }
      }
      fill_prefixes(visible, [&](ProcessId k) {
        return k == j ? y : best_visible[static_cast<std::size_t>(k)];
      });
    }

    const CkptId mm_start{mc.sender, mc.send_interval};
    for (const JunctionQuery& q : queries) {
      if (q.family == Family::kMm) {
        const bool ok = tdv.trackable(mm_start, target);
        record(*q.out, {1, ok ? 1 : 0, 0},
               [&](std::size_t) { return RdtViolation{mm_start, target, jn}; });
        continue;
      }
      const BitVector& mask = q.mode == Doubling::kAny ? trackable : visible;
      const BitVector& starts = q.family == Family::kCm
                                    ? chains.causal_starts(jn.incoming)
                                    : chains.simple_causal_starts(jn.incoming);
      record(*q.out, tally(starts, mask), [&](std::size_t start) {
        return RdtViolation{p.node_ckpt(static_cast<int>(start)), target, jn};
      });
    }
  }
}

CheckResult check_junctions(const RdtAnalyses& a, Family family, Doubling mode) {
  CheckResult result;
  run_junction_queries(a, {{family, mode, &result}});
  return result;
}

}  // namespace

CheckResult check_cm_doubled(const RdtAnalyses& a) {
  return check_junctions(a, Family::kCm, Doubling::kAny);
}

CheckResult check_pcm_doubled(const RdtAnalyses& a) {
  return check_junctions(a, Family::kPcm, Doubling::kAny);
}

CheckResult check_mm_doubled(const RdtAnalyses& a) {
  return check_junctions(a, Family::kMm, Doubling::kAny);
}

CheckResult check_cm_visibly_doubled(const RdtAnalyses& a) {
  return check_junctions(a, Family::kCm, Doubling::kVisible);
}

CheckResult check_pcm_visibly_doubled(const RdtAnalyses& a) {
  return check_junctions(a, Family::kPcm, Doubling::kVisible);
}

JunctionReport check_junction_families(const RdtAnalyses& a) {
  JunctionReport report;
  run_junction_queries(a, {{Family::kCm, Doubling::kAny, &report.cm},
                           {Family::kPcm, Doubling::kAny, &report.pcm},
                           {Family::kMm, Doubling::kAny, &report.mm},
                           {Family::kCm, Doubling::kVisible, &report.vcm},
                           {Family::kPcm, Doubling::kVisible, &report.vpcm}});
  return report;
}

CheckResult check_no_z_cycle(const RdtAnalyses& a) {
  const Pattern& p = a.pattern();
  const ReachabilityClosure& closure = a.closure();
  CheckResult result;
  for (ProcessId k = 0; k < p.num_processes(); ++k)
    for (CkptIndex x = 0; x <= p.last_ckpt(k); ++x) {
      const CkptId c{k, x};
      ++result.paths_checked;
      if (!on_zigzag_cycle(closure, c)) {
        ++result.paths_satisfied;
      } else if (result.ok) {
        result.ok = false;
        result.witness = RdtViolation{c, c, std::nullopt};
      }
    }
  return result;
}

}  // namespace rdt
