// The word-parallel Figure 6 kernel (BhmrPlanes, protocols/bhmr.hpp) against
// the per-bit rules it replaced. The reference below is the bookkeeping
// BhmrProtocol and AdaptiveProtocol each carried before they shared the
// kernel: C1 as a loop over the set bits j of sent_to and the rows k, the
// per-k case statement one bit and one row at a time, the closure one bit
// per row, the checkpoint reset one bit per column. Random states and
// payloads drive every BHMR variant and the adaptive protocol in both
// modes through both, at process counts that cover one-word rows, full
// words, multiword rows and their tails; after every step the predicate
// that fired, the simple array and the causal matrix must agree. Payloads
// sometimes carry stray bits beyond the row width, which both must ignore.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "protocols/adaptive.hpp"
#include "protocols/bhmr.hpp"
#include "protocols/registry.hpp"
#include "util/rng.hpp"

namespace rdt {
namespace {

class Reference {
 public:
  Reference(ProtocolKind kind, int n, ProcessId self)
      : kind_(kind),
        n_(static_cast<std::size_t>(n)),
        self_(static_cast<std::size_t>(self)),
        simple_(n_),
        causal_(n_, n_) {
    simple_.set(self_);
    if (kind_ != ProtocolKind::kBhmrC1Only) causal_.set_diagonal(true);
  }

  const BitVector& simple() const { return simple_; }
  const BitMatrix& causal() const { return causal_; }
  bool lean() const { return lean_; }

  ForceReason force_reason(const PiggybackView& msg, const CicProtocol& p) const {
    const Tdv& tdv = p.tdv();
    if (lean_) {
      if (!p.after_first_send()) return ForceReason::kNone;
      for (std::size_t k = 0; k < n_; ++k)
        if (msg.tdv[k] > tdv[k]) return ForceReason::kNewDependency;
      return ForceReason::kNone;
    }
    for (std::size_t j = p.sent_to().find_next(0); j < n_;
         j = p.sent_to().find_next(j + 1))
      for (std::size_t k = 0; k < n_; ++k)
        if (msg.tdv[k] > tdv[k] && !msg.causal.get(k, j)) return ForceReason::kC1;
    switch (kind_) {
      case ProtocolKind::kBhmrC1Only:
        return ForceReason::kNone;
      case ProtocolKind::kBhmrNoSimple:
        if (msg.tdv[self_] != tdv[self_]) return ForceReason::kNone;
        for (std::size_t k = 0; k < n_; ++k)
          if (msg.tdv[k] > tdv[k]) return ForceReason::kC2;
        return ForceReason::kNone;
      default:
        return msg.tdv[self_] == tdv[self_] && !msg.simple.get(self_)
                   ? ForceReason::kC2
                   : ForceReason::kNone;
    }
  }

  // What on_send must write into the simple and causal planes.
  void expect_filled(const Piggyback& out) {
    ++window_sends_;
    if (lean_) {
      EXPECT_EQ(out.simple, BitVector(n_));
      EXPECT_EQ(out.causal, BitMatrix(n_, n_));
      return;
    }
    if (has_simple()) {
      EXPECT_EQ(out.simple, simple_);
    }
    EXPECT_EQ(out.causal, causal_);
  }

  // Run before CicProtocol::on_deliver: the rules read the pre-merge TDV.
  void merge(const PiggybackView& msg, const Tdv& tdv, ProcessId sender) {
    for (std::size_t k = 0; k < n_; ++k) {
      if (msg.tdv[k] > tdv[k]) {
        if (has_simple()) simple_.set(k, msg.simple.get(k));
        causal_.row(k).assign(msg.causal.row(k));
      } else if (msg.tdv[k] == tdv[k]) {
        if (has_simple()) simple_.set(k, simple_.get(k) && msg.simple.get(k));
        causal_.row(k).or_with(msg.causal.row(k));
      }
    }
    if (has_simple()) simple_.set(self_);
    const auto s = static_cast<std::size_t>(sender);
    causal_.set(s, self_, true);
    for (std::size_t l = 0; l < n_; ++l)
      if (causal_.get(l, s)) causal_.set(l, self_, true);
    if (kind_ == ProtocolKind::kBhmrC1Only) causal_.set(self_, self_, false);
    if (kind_ == ProtocolKind::kAdaptive) {
      ++window_delivers_;
      maybe_switch();
    }
  }

  void reset() {
    for (std::size_t j = 0; j < n_; ++j) {
      if (j == self_) continue;
      simple_.set(j, false);
      causal_.set(self_, j, false);
    }
  }

 private:
  bool has_simple() const {
    return kind_ == ProtocolKind::kBhmr || kind_ == ProtocolKind::kAdaptive;
  }

  void maybe_switch() {
    if (window_sends_ + window_delivers_ < AdaptiveProtocol::kWindow) return;
    std::size_t known = 0;
    for (std::size_t r = 0; r < n_; ++r) known += causal_.row(r).count();
    lean_ = window_sends_ >= AdaptiveProtocol::kSendHeavyRatio * window_delivers_ ||
            static_cast<long long>(known) * AdaptiveProtocol::kSparseDivisor <
                static_cast<long long>(n_ * n_);
    window_sends_ = 0;
    window_delivers_ = 0;
  }

  ProtocolKind kind_;
  std::size_t n_;
  std::size_t self_;
  BitVector simple_;
  BitMatrix causal_;
  bool lean_ = false;
  long long window_sends_ = 0;
  long long window_delivers_ = 0;
};

// A delivered payload over raw words, so rows can carry stray tail bits
// the way a foreign buffer might.
struct RawPayload {
  std::vector<CkptIndex> tdv;
  std::vector<std::uint64_t> simple;
  std::vector<std::uint64_t> causal;
  std::size_t n = 0;

  PiggybackView view() const {
    return {.tdv = tdv,
            .simple = ConstBitSpan(simple.data(), n),
            .causal = ConstBitMatrixSpan(causal.data(), n, n)};
  }
};

RawPayload random_payload(const CicProtocol& p, double density, Rng& rng) {
  RawPayload m;
  m.n = static_cast<std::size_t>(p.num_processes());
  const std::size_t words = bitdetail::words_for(m.n);
  // Entries behind, equal to or ahead of the local TDV: the three arms of
  // the per-k case statement. No message knows a later interval of its
  // receiver, so the own entry is never ahead.
  for (std::size_t k = 0; k < m.n; ++k) {
    const std::int64_t ahead = k == static_cast<std::size_t>(p.self()) ? 0 : 2;
    m.tdv.push_back(static_cast<CkptIndex>(
        std::max<std::int64_t>(0, p.tdv()[k] + rng.uniform_int(-1, ahead))));
  }
  m.simple.assign(words, 0);
  m.causal.assign(m.n * words, 0);
  for (std::size_t k = 0; k < m.n; ++k) {
    if (rng.uniform() < density) m.simple[k / 64] |= 1ULL << (k % 64);
    for (std::size_t j = 0; j < m.n; ++j)
      if (rng.uniform() < density) m.causal[k * words + j / 64] |= 1ULL << (j % 64);
  }
  if (m.n % 64 != 0 && rng.uniform() < 0.2) {
    m.simple[words - 1] |= ~0ULL << (m.n % 64);
    for (std::size_t k = 0; k < m.n; ++k)
      m.causal[k * words + words - 1] |= ~0ULL << (m.n % 64);
  }
  return m;
}

const BitVector& simple_state(const CicProtocol& p) {
  if (const auto* a = dynamic_cast<const AdaptiveProtocol*>(&p)) return a->simple_state();
  return dynamic_cast<const BhmrProtocol&>(p).simple_state();
}

const BitMatrix& causal_state(const CicProtocol& p) {
  if (const auto* a = dynamic_cast<const AdaptiveProtocol*>(&p)) return a->causal_state();
  return dynamic_cast<const BhmrProtocol&>(p).causal_state();
}

TEST(BhmrKernel, MatchesThePerBitRules) {
  const ProtocolKind kinds[] = {ProtocolKind::kBhmr, ProtocolKind::kBhmrNoSimple,
                                ProtocolKind::kBhmrC1Only, ProtocolKind::kAdaptive};
  const int sizes[] = {1, 2, 7, 8, 9, 63, 64, 65, 130};
  constexpr int kSteps = 800;
  for (const ProtocolKind kind : kinds) {
    std::array<long long, kNumForceReasons> fired{};
    bool saw_lean = false;
    bool back_to_rich = false;
    for (const int n : sizes) {
      SCOPED_TRACE(to_string(kind) + " n=" + std::to_string(n));
      Rng rng(static_cast<std::uint64_t>(n) * 131 + static_cast<std::uint64_t>(kind));
      const auto self = static_cast<ProcessId>(rng.uniform_int(0, n - 1));
      const auto p = ProtocolRegistry::instance().create(kind, n, self);
      Reference ref(kind, n, self);
      double density = 0.5;
      double send_share = 0.3;
      for (int step = 0; step < kSteps; ++step) {
        // Phases of dense and sparse knowledge, send-heavy and
        // delivery-heavy traffic, so the adaptive protocol changes mode.
        if (step % 100 == 0) {
          density = std::array{0.05, 0.5, 0.97}[static_cast<std::size_t>(rng.uniform_int(0, 2))];
          send_share = std::array{0.1, 0.4, 0.8}[static_cast<std::size_t>(rng.uniform_int(0, 2))];
        }
        const auto other = [&] {
          auto q = static_cast<ProcessId>(rng.uniform_int(0, n - 2));
          return q >= self ? q + 1 : q;
        };
        const double r = rng.uniform();
        if (n > 1 && r < send_share) {
          Piggyback out = p->make_payload();
          p->on_send(other(), out.slot());
          ref.expect_filled(out);
        } else if (n > 1 && r < 0.95) {
          const RawPayload m = random_payload(*p, density, rng);
          const ProcessId sender = other();
          const ForceReason reason = p->force_reason(m.view(), sender);
          ASSERT_EQ(reason, ref.force_reason(m.view(), *p)) << "step " << step;
          ++fired[static_cast<std::size_t>(reason)];
          if (reason != ForceReason::kNone) {
            p->on_forced_checkpoint(reason);
            ref.reset();
          }
          ref.merge(m.view(), p->tdv(), sender);
          p->on_deliver(m.view(), sender);
        } else {
          p->on_basic_checkpoint();
          ref.reset();
        }
        ASSERT_EQ(simple_state(*p), ref.simple()) << "step " << step;
        ASSERT_EQ(causal_state(*p), ref.causal()) << "step " << step;
        if (const auto* a = dynamic_cast<const AdaptiveProtocol*>(p.get())) {
          ASSERT_EQ(a->mode() == AdaptiveProtocol::Mode::kLean, ref.lean())
              << "step " << step;
          back_to_rich = back_to_rich || (saw_lean && !ref.lean());
          saw_lean = saw_lean || ref.lean();
        }
      }
    }
    // Every predicate the variant has must have fired, or the random
    // states never reached it.
    SCOPED_TRACE(to_string(kind));
    EXPECT_GT(fired[static_cast<std::size_t>(ForceReason::kC1)], 0);
    if (kind != ProtocolKind::kBhmrC1Only) {
      EXPECT_GT(fired[static_cast<std::size_t>(ForceReason::kC2)], 0);
    }
    if (kind == ProtocolKind::kAdaptive) {
      EXPECT_GT(fired[static_cast<std::size_t>(ForceReason::kNewDependency)], 0);
      EXPECT_TRUE(back_to_rich);
    }
  }
}

}  // namespace
}  // namespace rdt
