#include "protocols/adaptive.hpp"

#include "obs/hooks.hpp"
#include "util/check.hpp"

namespace rdt {

AdaptiveProtocol::AdaptiveProtocol(int num_processes, ProcessId self)
    : CicProtocol(num_processes, self),
      planes_(num_processes, self, /*diagonal=*/true) {}  // full BHMR's (S0)

ForceReason AdaptiveProtocol::force_reason(const PiggybackView& msg,
                                           ProcessId) const {
  if (mode_ == Mode::kRich) return planes_.c1_or_c2(msg, tdv_, sent_to());
  // FDAS's predicate; proven to fire whenever BHMR's C1 v C2 would.
  if (!after_first_send()) return ForceReason::kNone;
  for (std::size_t k = 0; k < msg.tdv.size(); ++k)
    if (msg.tdv[k] > tdv_[k]) return ForceReason::kNewDependency;
  return ForceReason::kNone;
}

void AdaptiveProtocol::fill_payload(const PiggybackSlot& out) const {
  ++window_sends_;
  if (mode_ == Mode::kRich) {
    out.simple.assign(planes_.simple());
    out.causal.assign(planes_.causal().view());
    return;
  }
  // Lean mode: claim no knowledge. Receivers treat the zero planes as
  // "nothing is trackable / no chain is simple" and force more often —
  // the sound direction — while the delta codec transmits a near-empty
  // payload on a stable channel.
  out.simple.reset();
  for (std::size_t r = 0; r < out.causal.rows(); ++r) out.causal.row(r).reset();
}

void AdaptiveProtocol::merge_payload(const PiggybackView& msg,
                                     ProcessId sender) {
  // Full BHMR bookkeeping in both modes so a later switch to kRich is sound.
  planes_.merge(msg, tdv_, sender, /*with_simple=*/true);
  ++window_delivers_;
  maybe_switch();
}

void AdaptiveProtocol::reset_on_checkpoint(bool /*forced*/) { planes_.reset(); }

void AdaptiveProtocol::maybe_switch() {
  if (window_sends_ + window_delivers_ < kWindow) return;
  // Observed traffic shape over the closing window.
  const bool send_heavy = window_sends_ >= kSendHeavyRatio * window_delivers_;
  const BitMatrix& causal = planes_.causal();
  const auto known = static_cast<long long>(causal.count());
  const auto cells = static_cast<long long>(causal.rows() * causal.cols());
  const bool sparse = known * kSparseDivisor < cells;
  const Mode want = (send_heavy || sparse) ? Mode::kLean : Mode::kRich;
  if (want != mode_) {
    mode_ = want;
    if (want == Mode::kLean) {
      ++to_lean_;
      RDT_COUNT("protocol.adaptive.to_lean");
    } else {
      ++to_rich_;
      RDT_COUNT("protocol.adaptive.to_rich");
    }
  }
  window_sends_ = 0;
  window_delivers_ = 0;
}

}  // namespace rdt
