#include "protocols/bhmr.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace rdt {

BhmrPlanes::BhmrPlanes(int num_processes, ProcessId self, bool diagonal)
    : n_(static_cast<std::size_t>(num_processes)),
      self_(static_cast<std::size_t>(self)),
      words_(bitdetail::words_for(n_)),
      diagonal_(diagonal),
      simple_(n_),
      causal_(n_, n_) {
  simple_.set(self_);
  if (diagonal_) causal_.set_diagonal(true);
}

void BhmrPlanes::check(const PiggybackView& msg, bool with_simple) const {
  RDT_REQUIRE(msg.tdv.size() == n_ && msg.causal.rows() == n_ &&
                  msg.causal.cols() == n_,
              "piggybacked tdv/causal plane size mismatch");
  RDT_REQUIRE(!with_simple || msg.simple.size() == n_,
              "piggybacked simple array size mismatch");
}

bool BhmrPlanes::c1(const PiggybackView& msg, const Tdv& tdv,
                    ConstBitSpan sent_to) const {
  // A non-causal chain from P_k to some P_j we already messaged would form,
  // and the sender did not know a causal sibling for it.
  check(msg, false);
  if (!sent_to.any()) return false;
  const std::uint64_t* sent = sent_to.words();
  const std::uint64_t* rows = msg.causal.row(0).words();
  for (std::size_t k = 0; k < n_; ++k) {
    if (msg.tdv[k] <= tdv[k]) continue;
    std::uint64_t open = 0;
    for (std::size_t w = 0; w < words_; ++w) open |= sent[w] & ~rows[k * words_ + w];
    if (open != 0) return true;
  }
  return false;
}

ForceReason BhmrPlanes::c1_or_c2(const PiggybackView& msg, const Tdv& tdv,
                                 ConstBitSpan sent_to) const {
  if (c1(msg, tdv, sent_to)) return ForceReason::kC1;
  // C2: a causal chain left this very interval and came back non-simply
  // (some process checkpointed between a delivery and its next send) — the
  // signature of a chain from C_{k,z} to C_{k,z-1} only breakable here.
  return msg.tdv[self_] == tdv[self_] && !msg.simple.get(self_)
             ? ForceReason::kC2
             : ForceReason::kNone;
}

void BhmrPlanes::merge(const PiggybackView& msg, const Tdv& tdv,
                       ProcessId sender, bool with_simple) {
  check(msg, with_simple);
  // Figure 6's per-k case: a newer interval of P_k replaces our knowledge
  // about it, the same interval accumulates the sender's.
  const std::uint64_t* in = msg.causal.row(0).words();
  std::uint64_t* rows = causal_.row(0).words();
  std::uint64_t* simple = simple_.span().words();
  const std::uint64_t tail = n_ % 64 != 0 ? (1ULL << (n_ % 64)) - 1 : ~0ULL;
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t gt = 0;
    std::uint64_t eq = 0;
    for (std::size_t k = 64 * w; k < std::min(n_, 64 * w + 64); ++k) {
      const bool newer = msg.tdv[k] > tdv[k];
      const bool same = msg.tdv[k] == tdv[k];
      gt |= std::uint64_t{newer} << (k % 64);
      eq |= std::uint64_t{same} << (k % 64);
      const std::uint64_t keep = newer ? 0 : ~0ULL;
      const std::uint64_t take = newer || same ? ~0ULL : 0;
      std::uint64_t* row = rows + k * words_;
      for (std::size_t x = 0; x < words_; ++x)
        row[x] = (row[x] & keep) | (in[k * words_ + x] & take);
      row[words_ - 1] &= tail;  // a foreign payload may carry tail bits
    }
    if (with_simple) {
      const std::uint64_t m = msg.simple.words()[w];
      simple[w] = (gt & m) | (~gt & simple[w] & (~eq | m));
    }
  }
  if (with_simple) simple_.set(self_);  // simple[i] is permanently true

  // The delivery ends a causal chain from the sender's current interval:
  // record it and close transitively through the sender (column s into
  // column self).
  const auto s = static_cast<std::size_t>(sender);
  const std::size_t to = self_ / 64;
  rows[s * words_ + to] |= 1ULL << (self_ % 64);
  for (std::size_t l = 0; l < n_; ++l)
    rows[l * words_ + to] |= ((rows[l * words_ + s / 64] >> (s % 64)) & 1ULL)
                             << (self_ % 64);
  if (!diagonal_) causal_.set(self_, self_, false);
}

void BhmrPlanes::reset() {
  std::uint64_t* simple = simple_.span().words();
  std::uint64_t* own = causal_.row(self_).words();
  for (std::size_t w = 0; w < words_; ++w) {
    const std::uint64_t keep = w == self_ / 64 ? 1ULL << (self_ % 64) : 0;
    simple[w] &= keep;
    own[w] &= keep;
  }
}

BhmrProtocol::BhmrProtocol(int num_processes, ProcessId self, Variant variant)
    : CicProtocol(num_processes, self),
      variant_(variant),
      planes_(num_processes, self, variant != Variant::kC1Only) {}

ProtocolKind BhmrProtocol::kind() const {
  switch (variant_) {
    case Variant::kFull: return ProtocolKind::kBhmr;
    case Variant::kNoSimple: return ProtocolKind::kBhmrNoSimple;
    case Variant::kC1Only: return ProtocolKind::kBhmrC1Only;
  }
  RDT_ASSERT(false);
}

ForceReason BhmrProtocol::force_reason(const PiggybackView& msg,
                                       ProcessId) const {
  switch (variant_) {
    case Variant::kFull:
      return planes_.c1_or_c2(msg, tdv_, sent_to());
    case Variant::kNoSimple: {
      if (planes_.c1(msg, tdv_, sent_to())) return ForceReason::kC1;
      const auto self = static_cast<std::size_t>(self_);
      if (msg.tdv[self] != tdv_[self]) return ForceReason::kNone;
      for (std::size_t k = 0; k < msg.tdv.size(); ++k)
        if (msg.tdv[k] > tdv_[k]) return ForceReason::kC2;
      return ForceReason::kNone;
    }
    case Variant::kC1Only:
      return planes_.c1(msg, tdv_, sent_to()) ? ForceReason::kC1
                                              : ForceReason::kNone;
  }
  RDT_ASSERT(false);
}

void BhmrProtocol::fill_payload(const PiggybackSlot& out) const {
  if (variant_ == Variant::kFull) out.simple.assign(planes_.simple());
  out.causal.assign(planes_.causal().view());
}

void BhmrProtocol::merge_payload(const PiggybackView& msg, ProcessId sender) {
  planes_.merge(msg, tdv_, sender, variant_ == Variant::kFull);
}

void BhmrProtocol::reset_on_checkpoint(bool /*forced*/) { planes_.reset(); }

}  // namespace rdt
