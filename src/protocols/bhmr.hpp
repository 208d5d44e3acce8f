// The paper's communication-induced checkpointing protocol (Figure 6) and
// its two weaker variants (Section 5.1).
//
// On top of the TDV, each process keeps
//  * sent_to[1..n]   — destinations messaged in the current interval (base
//                      class);
//  * simple[1..n]    — simple[j] true iff, to P_i's knowledge, all causal
//                      chains from C_{j,TDV[j]} to here are *simple* (no
//                      checkpoint inside);
//  * causal[1..n][1..n] — causal[k][j] true iff, to P_i's knowledge, there
//                      is an on-line trackable R-path
//                      C_{k,TDV[k]} -> C_{j,TDV[j]}.
//
// A forced checkpoint is taken before delivering m iff
//   C1: exists j: sent_to[j] ^ exists k: (m.TDV[k] > TDV[k] ^ !m.causal[k][j])
//       — a non-causal message chain from P_k to P_j, breakable here and
//       with no *visible* causal sibling, would otherwise form;
//   C2: m.TDV[i] = TDV[i] ^ !m.simple[i]
//       — a non-causal chain from some C_{k,z} back to C_{k,z-1}, breakable
//       only here, would otherwise form.
//
// Variants:
//  * kFull     — C1 v C2 (piggybacks TDV + simple + causal);
//  * kNoSimple — C1 v C2' with C2' = (m.TDV[i] = TDV[i] ^ exists k:
//                m.TDV[k] > TDV[k]); drops the simple array;
//  * kC1Only   — C1 alone with the causal diagonal pinned false, which makes
//                C1 itself subsume the same-process case.
//
// All three satisfy (C) => (C_FDAS): they force at most as often as FDAS on
// identical control states.
#pragma once

#include "protocols/protocol.hpp"

namespace rdt {

// Figure 6's simple/causal bookkeeping for one process, shared by the three
// BHMR variants and AdaptiveProtocol. Every rule runs a word at a time over
// the word-aligned rows of util/bit_matrix.hpp:
//  * C1 ORs sent_to & ~m.causal[k] over the rows k with m.TDV[k] > TDV[k];
//  * the per-k merge selects whole rows (copy where m.TDV[k] > TDV[k], OR
//    where equal), and simple takes the same gt/eq masks a word at a time;
//  * the closure through the sender is one column test per row;
//  * a checkpoint clears simple and row self, bar the self bit, with one
//    mask per word.
class BhmrPlanes {
 public:
  // The (S0) state: simple[self] true, everything else false, the causal
  // diagonal true unless `diagonal` is false (kC1Only pins it false).
  BhmrPlanes(int num_processes, ProcessId self, bool diagonal);

  const BitVector& simple() const { return simple_; }
  const BitMatrix& causal() const { return causal_; }

  // C1 against the local TDV and sent_to.
  bool c1(const PiggybackView& msg, const Tdv& tdv, ConstBitSpan sent_to) const;
  // C1 v C2, attributed to C1 when both hold.
  ForceReason c1_or_c2(const PiggybackView& msg, const Tdv& tdv,
                       ConstBitSpan sent_to) const;
  // The delivery's merge against the pre-merge TDV (the caller merges the
  // TDV itself afterwards), then the closure through the sender.
  void merge(const PiggybackView& msg, const Tdv& tdv, ProcessId sender,
             bool with_simple);
  void reset();

 private:
  void check(const PiggybackView& msg, bool with_simple) const;

  std::size_t n_;
  std::size_t self_;
  std::size_t words_;  // per row
  bool diagonal_;
  BitVector simple_;
  BitMatrix causal_;
};

class BhmrProtocol final : public CicProtocol {
 public:
  enum class Variant { kFull, kNoSimple, kC1Only };

  BhmrProtocol(int num_processes, ProcessId self, Variant variant);

  ProtocolKind kind() const override;
  Variant variant() const { return variant_; }

  PayloadShape payload_shape() const override {
    return {.tdv = true, .simple = variant_ == Variant::kFull, .causal = true};
  }

  // C1 is checked first: when both predicates hold, the forced checkpoint
  // is attributed to C1 (the junction-breaking predicate).
  ForceReason force_reason(const PiggybackView& msg,
                           ProcessId sender) const override;

  // Exposed for white-box tests of the bookkeeping rules.
  const BitVector& simple_state() const { return planes_.simple(); }
  const BitMatrix& causal_state() const { return planes_.causal(); }

 private:
  void fill_payload(const PiggybackSlot& out) const override;
  void merge_payload(const PiggybackView& msg, ProcessId sender) override;
  void reset_on_checkpoint(bool forced) override;

  Variant variant_;
  BhmrPlanes planes_;
};

}  // namespace rdt
