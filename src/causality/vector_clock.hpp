// Vector clocks — the canonical mechanism for tracking Lamport's
// happened-before relation, and the basis of the transitive dependency
// vectors (TDV) the RDT protocols piggyback.
#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <vector>

#include "causality/ids.hpp"

namespace rdt {

// Outcome of comparing two events under a partial order.
enum class CausalOrder {
  kBefore,      // a happened-before b
  kAfter,       // b happened-before a
  kEqual,       // same clock value
  kConcurrent,  // neither ordered
};

std::ostream& operator<<(std::ostream& os, CausalOrder order);

// A classic Fidge–Mattern vector clock over n processes. Entry i counts the
// events of P_i in the causal past (inclusive) of the carrying event.
class VectorClock {
 public:
  VectorClock() = default;
  explicit VectorClock(int num_processes) : entries_(num_processes, 0) {}

  int size() const { return static_cast<int>(entries_.size()); }
  // Back to all-zero over `num_processes` entries, reusing the buffer.
  void reset(int num_processes) {
    entries_.assign(static_cast<std::size_t>(num_processes), 0);
  }

  std::int64_t get(ProcessId p) const;
  void set(ProcessId p, std::int64_t value);
  // Every entry, in process order.
  std::span<const std::int64_t> entries() const { return entries_; }

  // Local event at process p: bump its own component.
  void tick(ProcessId p);
  // Component-wise maximum with another clock (message receipt).
  void merge(const VectorClock& other);

  // Partial-order comparison per the standard vector-clock theorem.
  CausalOrder compare(const VectorClock& other) const;
  bool happened_before(const VectorClock& other) const {
    return compare(other) == CausalOrder::kBefore;
  }
  bool concurrent_with(const VectorClock& other) const {
    return compare(other) == CausalOrder::kConcurrent;
  }
  // true iff this clock's knowledge is contained in other's (<=, i.e. before
  // or equal) — "other causally dominates this".
  bool dominated_by(const VectorClock& other) const;

  friend bool operator==(const VectorClock&, const VectorClock&) = default;

 private:
  std::vector<std::int64_t> entries_;
};

std::ostream& operator<<(std::ostream& os, const VectorClock& vc);

}  // namespace rdt
