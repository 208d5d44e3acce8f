// One-call facade over the characterization hierarchy: runs every checker
// on a pattern and reports the results side by side. This is what the
// examples, the integration tests and experiment E7 consume.
#pragma once

#include <iosfwd>
#include <string>

#include "core/characterizations.hpp"

namespace rdt {

struct RdtReport {
  CheckResult definitional;   // Definition 3.4 via R-graph + TDV
  CheckResult cm;             // all CM-paths doubled       (<=> RDT)
  CheckResult pcm;            // all prime CM-paths doubled (<=> RDT)
  CheckResult mm;             // all MM-paths doubled       (<=> RDT, Wang)
  CheckResult vcm;            // all CM-paths visibly doubled  (sufficient)
  CheckResult vpcm;           // all prime CM-paths visibly doubled (<=> VCM)
  CheckResult no_z_cycle;     // no zigzag cycles            (necessary)

  // The ground truth the others are measured against.
  bool satisfies_rdt() const { return definitional.ok; }

  // Human-readable multi-line summary.
  std::string summary() const;
};

std::ostream& operator<<(std::ostream& os, const RdtReport& report);

// Runs all checkers. C is the total checkpoint count, E the R-graph edge
// count, J the number of non-causal junctions. Cost:
//  * the R-graph closure — one SCC condensation, then one reverse-
//    topological OR of C-bit rows: O(C + E) graph work plus O(E * C / 64)
//    word work, and two C x C bit planes of memory;
//  * the definitional check — every closure row counted against a
//    per-process TDV mask: O(C * C / 64);
//  * the five junction-based families, fused into one pass
//    (check_junction_families) — each junction's start bitsets counted
//    against two per-process prefix masks, O(J * C / 64), plus the
//    visible-doubling scan over the target process's deliveries.
// Intended for analysis/validation, not for the inner loop of a
// simulation.
RdtReport analyze_rdt(const Pattern& pattern);
// Same on analyses the caller already built (and can keep reusing).
RdtReport analyze_rdt(const RdtAnalyses& analyses);

// Just the definitional check (cheapest path to a yes/no answer; never
// builds the chain analysis).
bool satisfies_rdt(const Pattern& pattern);
bool satisfies_rdt(const RdtAnalyses& analyses);

}  // namespace rdt
