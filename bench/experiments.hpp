// The paper-study experiments rdt-bench runs (DESIGN.md's per-experiment
// index). Each prints its tables to stdout and records its sections into
// the report; rdt_bench.cpp maps the experiment names to these functions.
#pragma once

#include "bench_common.hpp"

namespace rdt::bench {

// experiments_study.cpp — the simulation study: forced-checkpoint overhead
// R and the piggyback size that buys it.
void run_random_env(BenchReport& report, int seeds);     // E1
void run_group_env(BenchReport& report, int seeds);      // E2
void run_client_server(BenchReport& report, int seeds);  // E3
void run_reduction(BenchReport& report);                 // E4
void run_overhead(BenchReport& report);                  // E5

// experiments_analyses.cpp — what the protocols' checkpoint patterns imply.
void run_mincgc(BenchReport& report);             // E6
void run_characterizations(BenchReport& report);  // E7
void run_domino(BenchReport& report);             // E9
void run_useless_ckpts(BenchReport& report);      // E10
void run_des_apps(BenchReport& report);           // E11
void run_hindsight(BenchReport& report);          // E12
void run_coordinated(BenchReport& report);        // E13

}  // namespace rdt::bench
