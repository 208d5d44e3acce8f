// rdt-bench — the paper's simulation study, one named experiment per run
// (DESIGN.md's per-experiment index, E1–E13).
//
//   rdt-bench <experiment> [--seeds N] [--json PATH] [--trace PATH]
//
// Every experiment prints its tables to stdout. --json writes the
// rdt-bench-v2 report and --trace a chrome trace (see BenchReport in
// bench_common.hpp). Only the sweeps of E1–E3 read --seeds; the other
// experiments run a fixed seed set. A flag the chosen experiment does not
// read, a flag without a value, a bad --seeds value or an unknown
// experiment is a usage error (exit 2), never silently ignored.
#include <algorithm>
#include <charconv>
#include <iomanip>
#include <iostream>
#include <string>
#include <string_view>

#include "experiments.hpp"

namespace {

using namespace rdt::bench;

struct Experiment {
  std::string_view name;
  std::string_view id;    // DESIGN.md's experiment index
  int default_seeds = 0;  // 0: a fixed seed set, --seeds is not read
  void (*run)(BenchReport& report, int seeds) = nullptr;
};

constexpr Experiment kExperiments[] = {
    {"random_env", "E1", 10, run_random_env},
    {"group_env", "E2", 10, run_group_env},
    {"client_server", "E3", 10, run_client_server},
    {"reduction", "E4", 0, [](BenchReport& r, int) { run_reduction(r); }},
    {"overhead", "E5", 0, [](BenchReport& r, int) { run_overhead(r); }},
    {"mincgc", "E6", 0, [](BenchReport& r, int) { run_mincgc(r); }},
    {"characterizations", "E7", 0,
     [](BenchReport& r, int) { run_characterizations(r); }},
    {"domino", "E9", 0, [](BenchReport& r, int) { run_domino(r); }},
    {"useless_ckpts", "E10", 0, [](BenchReport& r, int) { run_useless_ckpts(r); }},
    {"des_apps", "E11", 0, [](BenchReport& r, int) { run_des_apps(r); }},
    {"hindsight", "E12", 0, [](BenchReport& r, int) { run_hindsight(r); }},
    {"coordinated", "E13", 0, [](BenchReport& r, int) { run_coordinated(r); }},
};

// Prints `what` and the usage to stderr; returns the usage-error exit code.
int usage(const std::string& what) {
  std::cerr << "rdt-bench: " << what << '\n'
            << "usage: rdt-bench <experiment> [--json PATH] [--trace PATH]\n"
               "experiments:\n";
  for (const Experiment& e : kExperiments) {
    std::cerr << "  " << std::left << std::setw(18) << e.name << std::setw(4) << e.id;
    if (e.default_seeds > 0) std::cerr << " [--seeds N] (default " << e.default_seeds << ')';
    std::cerr << '\n';
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage("no experiment named");
  const std::string name = argv[1];
  const Experiment* experiment =
      std::find_if(std::begin(kExperiments), std::end(kExperiments),
                   [&](const Experiment& e) { return e.name == name; });
  if (experiment == std::end(kExperiments)) return usage("unknown experiment '" + name + "'");

  int seeds = experiment->default_seeds;
  std::string json_path;
  std::string trace_path;
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 == argc || std::string_view(argv[i + 1]).starts_with("--"))
      return usage(flag + " needs a value");
    const std::string_view value = argv[i + 1];
    if (flag == "--json") {
      json_path = value;
    } else if (flag == "--trace") {
      trace_path = value;
    } else if (flag == "--seeds" && experiment->default_seeds > 0) {
      const auto [end, ec] = std::from_chars(value.data(), value.data() + value.size(), seeds);
      if (ec != std::errc() || end != value.data() + value.size() || seeds < 1)
        return usage("--seeds needs a positive integer, got '" + std::string(value) + "'");
    } else {
      return usage(name + " does not read " + flag);
    }
  }

  BenchReport report(name, json_path, trace_path);
  experiment->run(report, seeds);
  report.finish();
  return 0;
}
