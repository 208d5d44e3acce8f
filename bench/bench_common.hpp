// Shared plumbing for rdt-bench and the standalone bench binaries: the
// protocol set the papers' simulation study compares, the standard
// environment presets, one strict command-line parser for every bench
// binary and rdt-bench (BenchArgs — each understands --seeds/--threads/
// --json/--trace the same way), header banners, a formatter for mean ± 95%
// confidence cells, and a machine-readable benchmark report (--json) with an optional
// chrome://tracing span capture (--trace).
#pragma once

#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/session.hpp"
#include "online/engine.hpp"
#include "protocols/registry.hpp"
#include "sim/environments.hpp"
#include "sim/replay.hpp"
#include "sim/runner.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace rdt::bench {

// ---------------------------------------------------------------------------
// Command line of every bench binary and of rdt-bench. A binary declares
// the flags it reads, and the command line may hold only `--flag value`
// pairs of those. The core flags mean the same everywhere —
//   --seeds N     sweep width (each binary picks its own default)
//   --threads N   worker threads (defaults to the hardware concurrency)
//   --json PATH   write the rdt-bench-v2 report
//   --trace PATH  capture an observability session, write a chrome trace
// An undeclared flag, a flag without a value, a stray word, or a number
// that is malformed, out of int range or below the flag's minimum is a
// usage error: ok() is false and main exits 2 (usage_error()), instead of
// running with a value nobody asked for.
// ---------------------------------------------------------------------------

// All available cores: the default worker count. A sweep's results do not
// depend on it (seeds are folded in seed order either way).
inline int hardware_threads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

struct BenchFlag {
  enum class Kind { kPath, kInt, kIntList };  // kIntList: comma-separated
  std::string_view name;
  Kind kind = Kind::kInt;
  int min = 1;  // smallest accepted number (kInt, kIntList)
};

inline constexpr BenchFlag kSeedsFlag{"--seeds"};
inline constexpr BenchFlag kThreadsFlag{"--threads"};
inline constexpr BenchFlag kJsonFlag{"--json", BenchFlag::Kind::kPath};
inline constexpr BenchFlag kTraceFlag{"--trace", BenchFlag::Kind::kPath};

class BenchArgs {
 public:
  // Parses argv[first..] against `flags`; `program` names the binary in
  // messages.
  BenchArgs(int argc, char** argv, std::string program, std::vector<BenchFlag> flags,
            int first = 1)
      : program_(std::move(program)), flags_(std::move(flags)), values_(flags_.size()) {
    for (int i = first; i < argc && ok(); i += 2) {
      const std::string_view arg = argv[i];
      const auto f = find(arg);
      if (!arg.starts_with("--")) {
        error_ = program_ + ": unexpected argument '" + std::string(arg) + "'";
      } else if (f == flags_.size()) {
        error_ = program_ + " does not read " + std::string(arg);
      } else if (i + 1 == argc || std::string_view(argv[i + 1]).starts_with("--")) {
        error_ = program_ + ": " + std::string(arg) + " needs a value";
      } else if (flags_[f].kind != BenchFlag::Kind::kPath && !ints(flags_[f], argv[i + 1])) {
        const bool one = flags_[f].kind == BenchFlag::Kind::kInt;
        error_ = program_ + ": " + std::string(arg) + " needs " +
                 (one ? "an integer" : "comma-separated integers") + " >= " +
                 std::to_string(flags_[f].min) + ", got '" + argv[i + 1] + "'";
      } else {
        values_[f] = argv[i + 1];
      }
    }
  }

  bool ok() const { return error_.empty(); }
  // What was wrong, naming the program; "" when ok().
  const std::string& error() const { return error_; }

  // Reports the usage error and the declared flags on stderr; returns
  // main's exit code for it.
  int usage_error() const {
    std::cerr << error_ << "\nusage: " << program_;
    for (const BenchFlag& f : flags_) {
      std::cerr << " [" << f.name
                << (f.kind == BenchFlag::Kind::kPath  ? " PATH]"
                    : f.kind == BenchFlag::Kind::kInt ? " N]"
                                                      : " N,N,...]");
    }
    std::cerr << '\n';
    return 2;
  }

  int flag_or(std::string_view flag, int fallback) const {
    const std::string& v = value(flag, BenchFlag::Kind::kInt);
    return v.empty() ? fallback : ints(flags_[find(flag)], v)->front();
  }
  std::vector<int> flag_or(std::string_view flag, std::vector<int> fallback) const {
    const std::string& v = value(flag, BenchFlag::Kind::kIntList);
    return v.empty() ? std::move(fallback) : *ints(flags_[find(flag)], v);
  }
  std::string flag_or(std::string_view flag, std::string fallback) const {
    const std::string& v = value(flag, BenchFlag::Kind::kPath);
    return v.empty() ? std::move(fallback) : v;
  }

  int seeds(int fallback) const { return flag_or(kSeedsFlag.name, fallback); }
  int threads() const { return flag_or(kThreadsFlag.name, hardware_threads()); }
  std::string json_path() const { return flag_or(kJsonFlag.name, std::string()); }
  std::string trace_path() const { return flag_or(kTraceFlag.name, std::string()); }

 private:
  std::size_t find(std::string_view flag) const {
    std::size_t f = 0;
    while (f < flags_.size() && flags_[f].name != flag) ++f;
    return f;
  }

  // The flag's value, "" when absent. Reading a flag the binary did not
  // declare, or as another kind, is a bug in the binary.
  const std::string& value(std::string_view flag, BenchFlag::Kind kind) const {
    const std::size_t f = find(flag);
    if (f == flags_.size() || flags_[f].kind != kind)
      throw std::logic_error(program_ + " reads undeclared flag " + std::string(flag));
    return values_[f];
  }

  // Every number of `text` (one for kInt, one or more comma-separated for
  // kIntList), or nullopt when one is malformed, out of range or below min.
  static std::optional<std::vector<int>> ints(const BenchFlag& flag, std::string_view text) {
    std::vector<int> out;
    for (;;) {
      const std::size_t comma = text.find(',');
      const std::string_view part = text.substr(0, comma);
      int v = 0;
      const auto [end, ec] = std::from_chars(part.data(), part.data() + part.size(), v);
      if (ec != std::errc() || end != part.data() + part.size() || v < flag.min)
        return std::nullopt;
      out.push_back(v);
      if (comma == std::string_view::npos) return out;
      if (flag.kind == BenchFlag::Kind::kInt) return std::nullopt;
      text.remove_prefix(comma + 1);
    }
  }

  std::string program_;
  std::vector<BenchFlag> flags_;
  std::vector<std::string> values_;  // [flag], "" when absent
  std::string error_;
};

// ---------------------------------------------------------------------------
// Standard environments. The study's canonical operating points (duration
// 400, basic-checkpoint period 10): 8-process uniform random traffic, four
// 4-process groups overlapping in one member, and 8-server request chains.
// Experiment binaries start from these presets and override the knob they
// sweep, so every binary means the same thing by "the random environment".
// ---------------------------------------------------------------------------

inline RandomEnvConfig random_env_preset() {
  RandomEnvConfig cfg;
  cfg.num_processes = 8;
  cfg.duration = 400.0;
  cfg.basic_ckpt_mean = 10.0;
  return cfg;
}

inline GroupEnvConfig group_env_preset() {
  GroupEnvConfig cfg;
  cfg.num_groups = 4;
  cfg.group_size = 4;
  cfg.overlap = 1;
  cfg.duration = 400.0;
  cfg.basic_ckpt_mean = 10.0;
  return cfg;
}

inline ClientServerEnvConfig client_server_env_preset() {
  ClientServerEnvConfig cfg;
  cfg.num_servers = 8;
  cfg.num_requests = 250;
  cfg.basic_ckpt_mean = 10.0;
  return cfg;
}

// A seed-to-trace generator for one environment configuration.
template <class Config>
std::function<Trace(std::uint64_t)> seeded(Config config,
                                           Trace (*generate)(const Config&)) {
  return [config = std::move(config), generate](std::uint64_t seed) {
    Config c = config;
    c.seed = seed;
    return generate(c);
  };
}

// The three presets as named seed-to-trace generators, for binaries that
// iterate over all environment families.
struct EnvPreset {
  std::string name;
  std::function<Trace(std::uint64_t seed)> generate;
};

inline const std::vector<EnvPreset>& env_presets() {
  static const std::vector<EnvPreset> presets = {
      {"random", seeded(random_env_preset(), random_environment)},
      {"group", seeded(group_env_preset(), group_environment)},
      {"client_server",
       seeded(client_server_env_preset(), client_server_environment)}};
  return presets;
}

// A BHMR replay's pattern events as a feedable event list: the online
// engine's input, decoupled from the replay so a timed loop is pure engine
// cost.
inline std::vector<StreamEvent> record_stream(const Trace& trace) {
  class Recorder final : public PatternListener {
   public:
    void on_send(MsgId m, ProcessId sender, ProcessId receiver) override {
      ops.push_back(StreamEvent::send(m, sender, receiver));
    }
    void on_deliver(MsgId m, ProcessId sender, ProcessId receiver) override {
      ops.push_back(StreamEvent::deliver(m, sender, receiver));
    }
    void on_internal(ProcessId p) override { ops.push_back(StreamEvent::internal(p)); }
    void on_checkpoint(ProcessId p, CkptIndex index) override {
      ops.push_back(StreamEvent::checkpoint(p, index));
    }
    std::vector<StreamEvent> ops;
  } recorder;
  replay(trace, ProtocolKind::kBhmr, {.online = &recorder});
  return std::move(recorder.ops);
}


// The dependency-tracking protocols the study sweeps (baseline first). CBR
// is included as the classic upper bound; NRAS as the piggyback-free one;
// the adaptive meta-protocol closes the list as the lattice traveller.
inline const std::vector<ProtocolKind>& study_protocols() {
  static const std::vector<ProtocolKind> kinds = {
      ProtocolKind::kCbr,          ProtocolKind::kNras,
      ProtocolKind::kFdi,          ProtocolKind::kFdas,
      ProtocolKind::kBhmrC1Only,   ProtocolKind::kBhmrNoSimple,
      ProtocolKind::kBhmr,         ProtocolKind::kAdaptive};
  return kinds;
}

// A protocol's table column heading ("BHMR-V2", "ADAPT").
inline std::string column_name(ProtocolKind kind) {
  if (kind == ProtocolKind::kAdaptive) return "ADAPT";
  std::string name = to_string(kind);
  for (char& c : name) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return name;
}

inline std::string pm(const Summary& s, int precision = 3) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << s.mean << " ±"
     << std::setprecision(precision) << s.ci95;
  return os.str();
}

// A header box: the given lines between two rules.
inline void banner(std::initializer_list<std::string_view> lines) {
  const std::string_view rule =
      "==================================================================\n";
  std::cout << rule;
  for (const std::string_view line : lines) std::cout << line << '\n';
  std::cout << rule;
}

// The header of an experiment that reports R: "<experiment> — <what>".
inline void banner(const std::string& experiment, const std::string& what) {
  banner({experiment + " — " + what,
          "metric R = forced checkpoints / basic checkpoints (lower is better)"});
}

inline json::Value to_json(const Summary& s) {
  return json::Object{{"count", static_cast<long long>(s.count)},
                    {"mean", s.mean},
                    {"stddev", s.stddev},
                    {"ci95", s.ci95},
                    {"min", s.min},
                    {"max", s.max}};
}

inline json::Value to_json(const ProtocolStats& s) {
  // wire_bits_per_message is measured through the protocol's declared
  // codec; flat_bits_per_message keeps the analytic flat-plane figure as
  // the labeled comparison column (the pre-codec reports' constant).
  return json::Object{{"protocol", to_string(s.kind)},
                    {"codec",
                     to_cstring(ProtocolRegistry::instance().info(s.kind).codec)},
                    {"r_forced_per_basic", to_json(s.r_forced_per_basic)},
                    {"forced_per_message", to_json(s.forced_per_message)},
                    {"wire_bits_per_message", to_json(s.wire_bits)},
                    {"flat_bits_per_message", to_json(s.flat_bits)},
                    {"total_messages", s.total_messages},
                    {"total_basic", s.total_basic},
                    {"total_forced", s.total_forced}};
}

// ---------------------------------------------------------------------------
// BenchReport — machine-readable run record, schema "rdt-bench-v2" (v2
// replaced the flat piggyback_bits_per_message constant with measured
// wire_bits_per_message + the flat_bits_per_message comparison column):
//   { "schema": "rdt-bench-v2", "experiment": ..., "wall_seconds": ...,
//     "sections": [ { "name": ..., "params": {...},
//                     "protocols": [...] | "metrics": {...} } ] }
// Construct it before the run starts with the --json and --trace paths
// (empty = not requested). Without a --json path the report methods are
// no-ops, so the human-readable tables stay the default output. With
// --trace, an observability session spans the whole run: the instrumented
// layers (replay, sweep scheduler, DES) record spans and counters into it,
// finish() writes the chrome://tracing JSON to the given path, and the
// counter/histogram totals also land in the --json report as an
// "observability" section. The fine-grained hooks are compiled in only
// under -DRDT_OBS=ON; a default build warns and produces an empty capture.
// finish() (or the destructor) stamps the wall time and writes the files.
// ---------------------------------------------------------------------------

class BenchReport {
 public:
  BenchReport(std::string experiment, std::string json_path,
              std::string trace_path)
      : experiment_(std::move(experiment)),
        path_(std::move(json_path)),
        trace_path_(std::move(trace_path)),
        start_(Clock::now()) {
    if (trace_path_.empty()) return;
    if (!obs::kObsEnabled)
      std::cerr << "bench: --trace requested but observability hooks are "
                   "compiled out; rebuild with -DRDT_OBS=ON for a non-empty "
                   "capture\n";
    session_ = std::make_unique<obs::ObsSession>();
  }
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;
  ~BenchReport() { finish(); }

  bool enabled() const { return !path_.empty(); }

  // Record one sweep's aggregated per-protocol statistics under `section`
  // with the sweep's identifying parameters (environment knobs, seed count).
  void add_sweep(const std::string& section, json::Object params,
                 std::span<const ProtocolStats> stats) {
    if (!enabled()) return;
    json::Array protocols;
    protocols.reserve(stats.size());
    for (const ProtocolStats& s : stats) protocols.push_back(to_json(s));
    sections_.push_back(json::Object{{"name", section},
                                     {"params", std::move(params)},
                                     {"protocols", std::move(protocols)}});
  }

  // Record free-form metrics (e.g. wall-clock comparisons) under `section`.
  void add_metrics(const std::string& section, json::Value metrics) {
    if (!enabled()) return;
    sections_.push_back(
        json::Object{{"name", section}, {"metrics", std::move(metrics)}});
  }

  // Write the report (and the chrome trace, when --trace was given).
  // Idempotent; called by the destructor as a backstop.
  void finish() {
    if (finished_) return;
    finished_ = true;
    export_trace();
    if (!enabled()) return;
    const double wall =
        std::chrono::duration<double>(Clock::now() - start_).count();
    const json::Value root = json::Object{{"schema", "rdt-bench-v2"},
                                          {"experiment", experiment_},
                                          {"wall_seconds", wall},
                                          {"sections", std::move(sections_)}};
    std::ofstream out(path_);
    if (!out) {
      std::cerr << "bench: cannot write JSON report to " << path_ << '\n';
      return;
    }
    root.dump(out);
    out << '\n';
    std::cout << "JSON report written to " << path_ << '\n';
  }

 private:
  using Clock = std::chrono::steady_clock;

  // Deactivate the session (workers have joined by the time finish() runs —
  // the sweeps are synchronous), write the chrome trace, and append the
  // counter/histogram totals to the --json report as an "observability"
  // section.
  void export_trace() {
    if (session_ == nullptr) return;
    session_->deactivate();
    json::Object metrics{{"hooks_compiled_in", obs::kObsEnabled},
                         {"trace_path", trace_path_},
                         {"trace_events", session_->trace().size()}};
    for (json::Member& m : obs::to_json(session_->metrics().snapshot()))
      metrics.push_back(std::move(m));
    add_metrics("observability", std::move(metrics));
    std::ofstream out(trace_path_);
    if (!out) {
      std::cerr << "bench: cannot write trace to " << trace_path_ << '\n';
      return;
    }
    session_->write_chrome_trace(out);
    std::cout << "chrome trace written to " << trace_path_
              << " (load via chrome://tracing or ui.perfetto.dev)\n";
  }

  std::string experiment_;
  std::string path_;
  std::string trace_path_;
  std::unique_ptr<obs::ObsSession> session_;
  Clock::time_point start_;
  json::Array sections_;
  bool finished_ = false;
};

}  // namespace rdt::bench
