// Workload interface and the fixed settings of the end-to-end benchmark.
// e2ebench/README.md explains each number; BENCHMARK.json at the
// repository root repeats the rates, limits and tail percentiles in its
// `why` lines.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <map>
#include <vector>

namespace e2ebench {

// ---- fixtures: the paper architecture (ParaGraph, F = 32, L = 5), trained
// briefly. Forward cost depends only on shape, so one epoch is enough;
// the seed is fixed so every run loads the same artifacts.
constexpr std::uint64_t kFixtureSeed = 42;
constexpr double kFixtureScale = 0.25;  // normaliser rebuild = build_dataset(42, 0.25)
constexpr int kFixtureEpochs = 1;
constexpr double kFixtureMaxVff = 1e4;  // the CLI's `train` default

// Reserved for confirming a performance claim: never tune against it.
constexpr std::uint64_t kHeldOutSeed = 9001;

// The host probe's median (probe.h) the end-to-end time metrics are
// reported at: about its median on the 4-core x86 host the bounds were set
// on. Raw figures are printed on stderr.
constexpr double kRefProbeMs = 36.0;

// A deck with at least this many devices is in the "large" forward class.
constexpr std::size_t kLargeDeckDevices = 1000;

// Golden tolerance for outputs: 1e-5 absolute (the model-zoo golden
// tolerance) plus 1e-4 relative, which also covers the CLI's %g print.
constexpr double kTolAbs = 1e-5;
constexpr double kTolRel = 1e-4;

// ---- predict_cli
constexpr int kPredictTailPct = 90;
constexpr int kPredictSetupReps = 3;     // `paragraph train` children timed for setup_s
constexpr int kPredictReplayRounds = 3;  // traced in-process passes over the deck list
constexpr double kPredictLimitMs = 200.0;  // ~1.3x the tail (p90) of a healthy run

// ---- serve_mixed
constexpr double kServeRatePerS = 12.0;  // open-loop arrival rate
constexpr double kServeLimitMs = 45.0;    // due -> answer; ~1.4x the tail (p95) of a healthy run
constexpr int kServeTailPct = 95;
constexpr double kServeOpenShare = 0.7;   // of --seconds; the rest saturates
constexpr int kServePasses = 3;           // interleaved open/closed stretches
constexpr std::size_t kServeConnections = 4;
constexpr int kServeSetupSpawns = 9;
constexpr std::size_t kServeBatchWindow = 8;  // the daemon's --max-batch default

// ---- train_cap
constexpr double kTrainScale = 0.25;
constexpr int kTrainEpochsPerRep = 4;
constexpr int kTrainTailPct = 75;
constexpr double kTrainLimitMs = 480.0;   // ~1.3x the tail (p75) of a healthy run

class HostProbe;

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string paragraph;   // path of the CLI binary under test
  std::string work_dir;    // scratch space of this run (removed at exit)
  std::string trace_path;  // Chrome trace written by a traced run
  HostProbe* probe = nullptr;  // probe.h; sampled while the program is idle
};

struct Outcome {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  // Metric name -> value. Units and the full name lists live in main.cpp;
  // a per-layer metric a workload does not touch reads 0, which is how
  // the traced run shows that a layer is absent from that workload.
  std::map<std::string, double> metrics;
};

Outcome run_predict_cli(const RunArgs& args);
Outcome run_serve_mixed(const RunArgs& args);
Outcome run_train_cap(const RunArgs& args);

// Informational line on stderr (stdout carries only the result).
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// True when `got` is within the golden tolerance of `ref`.
bool within_tolerance(double got, double ref);

double median(const std::vector<double>& v);
double mean(const std::vector<double>& v);  // 0 for an empty input

// "p50 .. p90 .. p95 .. p97 .. p99 .. max .." of a latency sample, for the
// stderr notes that SLO limits are chosen from.
std::string percentile_summary(const std::vector<double>& v);

using Clock = std::chrono::steady_clock;
double secs_since(Clock::time_point t0);

// The first few hundred bytes of a child's log, for failure messages.
std::string head_of_file(const std::string& path);

}  // namespace e2ebench
