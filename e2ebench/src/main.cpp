// e2ebench — the repository's end-to-end benchmark harness.
//
//   e2ebench --workload predict_cli|serve_mixed|train_cap --seed N
//            --seconds S --trace 0|1 --paragraph PATH [--work-root DIR]
//
// --trace 0 measures the end-to-end metrics; --trace 1 does a separate
// traced run and reports the per-layer metrics (and writes a Chrome trace
// to DIR/trace-<workload>.json). The last stdout line is the result:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}
// Exit code 0 when every answer was correct, 1 when one was not (the result
// is still printed), 2 on bad arguments or a run that could not finish.
// e2ebench/run.py builds this program and the CLI, then runs it.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <sys/prctl.h>
#include <unistd.h>

#include "bench.h"
#include "obs/json.h"
#include "obs/log.h"
#include "probe.h"
#include "proc.h"
#include "runtime/thread_pool.h"

namespace {

using e2ebench::note;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match "end_to_end" in BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"latency_p50_ms", "ms"}, {"latency_tail_ms", "ms"},
    {"decks_per_s", "1/s"},    {"slo_goodput", "share"}, {"ok_share", "share"},
    {"peak_rss_mb", "MB"},
};

// Must match "per_layer" in BENCHMARK.json.
constexpr MetricDef kPerLayer[] = {
    {"core.load_ms", "ms"},
    {"dataset.normalizer_ms", "ms"},
    {"dataset.normalizer_share", "share"},
    {"cli.startup_ms", "ms"},
    {"circuit.parse_ms", "ms"},
    {"circuit.parse_mb_per_s", "MB/s"},
    {"graph.build_ms", "ms"},
    {"eval.drift_ms", "ms"},
    {"gnn.plan_ms", "ms"},
    {"gnn.forward_small_ms", "ms"},
    {"gnn.forward_large_ms", "ms"},
    {"core.ensemble_ms", "ms"},
    {"gnn.cached_forward_ms", "ms"},
    {"gnn.plan_cache.hit_share", "share"},
    {"nn.matrix_allocs", "count"},
    {"nn.matrix_peak_mb", "MB"},
    {"train.forward_ms", "ms"},
    {"train.backward_ms", "ms"},
    {"train.optimizer_ms", "ms"},
    {"serve.queue_wait_ms.p50", "ms"},
    {"serve.queue_wait_ms.p99", "ms"},
    {"serve.batch_size.mean", "count"},
    {"serve.coalesced_share", "share"},
    {"serve.rejected", "count"},
    {"serve.errors", "count"},
    {"loadgen.late_ms.p99", "ms"},
    {"obs.trace_overhead_share", "share"},
    {"inputs.hier_share", "share"},
    {"inputs.repeat_share", "share"},
    {"host.mem_probe_ms", "ms"},
};

void on_signal(int sig) {
  e2ebench::kill_live_daemon_from_signal();
  _exit(128 + sig);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload predict_cli|serve_mixed|train_cap "
               "--seed N --seconds S --trace 0|1 --paragraph PATH [--work-root DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::RunArgs a;
  std::string work_root = ".bench_build/e2ebench";
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = *end == '\0' && !v.empty();
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0 && a.seconds <= 600.0)) return usage("--seconds must be in (0, 600]");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return usage("--trace must be 0 or 1");
      a.trace = v == "1";
    } else if (k == "--paragraph") {
      a.paragraph = v;
    } else if (k == "--work-root") {
      work_root = v;
    } else {
      return usage(("unknown option " + k).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options come in pairs");
  if (!have_seed) return usage("--seed N is required");
  if (a.paragraph.empty() || access(a.paragraph.c_str(), X_OK) != 0)
    return usage("--paragraph must name the built paragraph CLI");
  e2ebench::Outcome (*run)(const e2ebench::RunArgs&) = nullptr;
  if (a.workload == "predict_cli") run = e2ebench::run_predict_cli;
  if (a.workload == "serve_mixed") run = e2ebench::run_serve_mixed;
  if (a.workload == "train_cap") run = e2ebench::run_train_cap;
  if (run == nullptr) return usage("unknown --workload");
  if (a.seed == e2ebench::kHeldOutSeed)
    note("seed %llu is the held-out seed: use it only to confirm a claim",
         static_cast<unsigned long long>(a.seed));

  // Whatever happens to this process, the daemon it started goes too.
  prctl(PR_SET_PDEATHSIG, SIGTERM);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);
  // Single-threaded like the children (--threads 1); drift warnings of the
  // in-process replay would only repeat the children's.
  paragraph::runtime::set_num_threads(1);
  paragraph::obs::Logger::instance().set_level(paragraph::obs::LogLevel::kError);

  a.work_dir = work_root + "/work-" + std::to_string(getpid());
  a.trace_path = work_root + "/trace-" + a.workload + ".json";
  std::filesystem::create_directories(a.work_dir);
  e2ebench::Outcome o;
  int rc = 0;
  try {
    e2ebench::HostProbe probe;  // forked now, while this process is small and single-threaded
    a.probe = &probe;
    o = run(a);
  } catch (const std::exception& e) {
    note("%s failed: %s", a.workload.c_str(), e.what());
    rc = 2;
  }
  std::error_code ec;
  std::filesystem::remove_all(a.work_dir, ec);
  if (rc != 0) return rc;

  paragraph::obs::JsonValue metrics = paragraph::obs::JsonValue::object();
  bool complete = true;
  const auto emit = [&](const MetricDef& m) {
    const auto it = o.metrics.find(m.name);
    // Per-layer metrics a workload never touches read 0; a missing
    // end-to-end metric means the run produced no measurement.
    if (it == o.metrics.end() && !a.trace) complete = false;
    paragraph::obs::JsonValue v = paragraph::obs::JsonValue::object();
    v.set("value", it == o.metrics.end() ? 0.0 : it->second);
    v.set("unit", m.unit);
    metrics.set(m.name, std::move(v));
  };
  if (a.trace) {
    for (const auto& m : kPerLayer) emit(m);
  } else {
    for (const auto& m : kEndToEnd) emit(m);
  }
  for (const auto& [name, value] : o.metrics) {
    bool known = false;
    for (const auto& m : kEndToEnd) known |= name == m.name;
    for (const auto& m : kPerLayer) known |= name == m.name;
    if (!known) note("internal: unlisted metric %s", name.c_str());
  }
  const bool correct = o.correct && complete && o.attempted > 0;
  paragraph::obs::JsonValue result = paragraph::obs::JsonValue::object();
  result.set("correct", correct);
  result.set("attempted", static_cast<unsigned long long>(o.attempted));
  result.set("failed", static_cast<unsigned long long>(o.failed));
  result.set("metrics", std::move(metrics));
  std::fflush(stderr);
  std::printf("%s\n", result.dump().c_str());
  return correct ? 0 : 1;
}
