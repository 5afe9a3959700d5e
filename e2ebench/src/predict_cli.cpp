// predict_cli: sequential cold `paragraph predict` child processes over a
// fixed deck list. The only workload where artifact load and the
// normaliser rebuild sit on the critical path; it bypasses PlanCache.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>

#include "bench.h"
#include "circuit/spice_parser.h"
#include "core/serialize.h"
#include "eval/drift.h"
#include "fixtures.h"
#include "gnn/plan.h"
#include "inputs.h"
#include "obs/control.h"
#include "obs/memory.h"
#include "probe.h"
#include "proc.h"
#include "stats.h"
#include "trace.h"

namespace e2ebench {

namespace pg = paragraph;

namespace {

struct CliSetup {
  std::vector<Deck> decks;
  std::vector<std::string> paths;
  std::string model_path;
  std::vector<NamedValues> refs;
  std::vector<double> setup_s;
};

std::vector<std::string> train_argv(const RunArgs& a, const CliSetup& s) {
  return {a.paragraph, "train", "--save", s.model_path, "--scale", std::to_string(kFixtureScale),
          "--seed", std::to_string(kFixtureSeed), "--epochs", std::to_string(kFixtureEpochs),
          "--threads", "1"};
}

// Makes the CLI's inputs the way a user does before predicting: the decks
// (written from the seeded generator), then the model artifact from a
// `paragraph train` child at the fixture settings (the CLI's defaults are
// the paper architecture). setup_s is that child's wall time, median of
// kPredictSetupReps; every repetition writes the same artifact. The
// reference predictions come from the written artifact, in process.
CliSetup prepare(const RunArgs& a, HostProbe& probe) {
  CliSetup s;
  s.decks = predict_decks(a.seed);
  s.model_path = a.work_dir + "/model.bin";
  for (const Deck& d : s.decks) {
    s.paths.push_back(a.work_dir + "/" + d.name + ".sp");
    write_file(s.paths.back(), d.text);
  }
  const std::string err = a.work_dir + "/train.err";
  for (int rep = 0; rep < kPredictSetupReps; ++rep) {
    probe.sample();
    const ChildResult r = run_child(train_argv(a, s), err);
    if (r.exit_code != 0)
      throw std::runtime_error("paragraph train exited " + std::to_string(r.exit_code) + ": " +
                               head_of_file(err));
    s.setup_s.push_back(r.wall_ms / 1000.0);
  }
  const auto ds = pg::dataset::build_dataset(kFixtureSeed, kFixtureScale);
  const auto loaded = pg::core::load_predictor(s.model_path);
  for (const std::string& path : s.paths) {
    pg::dataset::Sample sample;
    pg::circuit::Netlist nl = pg::circuit::parse_spice_file(path);
    sample.graph = pg::graph::build_graph(nl);
    sample.netlist = std::move(nl);
    s.refs.push_back(named_values(sample, loaded.config().target, loaded.predict_all(ds, sample)));
  }
  return s;
}

std::vector<std::string> predict_argv(const RunArgs& a, const CliSetup& s, std::size_t k) {
  return {a.paragraph, "predict", "--model", s.model_path, "--netlist", s.paths[k], "--threads", "1"};
}

// Runs one `paragraph predict` child and checks its answer; a failure is
// counted in `o` and explained on stderr.
std::optional<ChildResult> predict_once(const std::vector<std::string>& argv, const CliSetup& s,
                                        std::size_t k, const std::string& err, Outcome& o) {
  ChildResult r = run_child(argv, err);
  ++o.attempted;
  std::string why = "exit code " + std::to_string(r.exit_code);
  if (r.exit_code == 0 && same_predictions(parse_cli_output(r.out), s.refs[k], &why)) return r;
  ++o.failed;
  o.correct = false;
  note("predict_cli: %s: wrong or failed: %s; stderr: %s", s.decks[k].name.c_str(), why.c_str(),
       head_of_file(err).c_str());
  return std::nullopt;
}

Outcome run_untraced(const RunArgs& a, const CliSetup& s, HostProbe& probe) {
  Outcome o;
  const std::string err = a.work_dir + "/predict.err";
  run_child(predict_argv(a, s, 0), err);  // warm the page cache; not measured

  const std::size_t min_n = samples_for_tail(kPredictTailPct);
  std::vector<double> lat;
  double busy_ms = 0.0;
  std::size_t timed = 0;
  long max_rss_kb = 0;
  const auto t0 = Clock::now();
  // Whole rounds only, so every deck has the same weight in the figures;
  // the host probe runs between rounds, while no child is running.
  while ((secs_since(t0) < a.seconds || timed < min_n) && secs_since(t0) < 4 * a.seconds) {
    probe.sample();
    for (std::size_t k = 0; k < s.decks.size(); ++k) {
      const auto r = predict_once(predict_argv(a, s, k), s, k, err, o);
      ++timed;
      if (!r) continue;
      lat.push_back(r->wall_ms);
      busy_ms += r->wall_ms;
    }
  }
  // Peak RSS as each child reports it (--mem-stats, VmHWM), in an untimed
  // pass: wait4's ru_maxrss would also count the benchmark's own pages,
  // which a spawned child holds until it execs.
  for (std::size_t k = 0; k < s.decks.size(); ++k) {
    auto argv = predict_argv(a, s, k);
    argv.push_back("--mem-stats");
    const auto r = predict_once(argv, s, k, err, o);
    const auto at = r ? r->out.find("peak_rss=") : std::string::npos;
    if (at != std::string::npos) max_rss_kb = std::max(max_rss_kb, std::atol(r->out.c_str() + at + 9));
  }
  if (lat.empty() || max_rss_kb == 0) return o;
  const double f = host_factor(probe);
  std::size_t within = 0;
  for (const double ms : lat) within += ms * f <= kPredictLimitMs;
  const double n = static_cast<double>(timed);
  o.metrics["setup_s"] = median(s.setup_s) * f;
  o.metrics["latency_p50_ms"] = percentile(lat, 50) * f;
  o.metrics["latency_tail_ms"] = percentile(lat, kPredictTailPct) * f;
  const double decks_per_s = static_cast<double>(lat.size()) / (busy_ms / 1000.0);
  o.metrics["decks_per_s"] = decks_per_s / f;
  o.metrics["slo_goodput"] = static_cast<double>(within) / n;
  o.metrics["ok_share"] = static_cast<double>(o.attempted - o.failed) / static_cast<double>(o.attempted);
  o.metrics["peak_rss_mb"] = static_cast<double>(max_rss_kb) / 1024.0;
  note("predict_cli: %zu timed invocations over %zu decks in %.1f s; tail = p%d of %zu samples",
       timed, s.decks.size(), busy_ms / 1000.0, kPredictTailPct, lat.size());
  note("predict_cli: raw setup %.3f s, %.2f decks/s, latency %s; host probe median %.2f ms (factor %.3f)",
       median(s.setup_s), decks_per_s, percentile_summary(lat).c_str(), probe.median_ms(), f);
  return o;
}

// The layers `paragraph predict` has no profiler scope for (artifact load,
// parse, graph build, drift check, plan build), replayed in process over
// the deck list with a span around each public call.
void replay(Tracer& t, const CliSetup& s, std::int64_t round) {
  for (std::size_t k = 0; k < s.decks.size(); ++k) {
    Scope req(t, "request", round * 100 + static_cast<std::int64_t>(k));
    std::optional<pg::core::GnnPredictor> p;
    {
      Scope sc(t, "core.load");
      p.emplace(pg::core::load_predictor(s.model_path));
    }
    pg::circuit::Netlist nl;
    {
      Scope sc(t, "circuit.parse");
      nl = pg::circuit::parse_spice_file(s.paths[k]);
    }
    pg::dataset::Sample sample;
    {
      Scope sc(t, "graph.build");
      sample.graph = pg::graph::build_graph(nl);
    }
    sample.netlist = std::move(nl);
    {
      Scope sc(t, "eval.drift");
      const auto& ref = p->feature_sketches();
      if (!ref.empty()) pg::eval::check_drift(ref, pg::eval::sketch_graphs(std::span(&sample, 1), &ref));
    }
    Scope sc(t, "gnn.plan");
    pg::gnn::GraphPlan::build(sample.graph, p->needs_homo());
  }
}

Outcome run_traced(const RunArgs& a, const CliSetup& s, HostProbe& probe) {
  Outcome o;
  const std::string err = a.work_dir + "/predict.err";
  const std::string metrics_path = a.work_dir + "/predict-metrics.json";
  Tracer t(true);
  std::vector<double> startup;
  for (int i = 0; i < 21; ++i) {
    const ChildResult r = run_child({a.paragraph}, err);  // usage text, exit 2: the process floor
    if (i > 0) startup.push_back(r.wall_ms);
  }

  // The program's own figures. Every deck runs as a plain child and as a
  // child with --metrics-out, whose phase profile gives the normaliser
  // rebuild (`dataset_build`) and the forward (`predict`); the pair's wall
  // times give the cost of that instrumentation.
  run_child(predict_argv(a, s, 0), err);  // warm the page cache; not measured
  double plain_ms = 0.0, traced_ms = 0.0, normalizer_ms = 0.0, small_ms = 0.0, small_normalizer_ms = 0.0;
  std::size_t traced_n = 0;
  std::map<std::string, std::vector<double>> forward_ms;  // by deck class
  const auto start = Clock::now();
  for (std::int64_t round = 0; round < 2 || secs_since(start) < a.seconds; ++round) {
    probe.sample();
    for (std::size_t k = 0; k < s.decks.size(); ++k) {
      const auto plain = predict_once(predict_argv(a, s, k), s, k, err, o);
      auto argv = predict_argv(a, s, k);
      argv.insert(argv.end(), {"--metrics-out", metrics_path});
      std::filesystem::remove(metrics_path);
      const double t0 = t.now_us();
      const auto traced = predict_once(argv, s, k, err, o);
      if (!plain || !traced) continue;
      t.add({"cli.invocation", t0, t0 + traced->wall_ms * 1000.0, -1, round * 100 + static_cast<std::int64_t>(k), 1});
      const auto doc = read_json_file(metrics_path);
      const double build_ms = profile_node(doc, "dataset_build").total_ms;
      plain_ms += plain->wall_ms;
      traced_ms += traced->wall_ms;
      normalizer_ms += build_ms;
      ++traced_n;
      if (s.decks[k].devices < kLargeDeckDevices) {
        small_ms += traced->wall_ms;
        small_normalizer_ms += build_ms;
      }
      forward_ms[s.decks[k].devices >= kLargeDeckDevices ? "gnn.forward_large" : "gnn.forward_small"]
          .push_back(profile_node(doc, "predict").total_ms);
    }
  }

  Tracer off(false);
  replay(off, s, 0);  // warm-up
  for (std::int64_t round = 1; round <= kPredictReplayRounds; ++round) replay(t, s, round);
  double parse_bytes = 0.0;
  for (const Deck& d : s.decks) parse_bytes += static_cast<double>(d.text.size()) * kPredictReplayRounds;

  // Matrix allocations and peak bytes of one forward per deck, measured in
  // a separate pass so the accounting does not inflate the timed figures.
  double allocs = 0.0, peak_mb = 0.0;
  {
    const auto p = pg::core::load_predictor(s.model_path);
    const auto ds = pg::dataset::build_dataset(p.config().seed, p.config().scale);
    for (const std::string& path : s.paths) {
      pg::dataset::Sample sample;
      pg::circuit::Netlist nl = pg::circuit::parse_spice_file(path);
      sample.graph = pg::graph::build_graph(nl);
      sample.netlist = std::move(nl);
      const auto plan = pg::gnn::GraphPlan::build(sample.graph, p.needs_homo());
      pg::obs::set_enabled(true);
      pg::obs::MemTracker::instance().reset();
      p.predict_all(ds, sample, plan);
      allocs += static_cast<double>(pg::obs::MemTracker::instance().allocs());
      peak_mb = std::max(peak_mb, static_cast<double>(pg::obs::MemTracker::instance().peak_bytes()) / 1048576.0);
      pg::obs::set_enabled(false);
    }
    allocs /= static_cast<double>(s.paths.size());
  }
  if (traced_n == 0) return o;

  const auto lt = t.layer_times();
  for (const char* name : {"core.load", "circuit.parse", "graph.build", "eval.drift", "gnn.plan"})
    o.metrics[std::string(name) + "_ms"] = self_ms_per_call(lt, name);
  const double n = static_cast<double>(traced_n);
  o.metrics["dataset.normalizer_ms"] = normalizer_ms / n;
  o.metrics["dataset.normalizer_share"] = normalizer_ms / traced_ms;
  for (const auto& [name, v] : forward_ms) o.metrics[name + "_ms"] = mean(v);
  const double parse_s = lt.count("circuit.parse") ? lt.at("circuit.parse").self_us / 1e6 : 0.0;
  o.metrics["circuit.parse_mb_per_s"] = parse_s > 0.0 ? parse_bytes / 1048576.0 / parse_s : 0.0;
  o.metrics["cli.startup_ms"] = median(startup);
  o.metrics["host.mem_probe_ms"] = probe.median_ms();
  o.metrics["nn.matrix_allocs"] = allocs;
  o.metrics["nn.matrix_peak_mb"] = peak_mb;
  o.metrics["obs.trace_overhead_share"] = (traced_ms - plain_ms) / plain_ms;
  o.metrics["inputs.hier_share"] =
      static_cast<double>(std::count_if(s.decks.begin(), s.decks.end(), [](const Deck& d) { return d.hier; })) /
      static_cast<double>(s.decks.size());

  const double inv_ms = traced_ms / n;
  note("predict_cli traced: per invocation (mean of %zu, --metrics-out children) %.2f ms:", traced_n, inv_ms);
  note("  %-22s %9.2f ms  (%.1f%%; %.1f%% of a deck below %zu devices)  program profile `dataset_build`",
       "dataset.normalizer", normalizer_ms / n, 100.0 * normalizer_ms / traced_ms,
       small_ms > 0.0 ? 100.0 * small_normalizer_ms / small_ms : 0.0, kLargeDeckDevices);
  double forward_total = 0.0;
  for (const auto& [name, v] : forward_ms) forward_total += mean(v) * static_cast<double>(v.size());
  note("  %-22s %9.2f ms  (%.1f%%)  program profile `predict`", "gnn.forward", forward_total / n,
       100.0 * forward_total / traced_ms);
  note("  %-22s %9.2f ms  (%.1f%%)  no-work invocation", "cli.startup", median(startup),
       100.0 * median(startup) / inv_ms);
  for (const char* name : {"core.load", "circuit.parse", "graph.build", "eval.drift", "gnn.plan"})
    note("  %-22s %9.2f ms  (%.1f%%)  in-process replay", name, self_ms_per_call(lt, name),
         100.0 * self_ms_per_call(lt, name) / inv_ms);
  if (!t.write_chrome_json(a.trace_path)) note("cannot write trace %s", a.trace_path.c_str());
  return o;
}

}  // namespace

Outcome run_predict_cli(const RunArgs& a) {
  HostProbe& probe = *a.probe;
  const CliSetup s = prepare(a, probe);
  std::string decks;
  for (const Deck& d : s.decks) decks += " " + d.name + ":" + std::to_string(d.devices);
  note("predict_cli inputs: devices per deck%s", decks.c_str());
  return a.trace ? run_traced(a, s, probe) : run_untraced(a, s, probe);
}

}  // namespace e2ebench
