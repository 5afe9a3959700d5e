// paragraph — command-line front end to the library.
//
//   paragraph generate --out DIR [--seed N] [--scale F]
//       Generate the Table IV-style circuit suite as SPICE files with
//       ground-truth annotations.
//   paragraph train --save MODEL.bin [--target CAP] [--model ParaGraph]
//                   [--epochs N] [--scale F] [--seed N] [--max-v FF]
//                   [--eval-every N] [--batch-size B]
//                   [--checkpoint-every N] [--checkpoint PATH] [--resume PATH]
//       Train a predictor on the synthetic suite and save it. The model
//       file (format v6) carries the fitted feature normaliser, so predict
//       and serve need nothing but the file; the --seed/--scale used here
//       are recorded too and default evaluate/report's test suite.
//       --batch-size B runs B circuits' forward/backward
//       concurrently per optimiser step with gradients averaged in circuit
//       order (1 = the classic one-step-per-graph schedule).
//       --checkpoint-every N writes a crash-safe checkpoint (model + Adam
//       moments + RNG stream + schedule state) every N epochs to
//       --checkpoint PATH (default: MODEL.bin.ckpt). --resume PATH picks a
//       run back up from such a checkpoint; the resumed run is
//       bit-identical to an uninterrupted one, and the model/target/seed
//       options are taken from the checkpoint, not the command line.
//   paragraph predict --model MODEL.bin --netlist FILE.sp [--drift-warn X]
//       Predict the model's target for every net/transistor of a SPICE
//       netlist (pre-layout: no annotation needed). Normalises with the
//       model file's own normaliser; files older than format v6 rebuild
//       it from their recorded seed/scale, with a warning.
//   paragraph evaluate --model MODEL.bin [--scale F] [--seed N]
//                      [--quality-out PATH] [--drift-warn X]
//       Evaluate a saved model on the generated test circuits. --seed and
//       --scale (default: the values recorded in the model) choose the
//       test suite only; the model's own normaliser is always used.
//       --quality-out writes the paragraph-quality-v1 JSON block
//       (per-decade/target/edge-type accounting, worst nets); with
//       --metrics-out the same accounting also lands as quality.* gauges.
//       Models saved as format v5 carry training-set distribution
//       sketches; evaluate and predict score the incoming graphs against
//       them (PSI per feature), publish drift.<feature>/drift.max gauges,
//       and warn once when drift.max crosses --drift-warn (default 0.25).
//   paragraph report --model MODEL.bin --out PREFIX [--prior METRICS.json]
//                    [--scale F] [--seed N] [--drift-warn X]
//       Join the model and the generated test circuits into a quality
//       dashboard: PREFIX.md (human-readable) and PREFIX.json
//       (paragraph-quality-v1). --prior compares against a previous run's
//       --metrics-out dump. --ensemble ENS reads a CapEnsemble manifest
//       instead of a single model. --seed/--scale choose the test suite,
//       as for evaluate.
//   paragraph annotate --netlist FILE.sp [--seed N]
//       Run the procedural layout and emit the annotated netlist to stdout.
//   paragraph dataset pack --out DIR [--seed N] [--scale F]
//       Build the synthetic suite and pack it as paragraph-shard-v1 shards
//       (one binary file per sample + manifest.json with checksums and the
//       fitted normaliser). train/evaluate stream from such a directory
//       via --shards, holding at most --max-resident-mb of materialised
//       samples at a time instead of the whole dataset (DESIGN.md §11).
//   paragraph serve --socket PATH [--tcp PORT] [--ensemble ENS]
//                   [--models A.bin,B.bin] [--queue-cap N] [--max-batch N]
//                   [--no-batching] [--slow-ms MS] [--slo-p99-ms MS]
//                   [--slo-target F] [--recent N] [--io-timeout-ms MS]
//                   [--max-conns N] [--client-queue-cap N]
//                   [--auth-token TOK]
//       Long-lived inference daemon (DESIGN.md §12): loads the models
//       once, answers length-prefixed JSON requests on a unix-domain
//       socket (and loopback TCP with --tcp; port 0 picks one and prints
//       it). Concurrent requests are micro-batched (up to --max-batch per
//       pass; --no-batching = 1) through a bounded priority queue of
//       --queue-cap entries; an over-full queue rejects with a typed
//       `queue_full` error instead of stalling. SIGHUP (or the `reload`
//       admin command) hot-swaps the model from the same paths: in-flight
//       requests finish on the old generation, a corrupt ensemble member
//       degrades the ensemble (warning names the file), a corrupt
//       manifest keeps the old generation serving. SIGTERM/SIGINT drain
//       the queue, answer everything admitted, then exit 0. A socket path
//       or TCP port already in use exits 3.
//       Live telemetry (DESIGN.md §13): every request gets a stable
//       request id (client-propagated or server-assigned) with a
//       queue/parse/plan/predict/serialize phase breakdown; --slow-ms MS
//       warn-logs requests slower than MS with that breakdown; the SLO
//       windows count a request good when it succeeded within
//       --slo-p99-ms MS (default 50) against availability --slo-target F
//       (default 0.999); --recent N sizes the recent-requests ring
//       (default 64).
//       Hostile-conditions hardening (DESIGN.md §14): --io-timeout-ms MS
//       (default 5000, 0 disables) bounds every in-progress frame read
//       and response write per connection, so slowloris peers are cut
//       off; --max-conns N (default 256) caps concurrent connections —
//       excess connects get a typed `overloaded` rejection and a close;
//       --client-queue-cap N caps queued requests per fairness key
//       (default 0 = half the queue capacity) and the worker dequeues
//       round-robin across clients within each priority lane, so one
//       flooder cannot starve polite clients; --auth-token TOK (or the
//       PARAGRAPH_AUTH_TOKEN environment variable) requires that token
//       on every TCP request (typed `unauthorized` otherwise; the unix
//       socket, being filesystem-permissioned, stays token-free).
//       Requests carrying `deadline_ms` are shed with a typed
//       `deadline_exceeded` — before any parsing or model work — once
//       their deadline passes while queued; sheds are client-attributed
//       (they never count against the server's SLO windows).
//   paragraph client --socket PATH | --tcp HOST:PORT
//                    (--netlist FILE.sp [--priority P] [--request-id RID]
//                     | --admin CMD) [--json] [--deadline-ms MS]
//                    [--client KEY] [--auth-token TOK] [--retries N]
//                    [--timeout-ms MS]
//       One round-trip against a running serve daemon: send one netlist
//       (or admin command: stats, healthz, reload, shutdown), print the
//       predictions (or the stats/ack JSON), exit 0. Any server-side
//       error response prints its code and message and exits 3. --json
//       prints one machine-readable object (request_id, ok, latency_ms,
//       error code, predictions) instead of the human text; --request-id
//       propagates a caller-chosen trace id into the server's telemetry.
//       --deadline-ms MS asks the server to shed the request (typed
//       `deadline_exceeded`) rather than start it late; --client KEY
//       sets the fairness key (default: per-connection identity);
//       --auth-token TOK (or PARAGRAPH_AUTH_TOKEN) authenticates against
//       a token-guarded TCP listener; --retries N retries idempotent
//       rejections (connect failure, queue_full, overloaded) with
//       full-jitter exponential backoff, reusing one request id across
//       attempts (default 0 = single attempt); --timeout-ms MS bounds
//       each frame read/write on the wire.
//   paragraph top --socket PATH | --tcp HOST:PORT
//                 [--interval-ms N] [--count N] [--once] [--json]
//       Live one-screen view of a running daemon, polled from the `stats`
//       admin verb every --interval-ms (default 1000): req/s,
//       p50/p95/p99 latency, queue depth per lane, in-flight and batch
//       sizes, reloads, SLO windows and error-budget remaining. --once
//       prints a single snapshot and exits; --json emits the raw
//       paragraph-stats-v1 document per poll (for scripts); --count N
//       stops after N polls.
//
// Out-of-core options (train, evaluate):
//   --shards DIR         stream samples from a packed shard directory
//                        instead of rebuilding the dataset in memory;
//                        results are bit-identical to the in-memory run
//                        on the same data
//   --max-resident-mb N  LRU working-set budget for materialised samples
//                        (default 512). Prepared plans/batches are priced
//                        into the same budget during training.
//
// Runtime options (every command):
//   --threads N        parallel runtime thread count (default: the
//                      PARAGRAPH_THREADS environment variable, then the
//                      hardware concurrency; 1 = serial). Results are
//                      identical at any thread count.
//
// Observability options (every command):
//   --log-level L      trace|debug|info|warn|error|off (default: info, or
//                      the PARAGRAPH_LOG environment variable)
//   --log-jsonl PATH   mirror log records to PATH as JSON lines
//   --metrics-out PATH write counters/gauges/histograms (p50/p95/p99),
//                      per-epoch records, and the phase-time profile as JSON
//   --trace-out PATH   write a Chrome trace-event file (chrome://tracing,
//                      Perfetto) with per-worker region:<name> spans
//   --mem-stats        print a one-line peak-RSS / peak-Matrix-bytes
//                      summary on exit (works without --metrics-out)
// --metrics-out/--trace-out/--mem-stats enable the instrumentation layer,
// which is otherwise off and costs nothing.
//
// Crash flight recorder (every command): fatal signals and std::terminate
// dump the last N log/metric/phase events plus the active phase stack to
// crash-<pid>.json (in PARAGRAPH_CRASH_DIR, default the working
// directory) before the process dies with its original signal.
//
// Exit codes:
//   0  success
//   1  internal error (unexpected exception)
//   2  usage error (unknown command, bad option value)
//   3  bad input or artifact (unreadable/corrupt model, checkpoint, or
//      netlist; SPICE parse errors)
//   4  training diverged (persistent non-finite loss/gradients)
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "circuit/spice_parser.h"
#include "circuit/spice_writer.h"
#include "core/checkpoint.h"
#include "core/ensemble.h"
#include "core/learners.h"
#include "core/report.h"
#include "core/serialize.h"
#include "dataset/dataset.h"
#include "dataset/shards.h"
#include "eval/drift.h"
#include "layout/annotator.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "runtime/thread_pool.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/args.h"
#include "util/atomic_file.h"
#include "util/errors.h"
#include "util/faultinject.h"

using namespace paragraph;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: paragraph <generate|train|predict|evaluate|report|annotate|dataset|serve|client|top> [options]\n"
               "run with a command and --help for the option list in the file header\n");
  return 2;
}

// Drift check shared by predict/evaluate/report: score live input sketches
// against the model's persisted training reference (format v5; older
// models have none and the check is skipped). Publishes drift.* gauges and
// the one-line warning via eval::check_drift.
std::optional<obs::DriftReport> run_drift_check(const std::vector<obs::FeatureSketch>& ref,
                                                std::span<const dataset::Sample> live_samples,
                                                double warn_threshold) {
  if (ref.empty()) return std::nullopt;
  const auto live = eval::sketch_graphs(live_samples, &ref);
  return eval::check_drift(ref, live, warn_threshold);
}

dataset::TargetKind parse_target(const std::string& name) {
  for (const auto t : dataset::all_targets()) {
    if (name == dataset::target_name(t)) return t;
  }
  throw std::invalid_argument("unknown target '" + name + "' (use CAP, LDE1..LDE8, SA, DA, SP, DP, RES)");
}

gnn::ModelKind parse_model(const std::string& name) {
  for (const auto k : {gnn::ModelKind::kGcn, gnn::ModelKind::kGraphSage, gnn::ModelKind::kRgcn,
                       gnn::ModelKind::kGat, gnn::ModelKind::kParaGraph}) {
    if (name == gnn::model_kind_name(k)) return k;
  }
  throw std::invalid_argument("unknown model '" + name +
                              "' (use GCN, GraphSage, RGCN, GAT, ParaGraph)");
}

dataset::Sample sample_from_netlist(circuit::Netlist nl) {
  dataset::Sample s;
  s.name = nl.name();
  s.graph = graph::build_graph(nl);
  s.netlist = std::move(nl);
  return s;
}

// Observability wiring shared by every command: --log-level/--log-jsonl
// configure the logger; --metrics-out/--trace-out pick output paths and
// switch the (default-off) instrumentation layer on.
struct ObsOutputs {
  std::string metrics_out;
  std::string trace_out;
  bool mem_stats = false;
};

ObsOutputs setup_observability(const util::ArgParser& args) {
  if (args.has("log-level")) {
    const std::string name = args.get("log-level");
    const auto level = obs::parse_log_level(name);
    if (!level)
      throw std::invalid_argument("unknown --log-level '" + name +
                                  "' (use trace, debug, info, warn, error, off)");
    obs::Logger::instance().set_level(*level);
  }
  if (args.has("log-jsonl")) {
    const std::string path = args.get("log-jsonl");
    if (!obs::Logger::instance().open_jsonl(path))
      throw std::runtime_error("cannot open --log-jsonl file '" + path + "'");
  }
  ObsOutputs out{args.get("metrics-out"), args.get("trace-out"), args.has("mem-stats")};
  if (!out.metrics_out.empty() || !out.trace_out.empty() || out.mem_stats)
    obs::set_enabled(true);
  if (!out.trace_out.empty()) obs::TraceCollector::instance().set_enabled(true);
  return out;
}

// --threads N (then PARAGRAPH_THREADS, then hardware concurrency)
// configures the parallel runtime; shared by every command. The effective
// count is recorded as the runtime.threads gauge so it lands in the
// metrics JSON alongside the training series.
void setup_runtime(const util::ArgParser& args) {
  runtime::init_from_env();
  if (args.has("threads")) {
    const long t = args.get_int("threads", 0);
    if (t <= 0) throw std::invalid_argument("--threads must be a positive integer");
    runtime::set_num_threads(static_cast<std::size_t>(t));
  }
  if (obs::enabled())
    obs::MetricsRegistry::instance()
        .gauge("runtime.threads")
        .set(static_cast<double>(runtime::num_threads()));
}

void flush_observability(const ObsOutputs& out) {
  // Dump-time telemetry: memory gauges and pool utilization are computed
  // lazily, so they have to be published into the registry before the dump.
  if (obs::enabled()) {
    obs::publish_memory_metrics();
    runtime::publish_runtime_metrics();
  }
  if (!out.metrics_out.empty()) {
    // The hierarchical phase profile rides along in the metrics document.
    obs::JsonValue doc = obs::MetricsRegistry::instance().to_json();
    doc.set("profile", obs::Profiler::instance().to_json());
    if (util::try_write_file_atomic(out.metrics_out, doc.dump() + '\n')) {
      std::printf("wrote metrics to %s\n", out.metrics_out.c_str());
    } else {
      std::fprintf(stderr, "paragraph: cannot write metrics to '%s'\n", out.metrics_out.c_str());
    }
  }
  if (!out.trace_out.empty()) {
    if (obs::TraceCollector::instance().write_json(out.trace_out)) {
      std::printf("wrote trace to %s (%zu events)\n", out.trace_out.c_str(),
                  obs::TraceCollector::instance().size());
    } else {
      std::fprintf(stderr, "paragraph: cannot write trace to '%s'\n", out.trace_out.c_str());
    }
  }
  if (out.mem_stats) {
    // One line, independent of --metrics-out, so a quick `--mem-stats` run
    // answers "how much memory did that take" without a JSON detour.
    const obs::ProcMemory pm = obs::sample_process_memory();
    const auto& mt = obs::MemTracker::instance();
    std::printf("mem-stats: peak_rss=%llu KB  matrix_peak=%llu bytes  "
                "matrix_allocs=%llu  matrix_frees=%llu\n",
                static_cast<unsigned long long>(pm.ok ? pm.vm_hwm_kb : 0),
                static_cast<unsigned long long>(mt.peak_bytes()),
                static_cast<unsigned long long>(mt.allocs()),
                static_cast<unsigned long long>(mt.frees()));
  }
  obs::Logger::instance().close_jsonl();
}

// --max-resident-mb N (default 512) -> ShardStore byte budget.
dataset::ShardStore::Config shard_store_config(const util::ArgParser& args) {
  const long mb = args.get_int("max-resident-mb", 512);
  if (mb <= 0) throw std::invalid_argument("--max-resident-mb must be a positive integer");
  dataset::ShardStore::Config cfg;
  cfg.max_resident_bytes = static_cast<std::size_t>(mb) << 20;
  return cfg;
}

int cmd_dataset(const util::ArgParser& args) {
  const auto& pos = args.positional();
  if (pos.empty() || pos[0] != "pack") {
    std::fprintf(stderr, "dataset: unknown subcommand (use `paragraph dataset pack --out DIR`)\n");
    return 2;
  }
  const std::string out_dir = args.get("out");
  if (out_dir.empty()) {
    std::fprintf(stderr, "dataset pack: --out DIR is required\n");
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const double scale = args.get_double("scale", 0.25);
  std::printf("building dataset (seed %llu, scale %.2f)...\n",
              static_cast<unsigned long long>(seed), scale);
  const auto ds = dataset::build_dataset(seed, scale);
  const auto r = dataset::write_shards(ds, out_dir);
  std::printf("packed %zu train + %zu test samples into %s (%zu shards, %llu bytes)\n",
              ds.train.size(), ds.test.size(), out_dir.c_str(), r.files,
              static_cast<unsigned long long>(r.bytes));
  return 0;
}

int cmd_generate(const util::ArgParser& args) {
  const std::string out_dir = args.get("out", "suite");
  std::filesystem::create_directories(out_dir);
  auto suite = circuitgen::build_paper_suite(
      static_cast<std::uint64_t>(args.get_int("seed", 42)), args.get_double("scale", 0.25));
  auto emit = [&](circuit::Netlist& nl) {
    layout::annotate_layout(nl, static_cast<std::uint64_t>(args.get_int("seed", 42)) + 7);
    std::unordered_map<circuit::NetId, double> caps;
    for (circuit::NetId id = 0; static_cast<std::size_t>(id) < nl.num_nets(); ++id)
      if (nl.net(id).ground_truth_cap) caps.emplace(id, *nl.net(id).ground_truth_cap);
    circuit::WriteOptions opts;
    opts.net_caps = &caps;
    opts.emit_layout_params = true;
    std::ofstream f(out_dir + "/" + nl.name() + ".sp");
    circuit::write_spice(f, nl, opts);
    std::printf("wrote %s/%s.sp (%zu devices)\n", out_dir.c_str(), nl.name().c_str(),
                nl.num_devices());
  };
  for (auto& nl : suite.train) emit(nl);
  for (auto& nl : suite.test) emit(nl);
  return 0;
}

int cmd_train(const util::ArgParser& args) {
  const std::string save_path = args.get("save");
  if (save_path.empty()) {
    std::fprintf(stderr, "train: --save PATH is required\n");
    return 2;
  }
  const long ck_every = args.get_int("checkpoint-every", 0);
  if (ck_every < 0) {
    std::fprintf(stderr, "train: --checkpoint-every must be >= 0\n");
    return 2;
  }
  core::TrainOptions topts;
  topts.checkpoint_every = static_cast<int>(ck_every);
  if (topts.checkpoint_every > 0)
    topts.checkpoint_path = args.get("checkpoint", save_path + ".ckpt");

  core::PredictorConfig pc;
  core::TrainCheckpoint resume_ck;
  std::optional<core::GnnPredictor> predictor_slot;
  if (args.has("resume")) {
    const std::string resume_path = args.get("resume");
    resume_ck = core::load_checkpoint(resume_path);
    predictor_slot.emplace(
        core::predictor_from_bytes(resume_ck.model_bytes, "resume: '" + resume_path + "'"));
    // The checkpoint's config is authoritative: the dataset, architecture,
    // and schedule must match the interrupted run for bit-identity.
    pc = predictor_slot->config();
    topts.resume = &resume_ck;
    std::printf("resuming from %s at epoch %d/%d\n", resume_path.c_str(), resume_ck.next_epoch,
                pc.epochs);
  } else {
    pc.target = parse_target(args.get("target", "CAP"));
    pc.model = parse_model(args.get("model", "ParaGraph"));
    pc.epochs = static_cast<int>(args.get_int("epochs", 150));
    pc.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
    pc.max_v_ff = args.get_double("max-v", 1e4);
    pc.scale = args.get_double("scale", 0.25);
    const long batch = args.get_int("batch-size", 1);
    if (batch <= 0) {
      std::fprintf(stderr, "train: --batch-size must be a positive integer\n");
      return 2;
    }
    pc.batch_size = static_cast<std::size_t>(batch);
    pc.train_threads = runtime::num_threads();
    predictor_slot.emplace(pc);
  }
  // Data source: the in-memory dataset (default) or an out-of-core shard
  // directory (--shards). The streamed run is bit-identical to the
  // in-memory run on the same data; only peak memory differs.
  std::optional<dataset::SuiteDataset> ds_slot;
  std::optional<dataset::ShardStore> store;
  if (args.has("shards")) {
    store.emplace(args.get("shards"), shard_store_config(args));
    std::printf("streaming %zu train + %zu test samples from %s (budget %zu MB)\n",
                store->num_train(), store->num_test(), args.get("shards").c_str(),
                store->config().max_resident_bytes >> 20);
  } else {
    std::printf("building dataset (scale %.2f)...\n", pc.scale);
    ds_slot.emplace(dataset::build_dataset(pc.seed, pc.scale));
  }
  std::printf("training %s for %s (%d epochs)...\n", gnn::model_kind_name(pc.model),
              dataset::target_name(pc.target), pc.epochs);
  core::GnnPredictor& predictor = *predictor_slot;
  const auto eval_pooled = [&]() {
    return (store ? predictor.evaluate(*store) : predictor.evaluate(ds_slot->test)).pooled();
  };
  // Per-epoch telemetry: every record lands in the metrics series /
  // debug log from inside train(); this callback adds periodic test-set
  // evaluation (--eval-every N epochs, 0 = only implicitly at the end).
  const int eval_every = static_cast<int>(args.get_int("eval-every", 0));
  const core::EpochCallback on_epoch = [&](const core::EpochRecord& rec) {
    if (eval_every <= 0 || (rec.epoch + 1) % eval_every != 0) return;
    const auto em = eval_pooled();
    obs::log_info("train", "eval",
                  {{"epoch", rec.epoch},
                   {"loss", rec.loss},
                   {"test_r2", em.r2},
                   {"test_mae", em.mae}});
    if (obs::enabled()) {
      obs::JsonValue r = obs::JsonValue::object();
      r.set("epoch", rec.epoch);
      r.set("test_r2", em.r2);
      r.set("test_mae", em.mae);
      r.set("test_mape", em.mape);
      obs::MetricsRegistry::instance().append_record("train.eval", std::move(r));
    }
  };
  const auto losses =
      store ? predictor.train(*store, on_epoch, topts) : predictor.train(*ds_slot, on_epoch, topts);
  const auto m = eval_pooled();
  // A resume at the final epoch runs zero epochs and reports no loss.
  const double final_loss = losses.empty() ? 0.0 : losses.back();
  std::printf("final loss %.6f; test R2=%.3f MAE=%.4f MAPE=%.1f%% over %zu nodes\n",
              final_loss, m.r2, m.mae, m.mape, m.count);
  // Final-epoch eval record, unless the --eval-every cadence already
  // produced one for the last epoch.
  if (obs::enabled() && !(eval_every > 0 && pc.epochs % eval_every == 0)) {
    obs::JsonValue r = obs::JsonValue::object();
    r.set("epoch", pc.epochs - 1);
    r.set("test_r2", m.r2);
    r.set("test_mae", m.mae);
    r.set("test_mape", m.mape);
    obs::MetricsRegistry::instance().append_record("train.eval", std::move(r));
  }
  core::save_predictor(predictor, save_path);
  std::printf("saved model to %s\n", save_path.c_str());
  return 0;
}

int cmd_predict(const util::ArgParser& args) {
  const std::string model_path = args.get("model");
  const std::string netlist_path = args.get("netlist");
  if (model_path.empty() || netlist_path.empty()) {
    std::fprintf(stderr, "predict: --model and --netlist are required\n");
    return 2;
  }
  const core::GnnPredictor predictor = core::load_predictor(model_path);
  const auto sample = sample_from_netlist(circuit::parse_spice_file(netlist_path));
  run_drift_check(predictor.feature_sketches(), std::span(&sample, 1),
                  args.get_double("drift-warn", eval::kDefaultDriftWarnThreshold));
  const auto preds = predictor.predict_all(sample);
  const auto target = predictor.config().target;
  std::printf("# %s predictions for %s\n", dataset::target_name(target), netlist_path.c_str());
  std::size_t k = 0;
  for (const auto nt : dataset::target_node_types(target)) {
    for (const auto origin : sample.graph.origins(nt)) {
      const std::string& name = nt == graph::NodeType::kNet
                                    ? sample.netlist.net(origin).name
                                    : sample.netlist.device(origin).name;
      std::printf("%-32s %g\n", name.c_str(), preds[k++]);
    }
  }
  return 0;
}

int cmd_evaluate(const util::ArgParser& args) {
  const std::string model_path = args.get("model");
  if (model_path.empty()) {
    std::fprintf(stderr, "evaluate: --model is required\n");
    return 2;
  }
  const core::GnnPredictor predictor = core::load_predictor(model_path);
  const std::string quality_out = args.get("quality-out");
  const auto print_result = [](const core::EvalResult& res) {
    for (const auto& c : res.circuits) {
      const auto cm = c.metrics();
      std::printf("%-6s R2=%7.3f MAE=%10.4f MAPE=%7.1f%% n=%zu\n", c.name.c_str(), cm.r2, cm.mae,
                  cm.mape, cm.count);
    }
    const auto pm = res.pooled();
    std::printf("%-6s R2=%7.3f MAE=%10.4f MAPE=%7.1f%% n=%zu\n", "all", pm.r2, pm.mae, pm.mape,
                pm.count);
  };

  // Out-of-core path: stream the packed test split through the working
  // set. Quality accounting and the drift check both need the whole test
  // split resident, so they stay with the in-memory path.
  if (args.has("shards")) {
    if (!quality_out.empty()) {
      std::fprintf(stderr, "evaluate: --quality-out requires the in-memory dataset (drop --shards)\n");
      return 2;
    }
    dataset::ShardStore store(args.get("shards"), shard_store_config(args));
    print_result(predictor.evaluate(store));
    return 0;
  }

  // --seed/--scale pick the test suite (default: the training suite's);
  // normalisation always uses the model's own persisted statistics.
  const auto ds = dataset::build_dataset(
      static_cast<std::uint64_t>(args.get_int("seed", static_cast<long>(predictor.config().seed))),
      args.get_double("scale", predictor.config().scale));
  // Quality accounting is post-processing over the evaluation results the
  // command produces anyway, so it runs whenever anyone can see it: an
  // explicit --quality-out, or the obs layer (gauges land in
  // --metrics-out). Plain `paragraph evaluate` skips it entirely.
  const bool want_quality = !quality_out.empty() || obs::enabled();

  const auto drift = run_drift_check(predictor.feature_sketches(), ds.test,
                                     args.get_double("drift-warn", eval::kDefaultDriftWarnThreshold));

  core::EvalResult res;
  if (want_quality) {
    const eval::QualityAccumulator q = core::collect_quality(predictor, ds.test, &res);
    q.publish();
    if (!quality_out.empty()) {
      const obs::JsonValue doc =
          core::quality_report_json(q, drift ? &*drift : nullptr, model_path,
                                    dataset::target_name(predictor.config().target),
                                    ds.test.size());
      if (util::try_write_file_atomic(quality_out, doc.dump() + '\n'))
        std::printf("wrote quality report to %s\n", quality_out.c_str());
      else
        std::fprintf(stderr, "paragraph: cannot write quality report to '%s'\n",
                     quality_out.c_str());
    }
  } else {
    res = predictor.evaluate(ds.test);
  }
  print_result(res);
  return 0;
}

int cmd_report(const util::ArgParser& args) {
  const std::string model_path = args.get("model");
  const std::string ensemble_path = args.get("ensemble");
  const std::string out_prefix = args.get("out");
  if ((model_path.empty() == ensemble_path.empty()) || out_prefix.empty()) {
    std::fprintf(stderr, "report: exactly one of --model/--ensemble, plus --out PREFIX, required\n");
    return 2;
  }
  const double drift_warn = args.get_double("drift-warn", eval::kDefaultDriftWarnThreshold);

  // Load the model(s), build the test suite, collect quality.
  std::optional<core::GnnPredictor> model;
  std::optional<core::CapEnsemble> ensemble;
  const core::PredictorConfig* cfg;
  const std::vector<obs::FeatureSketch>* drift_ref;
  if (!model_path.empty()) {
    model.emplace(core::load_predictor(model_path));
    cfg = &model->config();
    drift_ref = &model->feature_sketches();
  } else {
    ensemble.emplace(core::CapEnsemble::load(ensemble_path));
    cfg = &ensemble->model(0).config();
    drift_ref = &ensemble->model(0).feature_sketches();
  }
  const auto ds = dataset::build_dataset(
      static_cast<std::uint64_t>(args.get_int("seed", static_cast<long>(cfg->seed))),
      args.get_double("scale", cfg->scale));

  const auto drift = run_drift_check(*drift_ref, ds.test, drift_warn);
  eval::QualityAccumulator q =
      model ? core::collect_quality(*model, ds.test) : core::collect_quality(*ensemble, ds.test);
  q.publish();

  const std::string source = !model_path.empty() ? model_path : ensemble_path;
  obs::JsonValue doc = core::quality_report_json(q, drift ? &*drift : nullptr, source,
                                                 dataset::target_name(cfg->target),
                                                 ds.test.size());

  // Optional prior metrics JSON (--metrics-out format) for then-vs-now.
  std::optional<obs::JsonValue> prior;
  if (args.has("prior")) {
    const std::string prior_path = args.get("prior");
    const std::string text = core::read_artifact_file(prior_path, "report --prior");
    std::string err;
    prior = obs::JsonValue::parse(text, &err);
    if (!prior)
      throw util::CorruptArtifactError("report: --prior '" + prior_path + "': " + err);
  }

  const std::string markdown = core::render_quality_markdown(doc, prior ? &*prior : nullptr);
  const std::string json_path = out_prefix + ".json";
  const std::string md_path = out_prefix + ".md";
  util::write_file_atomic(json_path, doc.dump() + '\n');
  util::write_file_atomic(md_path, markdown);
  std::printf("wrote %s and %s\n", json_path.c_str(), md_path.c_str());
  if (drift && drift->max_psi >= drift_warn)
    std::printf("drift.max %.3f >= %.3f (%s)\n", drift->max_psi, drift_warn,
                drift->max_feature.c_str());
  return 0;
}

int cmd_annotate(const util::ArgParser& args) {
  const std::string netlist_path = args.get("netlist");
  if (netlist_path.empty()) {
    std::fprintf(stderr, "annotate: --netlist is required\n");
    return 2;
  }
  circuit::Netlist nl = circuit::parse_spice_file(netlist_path);
  layout::annotate_layout(nl, static_cast<std::uint64_t>(args.get_int("seed", 1)));
  std::unordered_map<circuit::NetId, double> caps;
  for (circuit::NetId id = 0; static_cast<std::size_t>(id) < nl.num_nets(); ++id)
    if (nl.net(id).ground_truth_cap) caps.emplace(id, *nl.net(id).ground_truth_cap);
  circuit::WriteOptions opts;
  opts.net_caps = &caps;
  opts.emit_layout_params = true;
  circuit::write_spice(std::cout, nl, opts);
  return 0;
}

// ---- serve / client ------------------------------------------------------

// The serve daemon's async-signal bridge: handlers may only write a byte
// to the server's self-pipe, so the fd is parked in a global the moment
// the server starts. SIGHUP = reload, SIGTERM/SIGINT = drain and exit.
std::atomic<int> g_serve_notify_fd{-1};

extern "C" void serve_signal_handler(int sig) {
  const int fd = g_serve_notify_fd.load(std::memory_order_relaxed);
  if (fd < 0) return;
  const char c = sig == SIGHUP ? 'H' : 'T';
  (void)!::write(fd, &c, 1);
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::string part = s.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!part.empty()) out.push_back(part);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

int cmd_serve(const util::ArgParser& args) {
  serve::ServeConfig cfg;
  cfg.socket_path = args.get("socket");
  if (cfg.socket_path.empty()) {
    std::fprintf(stderr, "serve: --socket PATH is required\n");
    return 2;
  }
  if (args.has("tcp")) cfg.tcp_port = static_cast<int>(args.get_int("tcp", 0));
  cfg.registry.ensemble_path = args.get("ensemble");
  cfg.registry.model_paths = split_commas(args.get("models", args.get("model")));
  const long qcap = args.get_int("queue-cap", 64);
  const long mbatch = args.has("no-batching") ? 1 : args.get_int("max-batch", 8);
  if (qcap <= 0 || mbatch <= 0) {
    std::fprintf(stderr, "serve: --queue-cap and --max-batch must be positive\n");
    return 2;
  }
  cfg.queue_capacity = static_cast<std::size_t>(qcap);
  cfg.max_batch = static_cast<std::size_t>(mbatch);
  cfg.slow_ms = args.get_double("slow-ms", 0.0);
  cfg.slo_latency_ms = args.get_double("slo-p99-ms", 50.0);
  cfg.slo_target = args.get_double("slo-target", 0.999);
  const long recent = args.get_int("recent", 64);
  if (recent <= 0) {
    std::fprintf(stderr, "serve: --recent must be positive\n");
    return 2;
  }
  cfg.recent_capacity = static_cast<std::size_t>(recent);
  const long io_timeout = args.get_int("io-timeout-ms", 5000);
  if (io_timeout < 0) {
    std::fprintf(stderr, "serve: --io-timeout-ms must be >= 0 (0 disables)\n");
    return 2;
  }
  cfg.io_timeout_ms = static_cast<int>(io_timeout);
  const long max_conns = args.get_int("max-conns", 256);
  const long client_cap = args.get_int("client-queue-cap", 0);
  if (max_conns <= 0 || client_cap < 0) {
    std::fprintf(stderr,
                 "serve: --max-conns must be positive, --client-queue-cap >= 0 (0 = auto)\n");
    return 2;
  }
  cfg.max_conns = static_cast<std::size_t>(max_conns);
  cfg.client_queue_cap = static_cast<std::size_t>(client_cap);
  cfg.auth_token = args.get("auth-token");
  if (cfg.auth_token.empty())
    if (const char* tok = std::getenv("PARAGRAPH_AUTH_TOKEN"); tok != nullptr)
      cfg.auth_token = tok;
  if (!cfg.auth_token.empty() && cfg.tcp_port < 0)
    std::fprintf(stderr,
                 "serve: note: --auth-token only guards the TCP listener (none is enabled)\n");

  serve::Server server(std::move(cfg));
  server.start();
  g_serve_notify_fd.store(server.notify_fd(), std::memory_order_relaxed);
  std::signal(SIGHUP, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGPIPE, SIG_IGN);

  std::printf("serving on %s", server.config().socket_path.c_str());
  if (server.tcp_port() >= 0) std::printf(" and 127.0.0.1:%d", server.tcp_port());
  std::printf(" (generation %llu%s); SIGHUP reloads, SIGTERM drains\n",
              static_cast<unsigned long long>(server.registry().current()->generation),
              server.registry().current()->degraded ? ", DEGRADED" : "");
  std::fflush(stdout);

  server.wait();
  std::signal(SIGHUP, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  g_serve_notify_fd.store(-1, std::memory_order_relaxed);
  server.stop();
  const auto& st = server.stats();
  std::printf("served %llu responses (%llu errors, %llu rejected) in %llu batches\n",
              static_cast<unsigned long long>(st.responses.load()),
              static_cast<unsigned long long>(st.errors.load()),
              static_cast<unsigned long long>(st.rejected.load()),
              static_cast<unsigned long long>(st.batches.load()));
  return 0;
}

// Shared by client/top: --socket PATH or --tcp HOST:PORT.
serve::ServeClient connect_serve(const util::ArgParser& args, const char* cmd) {
  const std::string socket_path = args.get("socket");
  const std::string tcp = args.get("tcp");
  if (socket_path.empty() == tcp.empty())
    throw std::invalid_argument(std::string(cmd) +
                                ": exactly one of --socket PATH or --tcp HOST:PORT is required");
  if (!socket_path.empty()) return serve::ServeClient::connect_unix(socket_path);
  const std::size_t colon = tcp.rfind(':');
  if (colon == std::string::npos || colon + 1 == tcp.size())
    throw std::invalid_argument(std::string(cmd) + ": --tcp needs HOST:PORT, got '" + tcp + "'");
  return serve::ServeClient::connect_tcp(tcp.substr(0, colon), std::stoi(tcp.substr(colon + 1)));
}

int cmd_client(const util::ArgParser& args) {
  const std::string netlist_path = args.get("netlist");
  const std::string admin = args.get("admin");
  if (netlist_path.empty() == admin.empty()) {
    std::fprintf(stderr, "client: exactly one of --netlist FILE or --admin CMD is required\n");
    return 2;
  }
  const std::string socket_path = args.get("socket");
  const std::string tcp = args.get("tcp");
  if (socket_path.empty() == tcp.empty()) {
    std::fprintf(stderr, "client: exactly one of --socket PATH or --tcp HOST:PORT is required\n");
    return 2;
  }
  const long retries = args.get_int("retries", 0);
  const long timeout_ms = args.get_int("timeout-ms", 0);
  const double deadline_ms = args.get_double("deadline-ms", 0.0);
  if (retries < 0 || timeout_ms < 0 || deadline_ms < 0.0) {
    std::fprintf(stderr, "client: --retries, --timeout-ms, and --deadline-ms must be >= 0\n");
    return 2;
  }
  serve::RetryPolicy policy;
  policy.max_attempts = 1 + static_cast<int>(retries);
  serve::RetryingClient client = [&] {
    if (!socket_path.empty()) return serve::RetryingClient::unix_target(socket_path, policy);
    const std::size_t colon = tcp.rfind(':');
    if (colon == std::string::npos || colon + 1 == tcp.size())
      throw std::invalid_argument("client: --tcp needs HOST:PORT, got '" + tcp + "'");
    return serve::RetryingClient::tcp_target(tcp.substr(0, colon),
                                             std::stoi(tcp.substr(colon + 1)), policy);
  }();
  if (timeout_ms > 0) client.set_io_timeout_ms(static_cast<int>(timeout_ms));

  serve::RequestOptions options;
  options.id = static_cast<std::int64_t>(args.get_int("id", 1));
  options.request_id = args.get("request-id");
  options.deadline_ms = deadline_ms;
  options.client = args.get("client");
  options.auth_token = args.get("auth-token");
  if (options.auth_token.empty())
    if (const char* tok = std::getenv("PARAGRAPH_AUTH_TOKEN"); tok != nullptr)
      options.auth_token = tok;
  const bool json = args.has("json");
  obs::JsonValue resp;
  const auto sent_at = std::chrono::steady_clock::now();
  if (!admin.empty()) {
    resp = client.admin(admin, options);
  } else {
    const std::string pname = args.get("priority", "normal");
    if (!serve::parse_priority(pname, &options.priority))
      throw std::invalid_argument("client: unknown --priority '" + pname +
                                  "' (use low, normal, high)");
    std::ifstream f(netlist_path);
    if (!f) throw util::IoError("client: cannot read netlist '" + netlist_path + "'");
    std::ostringstream text;
    text << f.rdbuf();
    resp = client.predict(text.str(), options);
  }
  const double latency_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - sent_at)
          .count();

  const obs::JsonValue* ok = resp.find("ok");
  const bool succeeded = ok != nullptr && ok->is_bool() && ok->as_bool();
  const obs::JsonValue* err = resp.find("error");
  const obs::JsonValue* code = err != nullptr ? err->find("code") : nullptr;
  const obs::JsonValue* msg = err != nullptr ? err->find("message") : nullptr;

  if (json) {
    // One machine-readable envelope per round-trip: what scripts and the
    // bench harness consume instead of scraping the human text.
    obs::JsonValue out = obs::JsonValue::object();
    const obs::JsonValue* rid = resp.find("request_id");
    if (rid != nullptr && rid->is_string()) out.set("request_id", rid->as_string());
    out.set("ok", succeeded);
    out.set("latency_ms", latency_ms);
    if (const obs::JsonValue* gen = resp.find("model_generation"); gen != nullptr)
      out.set("model_generation", gen->as_int());
    if (const obs::JsonValue* degraded = resp.find("degraded"); degraded != nullptr)
      out.set("degraded", degraded->as_bool());
    if (!succeeded) {
      out.set("error_code", code != nullptr && code->is_string() ? code->as_string() : "unknown");
      out.set("error_message", msg != nullptr && msg->is_string() ? msg->as_string() : "");
    }
    for (const char* member : {"predictions", "stats", "health"})
      if (const obs::JsonValue* v = resp.find(member); v != nullptr) out.set(member, *v);
    std::printf("%s\n", out.dump().c_str());
    return succeeded ? 0 : util::kExitBadInput;
  }

  if (!succeeded) {
    std::fprintf(stderr, "client: server error [%s] %s\n",
                 code != nullptr && code->is_string() ? code->as_string().c_str() : "unknown",
                 msg != nullptr && msg->is_string() ? msg->as_string().c_str() : "(no message)");
    return util::kExitBadInput;
  }
  if (const obs::JsonValue* preds = resp.find("predictions"); preds != nullptr) {
    const obs::JsonValue* gen = resp.find("model_generation");
    const obs::JsonValue* degraded = resp.find("degraded");
    const obs::JsonValue* rid = resp.find("request_id");
    std::printf("# predictions from generation %lld%s (request %s)\n",
                gen != nullptr ? static_cast<long long>(gen->as_int()) : -1LL,
                degraded != nullptr && degraded->as_bool() ? " (degraded)" : "",
                rid != nullptr && rid->is_string() ? rid->as_string().c_str() : "?");
    for (const auto& [target, values] : preds->items()) {
      std::printf("## %s\n", target.c_str());
      for (const auto& [name, value] : values.items())
        std::printf("%-32s %g\n", name.c_str(), value.as_double());
    }
  } else {
    // Admin responses print verbatim: stats payloads are for scripts.
    std::printf("%s\n", resp.dump().c_str());
  }
  return 0;
}

// ---- top -----------------------------------------------------------------

// Safe nested lookup into a stats document; nullptr when any key along
// the path is missing (daemons that have not served yet have no latency
// histogram, for instance).
const obs::JsonValue* stats_path(const obs::JsonValue& root,
                                 std::initializer_list<const char*> keys) {
  const obs::JsonValue* v = &root;
  for (const char* key : keys) {
    if (!v->is_object()) return nullptr;
    v = v->find(key);
    if (v == nullptr) return nullptr;
  }
  return v;
}

double stats_num(const obs::JsonValue& root, std::initializer_list<const char*> keys) {
  const obs::JsonValue* v = stats_path(root, keys);
  return v != nullptr && v->is_number() ? v->as_double() : 0.0;
}

// One screenful of the stats document, plus req/s computed from the
// previous poll's response counter.
void render_top(const obs::JsonValue& stats, double reqs_per_sec, bool have_rate) {
  const double p50 = stats_num(stats, {"metrics", "histograms", "serve.latency_us", "p50"});
  const double p95 = stats_num(stats, {"metrics", "histograms", "serve.latency_us", "p95"});
  const double p99 = stats_num(stats, {"metrics", "histograms", "serve.latency_us", "p99"});
  const obs::JsonValue* degraded = stats_path(stats, {"model", "degraded"});
  std::printf("paragraph top — generation %lld%s\n",
              static_cast<long long>(stats_num(stats, {"model", "generation"})),
              degraded != nullptr && degraded->is_bool() && degraded->as_bool() ? " (DEGRADED)"
                                                                                : "");
  if (have_rate)
    std::printf("rate:     %.1f req/s\n", reqs_per_sec);
  else
    std::printf("rate:     (first sample)\n");
  std::printf("requests: %.0f admitted, %.0f answered, %.0f errors, %.0f rejected\n",
              stats_num(stats, {"server", "requests"}), stats_num(stats, {"server", "responses"}),
              stats_num(stats, {"server", "errors"}), stats_num(stats, {"server", "rejected"}));
  std::printf("latency:  p50 %.2f ms  p95 %.2f ms  p99 %.2f ms\n", p50 / 1000.0, p95 / 1000.0,
              p99 / 1000.0);
  std::printf("queue:    depth %.0f/%.0f (low %.0f, normal %.0f, high %.0f)  inflight %.0f\n",
              stats_num(stats, {"server", "queue_depth"}),
              stats_num(stats, {"server", "queue_capacity"}),
              stats_num(stats, {"server", "queue_lanes", "low"}),
              stats_num(stats, {"server", "queue_lanes", "normal"}),
              stats_num(stats, {"server", "queue_lanes", "high"}),
              stats_num(stats, {"server", "inflight"}));
  std::printf("batches:  %.0f (largest %.0f, coalesced %.0f)  reloads %.0f\n",
              stats_num(stats, {"server", "batches"}),
              stats_num(stats, {"server", "max_batch_seen"}),
              stats_num(stats, {"server", "coalesced"}), stats_num(stats, {"server", "reloads"}));
  std::printf("slo:      1m availability %.4f (burn %.2f)  5m availability %.4f  "
              "budget remaining %.0f%%\n",
              stats_num(stats, {"slo", "windows", "1m", "availability"}),
              stats_num(stats, {"slo", "windows", "1m", "burn_rate"}),
              stats_num(stats, {"slo", "windows", "5m", "availability"}),
              stats_num(stats, {"slo", "budget_remaining"}) * 100.0);
  std::printf("memory:   rss %.0f KB (peak %.0f KB)\n", stats_num(stats, {"process", "rss_kb"}),
              stats_num(stats, {"process", "peak_rss_kb"}));
}

int cmd_top(const util::ArgParser& args) {
  const bool once = args.has("once");
  const bool json = args.has("json");
  const long interval_ms = args.get_int("interval-ms", 1000);
  if (interval_ms <= 0) {
    std::fprintf(stderr, "top: --interval-ms must be positive\n");
    return 2;
  }
  const long count = once ? 1 : args.get_int("count", 0);  // 0 = until killed
  serve::ServeClient client = connect_serve(args, "top");

  double prev_responses = 0.0;
  auto prev_at = std::chrono::steady_clock::now();
  bool have_prev = false;
  for (long i = 0; count == 0 || i < count; ++i) {
    if (i > 0) std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    const obs::JsonValue resp = client.admin("stats", i + 1);
    const obs::JsonValue* ok = resp.find("ok");
    const obs::JsonValue* stats = resp.find("stats");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool() || stats == nullptr) {
      std::fprintf(stderr, "top: bad stats response: %s\n", resp.dump().c_str());
      return util::kExitBadInput;
    }
    if (json) {
      std::printf("%s\n", stats->dump().c_str());
      std::fflush(stdout);
      continue;
    }
    const auto now = std::chrono::steady_clock::now();
    const double responses = stats_num(*stats, {"server", "responses"});
    const double dt = std::chrono::duration<double>(now - prev_at).count();
    const double rate = have_prev && dt > 0.0 ? (responses - prev_responses) / dt : 0.0;
    if (!once) std::printf("\033[H\033[2J");  // clear screen between polls
    render_top(*stats, rate, have_prev);
    std::fflush(stdout);
    prev_responses = responses;
    prev_at = now;
    have_prev = true;
  }
  return 0;
}

// Maps a thrown exception to the documented exit-code taxonomy.
int exit_code_for(const std::exception& e) {
  if (dynamic_cast<const util::DivergenceError*>(&e) != nullptr) return util::kExitDiverged;
  if (dynamic_cast<const util::CorruptArtifactError*>(&e) != nullptr) return util::kExitBadInput;
  if (dynamic_cast<const util::IoError*>(&e) != nullptr) return util::kExitBadInput;
  if (dynamic_cast<const circuit::ParseError*>(&e) != nullptr) return util::kExitBadInput;
  if (dynamic_cast<const std::invalid_argument*>(&e) != nullptr) return util::kExitUsage;
  return util::kExitInternal;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const util::ArgParser args(argc - 1, argv + 1);
  obs::init_from_env();
  util::fault::init_from_env();
  // Crash context costs nothing on the happy path: a fatal signal or
  // std::terminate dumps the recent event ring + phase stack to
  // crash-<pid>.json. The command-level phase is pushed explicitly so a
  // dump names at least the command even with instrumentation off.
  obs::FlightRecorder::install_crash_handlers();
  static char command_phase[64];
  std::snprintf(command_phase, sizeof command_phase, "cmd:%s", command.c_str());
  obs::FlightRecorder::instance().phase_enter(command_phase);
  ObsOutputs obs_out;
  try {
    obs_out = setup_observability(args);
    setup_runtime(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "paragraph %s: %s\n", command.c_str(), e.what());
    return util::kExitUsage;
  }
  int rc = -1;
  try {
    if (command == "generate") rc = cmd_generate(args);
    else if (command == "train") rc = cmd_train(args);
    else if (command == "predict") rc = cmd_predict(args);
    else if (command == "evaluate") rc = cmd_evaluate(args);
    else if (command == "report") rc = cmd_report(args);
    else if (command == "annotate") rc = cmd_annotate(args);
    else if (command == "dataset") rc = cmd_dataset(args);
    else if (command == "serve") rc = cmd_serve(args);
    else if (command == "client") rc = cmd_client(args);
    else if (command == "top") rc = cmd_top(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "paragraph %s: %s\n", command.c_str(), e.what());
    // Flush whatever was collected before the failure; partial metrics and
    // traces are exactly what you want when diagnosing a crash.
    flush_observability(obs_out);
    return exit_code_for(e);
  }
  if (rc < 0) return usage();
  flush_observability(obs_out);
  return rc;
}
