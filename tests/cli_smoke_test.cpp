// End-to-end smoke test for the paragraph CLI: trains a tiny model with
// --metrics-out/--trace-out and validates that both artefacts are
// well-formed JSON with the promised structure (per-epoch records, phase
// histograms with percentiles, Chrome trace events), then reloads the
// model with `evaluate` to exercise the persisted --scale. Also checks
// that a shard-trained model predicts with its persisted (manifest)
// normaliser and that `predict` never rebuilds the training suite, and
// covers the quality-observability surface: evaluate --quality-out, the
// `report` dashboard pair, and the crash flight recorder's dump on a
// fault-injected abort.
//
// The CLI binary path arrives as argv[1] (see tests/CMakeLists.txt), so
// this test provides its own main() instead of linking gtest_main.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#ifndef _WIN32
#include <sys/wait.h>
#endif

#include "circuit/spice_parser.h"
#include "circuit/spice_writer.h"
#include "core/serialize.h"
#include "dataset/shards.h"
#include "graph/hetero_graph.h"
#include "obs/json.h"

namespace {

using paragraph::obs::JsonValue;

std::string g_cli_path;

std::string read_file(const std::filesystem::path& p) {
  std::ifstream is(p, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    path = std::filesystem::temp_directory_path() / "paragraph_cli_smoke";
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

int run(const std::string& cmdline) {
  const int rc = std::system(cmdline.c_str());
  return rc;
}

// Exit status of the command (std::system wraps it in wait() encoding).
int exit_code(const std::string& cmdline) {
  const int rc = std::system(cmdline.c_str());
#ifdef _WIN32
  return rc;
#else
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
#endif
}

TEST(CliSmokeTest, TrainEmitsValidMetricsAndTrace) {
  ASSERT_FALSE(g_cli_path.empty()) << "CLI binary path must be passed as argv[1]";
  TempDir tmp;
  const auto model = (tmp.path / "model.bin").string();
  const auto metrics = (tmp.path / "metrics.json").string();
  const auto trace = (tmp.path / "trace.json").string();

  const std::string train_cmd = "\"" + g_cli_path + "\" train --save \"" + model +
                                "\" --scale 0.05 --epochs 3 --eval-every 2" +
                                " --metrics-out \"" + metrics + "\" --trace-out \"" + trace +
                                "\" > /dev/null 2>&1";
  ASSERT_EQ(run(train_cmd), 0) << train_cmd;
  ASSERT_TRUE(std::filesystem::exists(model));

  // Metrics document: parseable, with per-epoch records, phase-time
  // histograms carrying p50/p95/p99, and the hierarchical profile.
  std::string error;
  const auto mdoc = JsonValue::parse(read_file(metrics), &error);
  ASSERT_TRUE(mdoc.has_value()) << error;
  const JsonValue& epochs = mdoc->at("series").at("train.epochs");
  ASSERT_TRUE(epochs.is_array());
  ASSERT_EQ(epochs.size(), 3u);
  for (const JsonValue& rec : epochs.elements()) {
    EXPECT_TRUE(rec.at("epoch").is_number());
    EXPECT_TRUE(rec.at("loss").is_number());
    EXPECT_TRUE(rec.at("grad_norm").is_number());
    EXPECT_TRUE(rec.at("wall_ms").is_number());
    EXPECT_TRUE(rec.at("lr").is_number());
  }
  const JsonValue& evals = mdoc->at("series").at("train.eval");
  ASSERT_GE(evals.size(), 1u);
  EXPECT_TRUE(evals[0].at("test_r2").is_number());

  const JsonValue& hists = mdoc->at("histograms");
  ASSERT_NE(hists.find("train.epoch_ms"), nullptr);
  bool saw_phase_hist = false;
  for (const auto& [name, h] : hists.items()) {
    EXPECT_TRUE(h.at("p50").is_number()) << name;
    EXPECT_TRUE(h.at("p95").is_number()) << name;
    EXPECT_TRUE(h.at("p99").is_number()) << name;
    if (name.rfind("time/", 0) == 0) saw_phase_hist = true;
  }
  EXPECT_TRUE(saw_phase_hist);

  const JsonValue& profile = mdoc->at("profile");
  ASSERT_TRUE(profile.is_object());
  ASSERT_NE(profile.find("train"), nullptr);
  EXPECT_EQ(profile.at("train").at("count").as_int(), 1);
  ASSERT_NE(profile.find("train/epoch"), nullptr);
  EXPECT_EQ(profile.at("train/epoch").at("count").as_int(), 3);

  // Trace document: the Chrome trace-event shape.
  const auto tdoc = JsonValue::parse(read_file(trace), &error);
  ASSERT_TRUE(tdoc.has_value()) << error;
  const JsonValue& events = tdoc->at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_GE(events.size(), 4u);
  bool saw_epoch = false;
  for (const JsonValue& e : events.elements()) {
    EXPECT_TRUE(e.at("name").is_string());
    EXPECT_TRUE(e.at("ts").is_number());
    if (e.at("name").as_string() == "epoch") saw_epoch = true;
  }
  EXPECT_TRUE(saw_epoch);

  // evaluate must reconstruct the dataset from the persisted scale — no
  // --scale on the command line.
  const std::string eval_cmd =
      "\"" + g_cli_path + "\" evaluate --model \"" + model + "\" > /dev/null 2>&1";
  EXPECT_EQ(run(eval_cmd), 0) << eval_cmd;
}

// The documented exit-code taxonomy: 2 = usage, 3 = bad input/artifact,
// 4 = training diverged, 1 = internal. Scripts branch on these.
TEST(CliSmokeTest, ExitCodeTaxonomy) {
  ASSERT_FALSE(g_cli_path.empty());
  TempDir tmp;
  const std::string quiet = " > /dev/null 2>&1";

  // Usage errors -> 2.
  EXPECT_EQ(exit_code("\"" + g_cli_path + "\"" + quiet), 2);
  EXPECT_EQ(exit_code("\"" + g_cli_path + "\" frobnicate" + quiet), 2);
  EXPECT_EQ(exit_code("\"" + g_cli_path + "\" train" + quiet), 2);  // no --save
  EXPECT_EQ(exit_code("\"" + g_cli_path + "\" train --save x --target NOPE" + quiet), 2);
  EXPECT_EQ(exit_code("\"" + g_cli_path + "\" train --save x --threads 0" + quiet), 2);

  // Bad input / corrupt artifact -> 3.
  const auto model = (tmp.path / "model.bin").string();
  EXPECT_EQ(exit_code("\"" + g_cli_path + "\" evaluate --model /nonexistent/model.bin" + quiet),
            3);
  std::ofstream(model) << "corrupt model bytes";
  EXPECT_EQ(exit_code("\"" + g_cli_path + "\" evaluate --model \"" + model + "\"" + quiet), 3);
  const auto deck = (tmp.path / "bad.sp").string();
  std::ofstream(deck) << "Zq a b c\n";
  EXPECT_EQ(exit_code("\"" + g_cli_path + "\" annotate --netlist \"" + deck + "\"" + quiet), 3);
  EXPECT_EQ(
      exit_code("\"" + g_cli_path + "\" train --save x --resume /nonexistent/run.ckpt" + quiet),
      3);

  // Training divergence (every step's loss poisoned via the
  // deterministic fault harness) -> 4.
  const auto diverged = (tmp.path / "diverged.bin").string();
  EXPECT_EQ(exit_code("PARAGRAPH_FAULT=train.loss:1+ \"" + g_cli_path + "\" train --save \"" +
                      diverged + "\" --scale 0.05 --epochs 2" + quiet),
            4);
}

// --checkpoint-every / --resume: an interrupted run (simulated process
// death via PARAGRAPH_FAULT=train.epoch:N) resumed from its checkpoint
// must produce a bit-identical model file.
TEST(CliSmokeTest, KillAndResumeProducesIdenticalModel) {
  ASSERT_FALSE(g_cli_path.empty());
  TempDir tmp;
  const std::string quiet = " > /dev/null 2>&1";
  const std::string common = " --scale 0.05 --epochs 4 --seed 7";
  const auto full = (tmp.path / "full.bin").string();
  const auto interrupted = (tmp.path / "int.bin").string();
  const auto resumed = (tmp.path / "resumed.bin").string();

  ASSERT_EQ(exit_code("\"" + g_cli_path + "\" train --save \"" + full + "\"" + common + quiet),
            0);
  ASSERT_EQ(exit_code("PARAGRAPH_FAULT=train.epoch:2 \"" + g_cli_path + "\" train --save \"" +
                      interrupted + "\"" + common + " --checkpoint-every 1" + quiet),
            3);
  EXPECT_FALSE(std::filesystem::exists(interrupted));  // died before save
  ASSERT_TRUE(std::filesystem::exists(interrupted + ".ckpt"));
  ASSERT_EQ(exit_code("\"" + g_cli_path + "\" train --save \"" + resumed + "\" --resume \"" +
                      interrupted + ".ckpt\"" + quiet),
            0);
  EXPECT_EQ(read_file(full), read_file(resumed));
}

// Out-of-core flow: `dataset pack` emits a paragraph-shard-v1 directory,
// train/evaluate --shards stream from it, and the streamed model file is
// bit-identical to the in-memory run on the same seed/scale. A tight
// --max-resident-mb proves the budget path; shard corruption maps to
// exit code 3 (bad artifact).
TEST(CliSmokeTest, ShardPackTrainEvaluateRoundTrip) {
  ASSERT_FALSE(g_cli_path.empty());
  TempDir tmp;
  const std::string quiet = " > /dev/null 2>&1";
  const auto shards = (tmp.path / "shards").string();
  const auto mem_model = (tmp.path / "mem.bin").string();
  const auto str_model = (tmp.path / "str.bin").string();
  const std::string common = " --scale 0.05 --epochs 3 --seed 7";

  ASSERT_EQ(exit_code("\"" + g_cli_path + "\" dataset pack --out \"" + shards +
                      "\" --scale 0.05 --seed 7" + quiet),
            0);
  ASSERT_TRUE(std::filesystem::exists(shards + "/manifest.json"));

  ASSERT_EQ(
      exit_code("\"" + g_cli_path + "\" train --save \"" + mem_model + "\"" + common + quiet), 0);
  ASSERT_EQ(exit_code("\"" + g_cli_path + "\" train --save \"" + str_model + "\" --shards \"" +
                      shards + "\" --max-resident-mb 4" + common + quiet),
            0);
  EXPECT_EQ(read_file(mem_model), read_file(str_model));

  EXPECT_EQ(exit_code("\"" + g_cli_path + "\" evaluate --model \"" + str_model +
                      "\" --shards \"" + shards + "\" --max-resident-mb 4" + quiet),
            0);
  // Usage errors: bad budget, quality-out with shards.
  EXPECT_EQ(exit_code("\"" + g_cli_path + "\" evaluate --model \"" + str_model +
                      "\" --shards \"" + shards + "\" --max-resident-mb 0" + quiet),
            2);
  EXPECT_EQ(exit_code("\"" + g_cli_path + "\" evaluate --model \"" + str_model +
                      "\" --shards \"" + shards + "\" --quality-out x.json" + quiet),
            2);
  // Corrupting a shard surfaces as a bad-artifact failure (3).
  {
    std::fstream f(shards + "/test_00000.shard",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(128);
    f.put('\x7f');
  }
  EXPECT_EQ(exit_code("\"" + g_cli_path + "\" evaluate --model \"" + str_model +
                      "\" --shards \"" + shards + "\"" + quiet),
            3);
}

// Regression for shard-trained models: `train --shards` records the CLI's
// default seed/scale (42, 0.25), not the packed suite's (7, 0.1), so a
// normaliser rebuilt from the recorded values would be the wrong one. The
// model file carries the manifest's normaliser instead; `predict` output
// must be byte-identical to an in-process prediction with it, and the
// cold predict path must not rebuild any dataset.
TEST(CliSmokeTest, ShardTrainedModelPredictsWithManifestNormalizer) {
  namespace pg = paragraph;
  ASSERT_FALSE(g_cli_path.empty());
  TempDir tmp;
  const std::string quiet = " > /dev/null 2>&1";
  const std::string cli = "\"" + g_cli_path + "\"";
  const auto shards = (tmp.path / "shards").string();
  const auto model = (tmp.path / "shard_model.bin").string();
  const auto deck = (tmp.path / "deck.sp").string();
  const auto out = (tmp.path / "predict.txt").string();
  const auto metrics = (tmp.path / "predict_metrics.json").string();

  ASSERT_EQ(exit_code(cli + " dataset pack --out \"" + shards + "\" --seed 7 --scale 0.1" + quiet),
            0);
  ASSERT_EQ(exit_code(cli + " train --save \"" + model + "\" --shards \"" + shards +
                      "\" --epochs 2" + quiet),
            0);
  pg::dataset::ShardStore store(shards);
  {
    std::ofstream f(deck);
    pg::circuit::write_spice(f, store.test(0)->netlist, {});
  }
  ASSERT_EQ(exit_code(cli + " predict --model \"" + model + "\" --netlist \"" + deck +
                      "\" > \"" + out + "\" 2>/dev/null"),
            0);

  pg::core::GnnPredictor reference = pg::core::load_predictor(model);
  ASSERT_EQ(reference.config().seed, 42u);  // the recorded seed is not the suite's
  reference.set_normalizer(store.normalizer());
  pg::dataset::Sample sample;
  sample.netlist = pg::circuit::parse_spice_file(deck);
  sample.graph = pg::graph::build_graph(sample.netlist);
  const std::vector<float> preds = reference.predict_all(sample);
  const auto target = reference.config().target;
  std::string want = std::string("# ") + pg::dataset::target_name(target) + " predictions for " +
                     deck + "\n";
  std::size_t k = 0;
  for (const auto nt : pg::dataset::target_node_types(target)) {
    for (const auto origin : sample.graph.origins(nt)) {
      const std::string& name = nt == pg::graph::NodeType::kNet
                                    ? sample.netlist.net(origin).name
                                    : sample.netlist.device(origin).name;
      char line[256];
      std::snprintf(line, sizeof line, "%-32s %g\n", name.c_str(), preds[k++]);
      want += line;
    }
  }
  ASSERT_GT(k, 0u);
  EXPECT_EQ(read_file(out), want);

  // The cold predict profile has the forward pass and no dataset build.
  ASSERT_EQ(exit_code(cli + " predict --model \"" + model + "\" --netlist \"" + deck +
                      "\" --metrics-out \"" + metrics + "\"" + quiet),
            0);
  std::string error;
  const auto doc = JsonValue::parse(read_file(metrics), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue& profile = doc->at("profile");
  EXPECT_NE(profile.find("predict"), nullptr);
  for (const auto& [path, node] : profile.items())
    EXPECT_EQ(path.find("dataset_build"), std::string::npos) << path;
}

// evaluate --quality-out must emit a valid paragraph-quality-v1 block,
// and `report` must join the model + dataset into the JSON + Markdown
// dashboard pair.
TEST(CliSmokeTest, QualityOutAndReportArtifacts) {
  ASSERT_FALSE(g_cli_path.empty());
  TempDir tmp;
  const std::string quiet = " > /dev/null 2>&1";
  const auto model = (tmp.path / "model.bin").string();
  const auto quality = (tmp.path / "quality.json").string();
  const auto metrics = (tmp.path / "metrics.json").string();
  const auto prefix = (tmp.path / "report").string();

  ASSERT_EQ(exit_code("\"" + g_cli_path + "\" train --save \"" + model +
                      "\" --scale 0.05 --epochs 2 --seed 7" + quiet),
            0);
  ASSERT_EQ(exit_code("\"" + g_cli_path + "\" evaluate --model \"" + model +
                      "\" --quality-out \"" + quality + "\" --metrics-out \"" + metrics + "\"" +
                      quiet),
            0);

  std::string error;
  const auto qdoc = JsonValue::parse(read_file(quality), &error);
  ASSERT_TRUE(qdoc.has_value()) << error;
  EXPECT_EQ(qdoc->at("schema").as_string(), "paragraph-quality-v1");
  EXPECT_GT(qdoc->at("pairs").as_int(), 0);
  const JsonValue& dims = qdoc->at("dimensions");
  ASSERT_NE(dims.find("decade"), nullptr);
  ASSERT_NE(dims.find("target"), nullptr);
  ASSERT_NE(dims.find("edge_type"), nullptr);
  ASSERT_FALSE(qdoc->at("worst_nets").size() == 0u);

  // The metrics document must carry the drift and quality gauges.
  const auto mdoc = JsonValue::parse(read_file(metrics), &error);
  ASSERT_TRUE(mdoc.has_value()) << error;
  const JsonValue& gauges = mdoc->at("gauges");
  ASSERT_NE(gauges.find("drift.max"), nullptr);
  ASSERT_NE(gauges.find("quality.pairs"), nullptr);

  // report: exactly one of --model/--ensemble, --out required -> usage 2.
  EXPECT_EQ(exit_code("\"" + g_cli_path + "\" report --out \"" + prefix + "\"" + quiet), 2);
  EXPECT_EQ(exit_code("\"" + g_cli_path + "\" report --model \"" + model + "\"" + quiet), 2);
  ASSERT_EQ(exit_code("\"" + g_cli_path + "\" report --model \"" + model + "\" --prior \"" +
                      metrics + "\" --out \"" + prefix + "\"" + quiet),
            0);
  const auto rdoc = JsonValue::parse(read_file(prefix + ".json"), &error);
  ASSERT_TRUE(rdoc.has_value()) << error;
  EXPECT_EQ(rdoc->at("schema").as_string(), "paragraph-quality-v1");
  ASSERT_NE(rdoc->find("drift"), nullptr);
  const std::string md = read_file(prefix + ".md");
  EXPECT_NE(md.find("# ParaGraph quality report"), std::string::npos);
  EXPECT_NE(md.find("prior"), std::string::npos);

  // A prior that is not JSON is a bad input -> 3.
  const auto bad_prior = (tmp.path / "bad_prior.json").string();
  std::ofstream(bad_prior) << "not json";
  EXPECT_EQ(exit_code("\"" + g_cli_path + "\" report --model \"" + model + "\" --prior \"" +
                      bad_prior + "\" --out \"" + prefix + "2\"" + quiet),
            3);
}

// A fault-injected abort mid-train must leave a parseable
// crash-<pid>.json naming the active CLI command phase.
TEST(CliSmokeTest, CrashDumpNamesActivePhase) {
  ASSERT_FALSE(g_cli_path.empty());
  TempDir tmp;
  const auto model = (tmp.path / "model.bin").string();
  const std::string cmd = "PARAGRAPH_FAULT=train.crash:1 PARAGRAPH_CRASH_DIR=\"" +
                          tmp.path.string() + "\" \"" + g_cli_path + "\" train --save \"" +
                          model + "\" --scale 0.05 --epochs 2 > /dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
#ifndef _WIN32
  // The process must die abnormally (SIGABRT re-raised after the dump).
  EXPECT_FALSE(WIFEXITED(rc) && WEXITSTATUS(rc) == 0);
#endif

  std::filesystem::path dump;
  for (const auto& entry : std::filesystem::directory_iterator(tmp.path)) {
    const auto name = entry.path().filename().string();
    if (name.rfind("crash-", 0) == 0 && name.find(".json") != std::string::npos)
      dump = entry.path();
  }
  ASSERT_FALSE(dump.empty()) << "no crash-<pid>.json in " << tmp.path;

  std::string error;
  const auto doc = JsonValue::parse(read_file(dump), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->at("schema").as_string(), "paragraph-crash-v1");
  EXPECT_EQ(doc->at("reason").as_string(), "fatal-signal");
  EXPECT_GT(doc->at("signal").as_int(), 0);
  bool saw_train_phase = false;
  for (const auto& p : doc->at("phase_stack").elements())
    if (p.as_string() == "cmd:train") saw_train_phase = true;
  EXPECT_TRUE(saw_train_phase) << "phase stack missing cmd:train";
  EXPECT_GT(doc->at("events").size(), 0u);
}

// The serving daemon from the operator's side: `paragraph serve` in the
// background, `paragraph client` round-trips, exit 3 when the socket is
// already owned by a live server, SIGHUP hot-reload with zero failed
// requests, and a SIGTERM drain that exits 0.
TEST(CliSmokeTest, ServeDaemonLifecycle) {
  ASSERT_FALSE(g_cli_path.empty());
  TempDir tmp;
  const std::string quiet = " > /dev/null 2>&1";
  const auto model = (tmp.path / "model.bin").string();
  const auto sock = (tmp.path / "serve.sock").string();
  const auto pidfile = (tmp.path / "serve.pid").string();
  const auto rcfile = (tmp.path / "serve.rc").string();
  const auto deck = (tmp.path / "deck.sp").string();
  std::ofstream(deck) << "M1 out in vss vss nmos L=16n W=32n\n"
                         "M2 out in vdd vdd pmos L=16n W=64n\n"
                         "C1 out vss 1f\n";

  ASSERT_EQ(exit_code("\"" + g_cli_path + "\" train --save \"" + model +
                      "\" --scale 0.05 --epochs 2 --seed 7" + quiet),
            0);

  // No server yet: the client fails with the bad-input exit code.
  EXPECT_EQ(exit_code("\"" + g_cli_path + "\" client --socket \"" + sock + "\" --admin stats" +
                      quiet),
            3);

  // Launch the daemon detached; a nursing shell records its pid and,
  // once it exits, its exit code.
  ASSERT_EQ(run("( \"" + g_cli_path + "\" serve --socket \"" + sock + "\" --model \"" + model +
                "\" > \"" + tmp.path.string() + "/serve.log\" 2>&1 & echo $! > \"" + pidfile +
                "\"; wait $!; echo $? > \"" + rcfile + "\" ) &"),
            0);
  const std::string stats_cmd =
      "\"" + g_cli_path + "\" client --socket \"" + sock + "\" --admin stats";
  bool up = false;
  for (int i = 0; i < 200 && !up; ++i) {
    up = exit_code(stats_cmd + quiet) == 0;
    if (!up) run("sleep 0.1");
  }
  ASSERT_TRUE(up) << read_file(tmp.path / "serve.log");

  // One prediction round-trip through the real CLI client.
  EXPECT_EQ(exit_code("\"" + g_cli_path + "\" client --socket \"" + sock + "\" --netlist \"" +
                      deck + "\" --priority high" + quiet),
            0);
  // A server-side error response (unparseable netlist) exits 3.
  const auto bad_deck = (tmp.path / "bad.sp").string();
  std::ofstream(bad_deck) << "Zq bogus card\n";
  EXPECT_EQ(exit_code("\"" + g_cli_path + "\" client --socket \"" + sock + "\" --netlist \"" +
                      bad_deck + "\"" + quiet),
            3);

  // The socket is owned by a live server: a rival serve must exit 3.
  EXPECT_EQ(exit_code("\"" + g_cli_path + "\" serve --socket \"" + sock + "\" --model \"" +
                      model + "\"" + quiet),
            3);

  // SIGHUP hot-reload while requests keep flowing: every request after
  // the signal still succeeds, and stats confirm the generation swap.
  ASSERT_EQ(run("kill -HUP $(cat \"" + pidfile + "\")"), 0);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(exit_code("\"" + g_cli_path + "\" client --socket \"" + sock + "\" --netlist \"" +
                        deck + "\"" + quiet),
              0);
  const auto stats_json = (tmp.path / "stats.json").string();
  ASSERT_EQ(exit_code(stats_cmd + " > \"" + stats_json + "\" 2>/dev/null"), 0);
  std::string error;
  const auto sdoc = JsonValue::parse(read_file(stats_json), &error);
  ASSERT_TRUE(sdoc.has_value()) << error;
  EXPECT_EQ(sdoc->at("stats").at("server").at("reloads").as_int(), 1);
  EXPECT_EQ(sdoc->at("stats").at("schema").as_string(), "paragraph-stats-v1");
  EXPECT_GE(sdoc->at("model_generation").as_int(), 2);

  // healthz from the operator's side: healthy after the reload.
  const auto health_json = (tmp.path / "health.json").string();
  ASSERT_EQ(exit_code("\"" + g_cli_path + "\" client --socket \"" + sock +
                      "\" --admin healthz > \"" + health_json + "\" 2>/dev/null"),
            0);
  const auto hdoc = JsonValue::parse(read_file(health_json), &error);
  ASSERT_TRUE(hdoc.has_value()) << error;
  EXPECT_EQ(hdoc->at("health").at("status").as_string(), "ok");

  // client --json: one machine-readable envelope with the round-tripped
  // request id; a server-side error keeps exit 3 but still emits it.
  const auto envelope = (tmp.path / "envelope.json").string();
  ASSERT_EQ(exit_code("\"" + g_cli_path + "\" client --socket \"" + sock + "\" --netlist \"" +
                      deck + "\" --request-id cli-json-1 --json > \"" + envelope +
                      "\" 2>/dev/null"),
            0);
  const auto edoc = JsonValue::parse(read_file(envelope), &error);
  ASSERT_TRUE(edoc.has_value()) << error;
  EXPECT_TRUE(edoc->at("ok").as_bool());
  EXPECT_EQ(edoc->at("request_id").as_string(), "cli-json-1");
  EXPECT_TRUE(edoc->at("latency_ms").is_number());
  EXPECT_GE(edoc->at("model_generation").as_int(), 2);
  ASSERT_NE(edoc->find("predictions"), nullptr);
  EXPECT_EQ(exit_code("\"" + g_cli_path + "\" client --socket \"" + sock + "\" --netlist \"" +
                      bad_deck + "\" --json > \"" + envelope + "\" 2>/dev/null"),
            3);
  const auto baddoc = JsonValue::parse(read_file(envelope), &error);
  ASSERT_TRUE(baddoc.has_value()) << error;
  EXPECT_FALSE(baddoc->at("ok").as_bool());
  EXPECT_EQ(baddoc->at("error_code").as_string(), "parse_error");

  // top --once --json: one stats document per poll, script-consumable.
  const auto top_json = (tmp.path / "top.json").string();
  ASSERT_EQ(exit_code("\"" + g_cli_path + "\" top --socket \"" + sock + "\" --once --json > \"" +
                      top_json + "\" 2>/dev/null"),
            0);
  const auto topdoc = JsonValue::parse(read_file(top_json), &error);
  ASSERT_TRUE(topdoc.has_value()) << error;
  EXPECT_EQ(topdoc->at("schema").as_string(), "paragraph-stats-v1");
  EXPECT_GT(topdoc->at("server").at("responses").as_int(), 0);
  // The human rendering exits clean too and mentions the SLO line.
  const auto top_txt = (tmp.path / "top.txt").string();
  ASSERT_EQ(exit_code("\"" + g_cli_path + "\" top --socket \"" + sock + "\" --once > \"" +
                      top_txt + "\" 2>/dev/null"),
            0);
  EXPECT_NE(read_file(top_txt).find("slo:"), std::string::npos);
  // Usage errors: bad interval, neither/both transports.
  EXPECT_EQ(exit_code("\"" + g_cli_path + "\" top --socket \"" + sock +
                      "\" --once --interval-ms 0" + quiet),
            2);
  EXPECT_EQ(exit_code("\"" + g_cli_path + "\" top --once" + quiet), 2);

  // SIGTERM: drain and exit 0 (the nursing shell writes the exit code).
  ASSERT_EQ(run("kill -TERM $(cat \"" + pidfile + "\")"), 0);
  bool exited = false;
  for (int i = 0; i < 200 && !exited; ++i) {
    exited = std::filesystem::exists(rcfile);
    if (!exited) run("sleep 0.1");
  }
  ASSERT_TRUE(exited) << "server did not exit after SIGTERM";
  std::istringstream rc_in(read_file(rcfile));
  int rc = -1;
  rc_in >> rc;
  EXPECT_EQ(rc, 0) << read_file(tmp.path / "serve.log");
  EXPECT_FALSE(std::filesystem::exists(sock)) << "socket file must be unlinked on shutdown";
}

// A daemon that aborts mid-batch (fault site serve.crash) must leave a
// crash dump whose flight-recorder events name the in-flight request id:
// the operator learns *which* requests died, not just that the worker
// did.
TEST(CliSmokeTest, ServeCrashDumpNamesInflightRequests) {
  ASSERT_FALSE(g_cli_path.empty());
  TempDir tmp;
  const std::string quiet = " > /dev/null 2>&1";
  const auto model = (tmp.path / "model.bin").string();
  const auto sock = (tmp.path / "crash.sock").string();
  const auto deck = (tmp.path / "deck.sp").string();
  std::ofstream(deck) << "M1 out in vss vss nmos L=16n W=32n\n"
                         "C1 out vss 1f\n";
  ASSERT_EQ(exit_code("\"" + g_cli_path + "\" train --save \"" + model +
                      "\" --scale 0.05 --epochs 2 --seed 7" + quiet),
            0);

  ASSERT_EQ(run("PARAGRAPH_FAULT=serve.crash:1 PARAGRAPH_CRASH_DIR=\"" + tmp.path.string() +
                "\" \"" + g_cli_path + "\" serve --socket \"" + sock + "\" --model \"" + model +
                "\" > \"" + tmp.path.string() + "/serve.log\" 2>&1 &"),
            0);
  // Admin commands answer on the reader thread, so readiness polling does
  // not trip the worker-side fault.
  bool up = false;
  for (int i = 0; i < 200 && !up; ++i) {
    up = exit_code("\"" + g_cli_path + "\" client --socket \"" + sock + "\" --admin stats" +
                   quiet) == 0;
    if (!up) run("sleep 0.1");
  }
  ASSERT_TRUE(up) << read_file(tmp.path / "serve.log");

  // The first prediction pops a batch and aborts the daemon; the client
  // sees the connection drop (bad input, exit 3).
  EXPECT_EQ(exit_code("\"" + g_cli_path + "\" client --socket \"" + sock + "\" --netlist \"" +
                      deck + "\" --request-id crash-rid-1" + quiet),
            3);

  std::filesystem::path dump;
  for (int i = 0; i < 200 && dump.empty(); ++i) {
    for (const auto& entry : std::filesystem::directory_iterator(tmp.path)) {
      const auto name = entry.path().filename().string();
      if (name.rfind("crash-", 0) == 0 && name.find(".json") != std::string::npos)
        dump = entry.path();
    }
    if (dump.empty()) run("sleep 0.1");
  }
  ASSERT_FALSE(dump.empty()) << "no crash-<pid>.json in " << tmp.path;

  std::string error;
  const auto doc = JsonValue::parse(read_file(dump), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->at("schema").as_string(), "paragraph-crash-v1");
  bool named_request = false;
  for (const auto& e : doc->at("events").elements()) {
    const JsonValue* msg = e.find("message");
    if (msg != nullptr && msg->is_string() &&
        msg->as_string().find("begin crash-rid-1") != std::string::npos)
      named_request = true;
  }
  EXPECT_TRUE(named_request) << "crash dump events must name the in-flight request id";
}

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc > 1) g_cli_path = argv[1];
  return RUN_ALL_TESTS();
}
