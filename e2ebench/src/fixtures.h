// Fixture artifacts, in-process reference predictions, and the comparison
// of the program's outputs against them.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/ensemble.h"
#include "core/predictor.h"
#include "dataset/dataset.h"
#include "obs/json.h"

namespace e2ebench {

// Predictions keyed by node name, in the order the CLI and the daemon
// print them (target node types, then graph origin order).
using NamedValues = std::vector<std::pair<std::string, double>>;

paragraph::core::PredictorConfig fixture_config();

// One CAP model at the fixture settings, trained on `ds`.
paragraph::core::GnnPredictor train_fixture_model(const paragraph::dataset::SuiteDataset& ds);

// The paper's 4-member Algorithm 2 ensemble (max_v 1 fF / 10 fF / 100 fF /
// 10 pF) at the fixture settings, trained on `ds`.
paragraph::core::CapEnsemble train_fixture_ensemble(const paragraph::dataset::SuiteDataset& ds);

// Parse + graph build, as `paragraph predict` and the daemon do.
paragraph::dataset::Sample sample_from_text(const std::string& spice);

NamedValues named_values(const paragraph::dataset::Sample& sample,
                         paragraph::dataset::TargetKind target, const std::vector<float>& preds);

// True when both lists name the same nodes in the same order and every
// value is within tolerance. `why` receives the first mismatch.
bool same_predictions(const NamedValues& got, const NamedValues& ref, std::string* why);

// Parses `paragraph predict` stdout ("# header" line, then "name value";
// the lines --metrics-out and --mem-stats add are skipped).
NamedValues parse_cli_output(const std::string& out);

void write_file(const std::string& path, const std::string& text);

// Parses a JSON file the program wrote (a --metrics-out document); throws
// when it is missing or malformed.
paragraph::obs::JsonValue read_json_file(const std::string& path);

// One node of the program's phase profile (the "profile" object of a
// --metrics-out document): call count and total ms. Zero when absent.
struct ProfileNode {
  double count = 0.0;
  double total_ms = 0.0;
};
ProfileNode profile_node(const paragraph::obs::JsonValue& doc, const std::string& path);

}  // namespace e2ebench
