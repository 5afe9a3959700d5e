// Ensemble modeling for net parasitic capacitance (paper Section IV,
// Algorithm 2): K models trained with ascending max prediction values;
// a net's prediction comes from the highest-range model whose prediction
// exceeds the next-lower model's range. CapEnsemble::predict is the
// ensemble's one inference entry point: the members' predict_all
// (core/predictor.h) run under the caller's PredictOptions.
#pragma once

#include <memory>
#include <vector>

#include "core/predictor.h"

namespace paragraph::core {

// Which member answered each net under Algorithm 2, plus adjacent-member
// boundary statistics — the raw material for the quality report's
// per-member attribution and interval-overlap disagreement accounting.
struct MemberAttribution {
  // Winner per net, predict_all order (index into the member list).
  std::vector<std::uint8_t> member;
  // Per adjacent pair (k, k+1): over all nets, how often the two members
  // land on opposite sides of the k-th range boundary — i.e. the lower
  // member keeps the net inside its range while the upper one escalates
  // it past the boundary, or vice versa. High disagreement at a boundary
  // means the hand-off between those members is poorly calibrated.
  struct PairStats {
    std::uint64_t checked = 0;
    std::uint64_t disagreements = 0;
  };
  std::vector<PairStats> pairs;  // size num_models() - 1
};

struct EnsembleConfig {
  // Ascending max_v list in fF; paper: 1 fF, 10 fF, 100 fF, 10 pF.
  std::vector<double> max_vs_ff = {1.0, 10.0, 100.0, 1e4};
  // Template for the member models (target/max_v are overridden).
  PredictorConfig base;
};

class CapEnsemble {
 public:
  explicit CapEnsemble(const EnsembleConfig& config);

  // Trains all K member models on ds.train.
  void train(const dataset::SuiteDataset& ds);

  // Algorithm 2: per-net capacitance prediction [fF] for every net node,
  // a plain loop of GnnPredictor::predict_all over the members. Each member
  // applies its own normaliser (members may differ). `opts` is handed to
  // every member; when it names neither a plan nor a cache, one plan is
  // built (with the homogenised view when any member needs_homo()) and
  // shared across the members. `attribution`, when non-null,
  // receives the Algorithm 2 winner per net and the adjacent-member
  // boundary statistics.
  std::vector<float> predict(const dataset::Sample& sample, const PredictOptions& opts = {},
                             MemberAttribution* attribution = nullptr) const;

  // kept for e2ebench; delete when the harness moves
  std::vector<float> predict(const dataset::SuiteDataset&, const dataset::Sample& sample) const {
    return predict(sample);
  }
  // kept for e2ebench; delete when the harness moves
  std::vector<float> predict_with_plan(const dataset::SuiteDataset&, const dataset::Sample& sample,
                                       const gnn::GraphPlan& plan) const {
    return predict(sample, {.plan = &plan});
  }

  // Evaluates over the full truth range (no max_v filtering).
  // `attributions`, when non-null, receives one MemberAttribution per
  // sample (same order) — capture is a few comparisons per net, so the
  // quality-accounting path costs essentially nothing over the plain one.
  EvalResult evaluate(const std::vector<dataset::Sample>& samples,
                      std::vector<MemberAttribution>* attributions = nullptr) const;

  std::size_t num_models() const { return models_.size(); }
  const GnnPredictor& model(std::size_t i) const { return *models_.at(i); }
  // True when any member needs the homogenised view, so one GraphPlan
  // built with it fits every member.
  bool needs_homo() const;
  const std::vector<double>& max_vs_ff() const { return config_.max_vs_ff; }

  // Persists the ensemble: each member model goes to `path`.m<i> (model
  // file format) and a small manifest to `path`. Members are written
  // before the manifest, and every write is atomic, so a crash mid-save
  // never publishes a manifest pointing at missing members. Throws
  // util::IoError on I/O failure.
  void save(const std::string& path) const;

  // Loads a saved ensemble. A member whose file is missing or corrupt is
  // skipped with a warning and Algorithm 2 runs over the surviving ranges
  // (graceful degradation; `degraded()` reports it). Throws
  // util::CorruptArtifactError when the manifest is damaged, a surviving
  // member is not a CAP model, the ranges are not strictly ascending, or
  // no member survives; util::IoError when the manifest is unreadable.
  static CapEnsemble load(const std::string& path);

  // True when load() had to drop at least one member.
  bool degraded() const { return degraded_; }

  // Which member files load() dropped and why — the degraded-mode warning
  // and the serve daemon's stats both name the exact artifact at fault.
  struct DroppedMember {
    std::size_t index = 0;  // manifest position
    std::string path;
    std::string error;
  };
  const std::vector<DroppedMember>& dropped_members() const { return dropped_; }

 private:
  CapEnsemble() = default;

  EnsembleConfig config_;
  std::vector<std::unique_ptr<GnnPredictor>> models_;  // ascending max_v
  bool degraded_ = false;
  std::vector<DroppedMember> dropped_;
};

}  // namespace paragraph::core
