#include "core/ensemble.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/serialize.h"
#include "gnn/plan.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "runtime/thread_pool.h"
#include "util/atomic_file.h"
#include "util/errors.h"

namespace paragraph::core {

using dataset::Sample;
using dataset::SuiteDataset;

namespace {

constexpr std::size_t kMaxMembers = 64;

std::string member_path(const std::string& manifest_path, std::size_t i) {
  return manifest_path + ".m" + std::to_string(i);
}

}  // namespace

CapEnsemble::CapEnsemble(const EnsembleConfig& config) : config_(config) {
  if (config_.max_vs_ff.size() < 2)
    throw std::invalid_argument("CapEnsemble: need at least two max_v values");
  for (std::size_t i = 1; i < config_.max_vs_ff.size(); ++i) {
    if (config_.max_vs_ff[i] <= config_.max_vs_ff[i - 1])
      throw std::invalid_argument("CapEnsemble: max_v values must be strictly ascending");
  }
  for (std::size_t i = 0; i < config_.max_vs_ff.size(); ++i) {
    PredictorConfig pc = config_.base;
    pc.target = dataset::TargetKind::kCap;
    pc.max_v_ff = config_.max_vs_ff[i];
    pc.seed = config_.base.seed + i * 101;
    models_.push_back(std::make_unique<GnnPredictor>(pc));
  }
}

void CapEnsemble::train(const SuiteDataset& ds) {
  PARAGRAPH_TIMED_SCOPE("ensemble_train");
  for (std::size_t i = 0; i < models_.size(); ++i) {
    PARAGRAPH_TIMED_SCOPE("member");
    obs::log_debug("ensemble", "training member",
                   {{"member", i}, {"max_v_ff", config_.max_vs_ff[i]}});
    models_[i]->train(ds);
  }
}

std::vector<float> CapEnsemble::predict(const Sample& sample, const PredictOptions& opts,
                                        MemberAttribution* attribution) const {
  // One plan serves every member; a member that needs the homogenised
  // view a caller's plan lacks builds its own (GnnPredictor::infer).
  PredictOptions member_opts = opts;
  gnn::GraphPlan shared;
  if (opts.plan == nullptr && opts.cache == nullptr) {
    shared = gnn::GraphPlan::build(sample.graph, needs_homo());
    member_opts.plan = &shared;
  }
  PARAGRAPH_TIMED_SCOPE("ensemble_combine");
  // Algorithm 2: start from the lowest-range model M1; move to model Mi
  // whenever Mi's prediction exceeds M(i-1)'s max prediction value.
  std::vector<float> p = models_[0]->predict_all(sample, member_opts);
  if (attribution != nullptr) {
    attribution->member.assign(p.size(), 0);
    attribution->pairs.assign(models_.size() - 1, {});
  }
  for (std::size_t i = 1; i < models_.size(); ++i) {
    const std::vector<float> pi = models_[i]->predict_all(sample, member_opts);
    const double prev_max = config_.max_vs_ff[i - 1];
    for (std::size_t n = 0; n < p.size(); ++n) {
      if (attribution != nullptr) {
        // The boundary hand-off: the lower cascade keeps the net inside
        // the previous range while the upper member escalates it out (or
        // vice versa).
        auto& pair = attribution->pairs[i - 1];
        ++pair.checked;
        if ((p[n] > prev_max) != (pi[n] > prev_max)) ++pair.disagreements;
      }
      if (pi[n] > prev_max) {
        p[n] = pi[n];
        if (attribution != nullptr) attribution->member[n] = static_cast<std::uint8_t>(i);
      }
    }
  }
  return p;
}

bool CapEnsemble::needs_homo() const {
  return std::ranges::any_of(models_, [](const auto& m) { return m->needs_homo(); });
}

void CapEnsemble::save(const std::string& path) const {
  // Members first, manifest last: the manifest is the commit point.
  for (std::size_t i = 0; i < models_.size(); ++i)
    save_predictor(*models_[i], member_path(path, i));
  std::ostringstream manifest;
  manifest << "paragraph-ensemble 1\n";
  manifest << "members " << models_.size() << "\n";
  util::write_file_atomic(path, manifest.str());
}

CapEnsemble CapEnsemble::load(const std::string& path) {
  const std::string text = read_artifact_file(path, "CapEnsemble::load", std::uint64_t{1} << 20);
  const std::string context = "CapEnsemble::load: '" + path + "'";
  std::istringstream in(text);
  std::string tag;
  int version = 0;
  std::string members_word;
  std::size_t count = 0;
  if (!(in >> tag >> version >> members_word >> count) || tag != "paragraph-ensemble" ||
      members_word != "members")
    throw util::CorruptArtifactError(context + ": not an ensemble manifest");
  if (version != 1)
    throw util::CorruptArtifactError(context + ": unsupported manifest version " +
                                     std::to_string(version));
  if (count < 1 || count > kMaxMembers)
    throw util::CorruptArtifactError(context + ": implausible member count " +
                                     std::to_string(count));

  CapEnsemble e;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string mp = member_path(path, i);
    try {
      auto model = std::make_unique<GnnPredictor>(load_predictor(mp));
      if (model->config().target != dataset::TargetKind::kCap)
        throw util::CorruptArtifactError("member '" + mp + "' is not a CAP model");
      e.models_.push_back(std::move(model));
    } catch (const util::IoError& ex) {
      obs::log_warn("ensemble", "member unreadable, skipping",
                    {{"member", i}, {"path", mp}, {"error", ex.what()}});
      e.degraded_ = true;
      e.dropped_.push_back({i, mp, ex.what()});
    } catch (const util::CorruptArtifactError& ex) {
      obs::log_warn("ensemble", "member corrupt, skipping",
                    {{"member", i}, {"path", mp}, {"error", ex.what()}});
      e.degraded_ = true;
      e.dropped_.push_back({i, mp, ex.what()});
    }
  }
  if (e.models_.empty())
    throw util::CorruptArtifactError(context + ": no usable member models");
  // The Algorithm 2 cascade needs strictly ascending ranges; rebuild the
  // range list from the survivors so a degraded ensemble stays coherent.
  e.config_.max_vs_ff.clear();
  for (const auto& m : e.models_) {
    const double mv = m->config().max_v_ff;
    if (!e.config_.max_vs_ff.empty() && mv <= e.config_.max_vs_ff.back())
      throw util::CorruptArtifactError(context + ": member ranges not strictly ascending");
    e.config_.max_vs_ff.push_back(mv);
  }
  e.config_.base = e.models_.front()->config();
  if (e.degraded_) {
    // Name every file at fault, not just the survivor count: an operator
    // reading one warn line must know which artifact to replace.
    std::string dropped_paths;
    for (const auto& d : e.dropped_) {
      if (!dropped_paths.empty()) dropped_paths += ", ";
      dropped_paths += d.path;
    }
    obs::log_warn("ensemble", "loaded degraded",
                  {{"loaded", e.models_.size()},
                   {"expected", count},
                   {"dropped", dropped_paths}});
  }
  if (obs::enabled())
    obs::MetricsRegistry::instance().gauge("ensemble.degraded").set(e.degraded_ ? 1.0 : 0.0);
  return e;
}

EvalResult CapEnsemble::evaluate(const std::vector<Sample>& samples,
                                 std::vector<MemberAttribution>* attributions) const {
  EvalResult result;
  result.circuits.resize(samples.size());
  if (attributions != nullptr) attributions->resize(samples.size());
  // One circuit per pool chunk (predict shares one plan across the K
  // member models). Results land at their sample index, so output order
  // matches the serial loop.
  runtime::parallel_for(samples.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t si = lo; si < hi; ++si) {
      const Sample& s = samples[si];
      CircuitPrediction cp;
      cp.name = s.name;
      cp.truth = s.target_values(dataset::TargetKind::kCap);
      cp.pred = predict(s, {}, attributions != nullptr ? &(*attributions)[si] : nullptr);
      result.circuits[si] = std::move(cp);
    }
  });
  return result;
}

}  // namespace paragraph::core
