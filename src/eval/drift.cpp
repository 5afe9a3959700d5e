#include "eval/drift.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/log.h"
#include "obs/metrics.h"

namespace paragraph::eval {

namespace {

// Monotonic decade-compressing transform; physical features (fanout,
// widths, areas) span orders of magnitude, and equal-width bins on the raw
// scale would park nearly all mass in one bin.
double signed_log1p(double v) {
  return v < 0.0 ? -std::log1p(-v) : std::log1p(v);
}

// Deterministic feature order: per-type feature columns in enum/column
// order, then whole-graph stats. The value callback receives every value
// of one named feature stream across all samples.
template <typename Fn>
void for_each_feature(std::span<const dataset::Sample> samples, Fn&& fn) {
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
    const auto type = static_cast<graph::NodeType>(t);
    const std::size_t dim = graph::feature_dim(type);
    for (std::size_t col = 0; col < dim; ++col) {
      const std::string name =
          std::string(graph::node_type_name(type)) + ".f" + std::to_string(col);
      fn(name, [&, col](auto&& emit) {
        for (const dataset::Sample& s : samples) {
          const nn::Matrix& feats = s.graph.features(type);
          for (std::size_t r = 0; r < feats.rows(); ++r)
            emit(signed_log1p(static_cast<double>(feats.row(r)[col])));
        }
      });
    }
  }
  const auto graph_stat = [&](const char* name, auto&& get) {
    fn(name, [&](auto&& emit) {
      for (const dataset::Sample& s : samples) emit(signed_log1p(get(s)));
    });
  };
  graph_stat("graph.total_nodes",
             [](const dataset::Sample& s) { return static_cast<double>(s.graph.total_nodes()); });
  graph_stat("graph.total_edges",
             [](const dataset::Sample& s) { return static_cast<double>(s.graph.total_edges()); });
  graph_stat("graph.nets", [](const dataset::Sample& s) {
    return static_cast<double>(s.graph.num_nodes(graph::NodeType::kNet));
  });
}

}  // namespace

std::vector<obs::FeatureSketch> sketch_graphs(std::span<const dataset::Sample> samples,
                                              const std::vector<obs::FeatureSketch>* ref,
                                              std::size_t nbins) {
  if (ref == nullptr) {
    SketchBuilder builder(nbins);
    for (const dataset::Sample& s : samples) builder.observe_range(s);
    builder.begin_fill();
    for (const dataset::Sample& s : samples) builder.observe_values(s);
    return builder.finish();
  }
  std::vector<obs::FeatureSketch> out;
  for_each_feature(samples, [&](const std::string& name, auto&& visit_values) {
    obs::FeatureSketch sketch(name);
    const auto it = std::find_if(ref->begin(), ref->end(), [&](const obs::FeatureSketch& r) {
      return r.name() == name;
    });
    if (it != ref->end()) sketch = obs::FeatureSketch::like(*it);
    visit_values([&](double v) { sketch.add(v); });
    out.push_back(std::move(sketch));
  });
  return out;
}

SketchBuilder::SketchBuilder(std::size_t nbins) : nbins_(nbins) {
  // The feature list does not depend on the samples, so an empty set
  // still yields one (degenerate) sketch per feature.
  for_each_feature({}, [&](const std::string& name, auto&&) { names_.push_back(name); });
  ranges_.resize(names_.size());
}

void SketchBuilder::observe_range(const dataset::Sample& s) {
  if (filling_) throw std::logic_error("SketchBuilder::observe_range after begin_fill");
  std::size_t idx = 0;
  for_each_feature(std::span(&s, 1), [&](const std::string&, auto&& visit_values) {
    Range& r = ranges_[idx++];
    visit_values([&](double v) {
      if (!r.seen) {
        r.lo = r.hi = v;
        r.seen = true;
      } else {
        r.lo = std::min(r.lo, v);
        r.hi = std::max(r.hi, v);
      }
    });
  });
}

void SketchBuilder::begin_fill() {
  sketches_.clear();
  for (std::size_t i = 0; i < ranges_.size(); ++i) {
    obs::FeatureSketch sk(names_[i]);
    const Range& r = ranges_[i];
    const double lo = r.seen ? r.lo : 0.0;
    const double hi = r.seen ? r.hi : 0.0;
    // A slightly widened span keeps the extremes of the fitting set out
    // of the overflow bins.
    const double pad = (hi - lo) * 0.05 + 1e-9;
    sk.configure_bins(lo - pad, hi + pad, nbins_);
    sketches_.push_back(std::move(sk));
  }
  filling_ = true;
}

void SketchBuilder::observe_values(const dataset::Sample& s) {
  if (!filling_) throw std::logic_error("SketchBuilder::observe_values before begin_fill");
  std::size_t idx = 0;
  for_each_feature(std::span(&s, 1), [&](const std::string&, auto&& visit_values) {
    obs::FeatureSketch& sk = sketches_[idx++];
    visit_values([&](double v) { sk.add(v); });
  });
}

std::vector<obs::FeatureSketch> SketchBuilder::finish() {
  filling_ = false;
  return std::move(sketches_);
}

obs::DriftReport check_drift(const std::vector<obs::FeatureSketch>& ref,
                             const std::vector<obs::FeatureSketch>& live,
                             double warn_threshold) {
  obs::DriftReport report = obs::score_drift(ref, live);
  auto& reg = obs::MetricsRegistry::instance();
  // Gauges carry the bias-corrected excess so every drift.* value is
  // directly comparable against the warn threshold (and drift.max).
  for (const obs::DriftScore& s : report.features) reg.gauge("drift." + s.feature).set(s.excess);
  reg.gauge("drift.max").set(report.max_psi);
  if (report.any() && report.max_psi >= warn_threshold) {
    obs::Logger::instance().log(
        obs::LogLevel::kWarn, "drift", "input distribution drift above threshold",
        {{"max_psi", report.max_psi},
         {"feature", report.max_feature},
         {"threshold", warn_threshold}});
  }
  return report;
}

}  // namespace paragraph::eval
