// Quality-report assembly: joins a trained model (or CAP ensemble), a
// set of test circuits, and optional prior metrics into the `paragraph-quality-v1`
// JSON block and its human-readable Markdown rendering.
//
// collect_quality walks an evaluation's predictions and buckets every
// (truth, pred) pair along the report dimensions — cap decade, target
// kind, edge-type context (which terminal relations the node touches),
// and answering ensemble member — plus the Algorithm 2 calibration table
// and worst-net provenance. The accounting is plain arithmetic over
// results the evaluation already produced, so enabling it adds almost
// nothing to evaluate wall time (guarded by tests/quality_test.cpp).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/ensemble.h"
#include "core/predictor.h"
#include "eval/quality.h"
#include "obs/json.h"
#include "obs/sketch.h"

namespace paragraph::core {

// Ensemble path: per-member attribution, calibration, overlap accounting.
// `out_result`, when non-null, receives the underlying EvalResult so
// callers don't evaluate twice.
eval::QualityAccumulator collect_quality(const CapEnsemble& ensemble,
                                         const std::vector<dataset::Sample>& samples,
                                         EvalResult* out_result = nullptr);

// Single-model path (any target kind; no member dimensions).
eval::QualityAccumulator collect_quality(const GnnPredictor& model,
                                         const std::vector<dataset::Sample>& samples,
                                         EvalResult* out_result = nullptr);

// Wraps the accumulator's quality-v1 block with the drift report (when
// available) and run metadata.
obs::JsonValue quality_report_json(const eval::QualityAccumulator& quality,
                                   const obs::DriftReport* drift,
                                   const std::string& model_path, const std::string& target_name,
                                   std::size_t num_circuits);

// Renders the Markdown dashboard from a quality-v1 JSON value (freshly
// built or reloaded from disk). `prior`, when given, is a prior metrics
// JSON (`--metrics-out` format); matching `quality.*` gauges are shown as
// a then-vs-now comparison.
std::string render_quality_markdown(const obs::JsonValue& report, const obs::JsonValue* prior);

}  // namespace paragraph::core
