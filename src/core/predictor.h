// ParaGraph predictor: embedding model + FC regression head, target
// scaling, and the training/evaluation loop. This is the paper's primary
// contribution assembled from the substrates. Every prediction goes
// through one entry point, GnnPredictor::predict_all(sample,
// PredictOptions), whose options choose only how the graph plan is
// obtained (shared plan, PlanCache or a fresh one), never the values.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "dataset/dataset.h"
#include "eval/metrics.h"
#include "gnn/models.h"
#include "obs/sketch.h"

namespace paragraph::gnn {
class PlanCache;  // gnn/plan_cache.h
}
namespace paragraph::dataset {
class ShardStore;  // dataset/shards.h
}

namespace paragraph::core {

// How an inference call obtains its graph plan; the predictions are the
// same bytes whichever is used (gnn/plan_cache.h explains why for the
// cache). `cache` is tried first: when it accepts the sample's hierarchy,
// memoized per-template plans and interior embeddings are reused and the
// model runs only on the reduced graph. Otherwise `plan` is used if it fits
// the model (built with the homogenised view, or the model does not need
// one), and otherwise one plan is built for the call.
struct PredictOptions {
  const gnn::GraphPlan* plan = nullptr;
  gnn::PlanCache* cache = nullptr;
};

struct PredictorConfig {
  gnn::ModelKind model = gnn::ModelKind::kParaGraph;
  dataset::TargetKind target = dataset::TargetKind::kCap;
  std::size_t embed_dim = 32;  // paper: F = 32
  std::size_t num_layers = 5;  // paper: L = 5
  // Attention heads for the ParaGraph variants. The paper used 1 (GPU
  // memory bound) and conjectured more would help; see
  // bench_ext_multihead.
  std::size_t attention_heads = 1;
  // FC head depth; the paper uses 4 for CAP and 2 for device parameters.
  // 0 = pick the paper default for the target.
  std::size_t fc_layers = 0;
  // CAP only: maximum prediction value in fF. Training points above it are
  // dropped (Section IV); evaluation is restricted to truth <= max_v.
  double max_v_ff = 1e7;  // 10 pF
  int epochs = 150;
  float learning_rate = 0.01f;  // paper: ADAM with lr = 0.01
  // Global gradient-norm clip; stabilises the attention models on full-
  // graph batches (0 disables).
  float grad_clip = 1.0f;
  // Cosine learning-rate decay to lr * lr_final_fraction over the run;
  // locks in the good optimum instead of bouncing out of it late.
  float lr_final_fraction = 0.02f;
  std::uint64_t seed = 1;
  // Dataset-generation scale the model was trained against (metadata;
  // evaluate/report default their test suite to it). Models saved before
  // format v6 also rebuild their normaliser from (seed, scale) on load.
  double scale = 0.25;
  // Graph-level data parallelism: number of circuits whose forward/backward
  // run concurrently per optimiser step, with gradients merged in circuit
  // order and averaged before Adam. 1 (default) keeps the classic
  // one-step-per-graph schedule bit-for-bit; >1 is a different (batched)
  // schedule whose results are deterministic for any thread count.
  std::size_t batch_size = 1;
  // Runtime thread count recorded at training time (model-file metadata;
  // 0 = unrecorded). Purely informational — results don't depend on it.
  std::size_t train_threads = 0;

  std::size_t effective_fc_layers() const {
    if (fc_layers != 0) return fc_layers;
    return target == dataset::TargetKind::kCap ? 4 : 2;
  }
};

// Maps raw target values to training space and back.
// CAP: y' = y / max_v (training points with y > max_v are excluded).
// Device parameters: z-score fit on the training pool.
class TargetScaler {
 public:
  // The scaler a target trains with, and the only place that chooses one:
  // for_cap for CAP, fit_log_zscore for RES, fit_zscore for every other
  // target. `pooled` is every training target value in sample order
  // (ignored for CAP).
  static TargetScaler for_target(dataset::TargetKind target, double max_v_ff,
                                 const std::vector<float>& pooled);
  static TargetScaler for_cap(double max_v_ff);
  static TargetScaler fit_zscore(const std::vector<float>& train_values);
  // z-score in log10 space; used for the wide-range RES extension target.
  static TargetScaler fit_log_zscore(const std::vector<float>& train_values);

  float transform(float raw) const;
  float inverse(float scaled) const;
  // False for training points outside the scaler's valid range (CAP > max_v).
  bool in_range(float raw) const;
  double max_v() const { return max_v_; }

  // Plain-data view for persistence (core/serialize.h).
  struct State {
    bool zscore = false;
    bool log_space = false;
    double mean = 0.0;
    double stdev = 1.0;
    double max_v = 0.0;
  };
  State state() const { return {zscore_, log_space_, mean_, stdev_, max_v_}; }
  static TargetScaler from_state(const State& s);

 private:
  bool zscore_ = false;
  bool log_space_ = false;
  double mean_ = 0.0;
  double stdev_ = 1.0;
  double max_v_ = 0.0;  // 0 when z-scoring
};

// Per-circuit prediction in raw units, restricted to in-range nodes.
// `type_slot`/`node_index` (parallel to truth/pred) locate each prediction
// back in the sample's graph: slot within target_node_types(target) and
// local node index of that type — the provenance `paragraph report` uses
// to name the worst nets. Producers that cover every node in order (e.g.
// CapEnsemble::evaluate over net nodes) may leave them empty, meaning
// "position i is node i of slot 0".
struct CircuitPrediction {
  std::string name;
  std::vector<float> truth;
  std::vector<float> pred;
  std::vector<std::int32_t> type_slot;
  std::vector<std::int32_t> node_index;
  eval::RegressionMetrics metrics() const;
};

struct EvalResult {
  std::vector<CircuitPrediction> circuits;
  // Metrics pooled over every node of every circuit.
  eval::RegressionMetrics pooled() const;
};

// Per-epoch training telemetry handed to the optional train() callback
// and mirrored into the obs metrics registry when instrumentation is on.
struct EpochRecord {
  int epoch = 0;          // 0-based
  double loss = 0.0;      // mean loss over the epoch's batches
  double grad_norm = 0.0; // pre-clip global gradient norm of the last step
  double wall_ms = 0.0;   // epoch wall time
  double lr = 0.0;        // effective learning rate this epoch
  std::uint64_t rss_kb = 0;  // resident set at epoch end (0 off-Linux)
};
using EpochCallback = std::function<void(const EpochRecord&)>;

struct TrainCheckpoint;  // core/checkpoint.h

// Fault-tolerance knobs for train().
struct TrainOptions {
  // Write a checkpoint to `checkpoint_path` after every N completed
  // epochs (0 = off). Writes are atomic, so an interrupted run always
  // finds the last complete checkpoint.
  int checkpoint_every = 0;
  std::string checkpoint_path;
  // Resume state from core::load_checkpoint. The predictor itself must
  // have been reconstructed from the checkpoint's model bytes
  // (predictor_from_bytes), so weights/scaler/config already match; train
  // restores the optimiser moments, shuffle stream, and recovery state,
  // making the resumed run bit-identical to an uninterrupted one.
  const TrainCheckpoint* resume = nullptr;
};

class GnnPredictor {
 public:
  GnnPredictor(const PredictorConfig& config);

  const PredictorConfig& config() const { return config_; }

  // Trains on ds.train, adopting ds.normalizer; returns per-epoch mean
  // losses (resumed runs: losses of the epochs this call ran).
  // `on_epoch`, when set, fires after every epoch with its telemetry.
  //
  // Numeric guardrails: a step whose loss or gradient norm is non-finite
  // is skipped (weights and Adam state untouched), the best-snapshot
  // weights are restored, and the learning rate is backed off (bounded);
  // after 5 consecutive non-finite steps train throws
  // util::DivergenceError. Counters: train.nonfinite_steps,
  // train.lr_backoffs.
  std::vector<double> train(const dataset::SuiteDataset& ds,
                            const EpochCallback& on_epoch = nullptr,
                            const TrainOptions& options = {});

  // Out-of-core training, adopting store.normalizer(): samples stream
  // from `store`, and prepared plans/batches are held within the store's
  // byte budget instead of all at once. Both overloads are adapters of
  // one routine (train_from), so they run the same code on the same
  // samples and produce the same bytes.
  std::vector<double> train(dataset::ShardStore& store, const EpochCallback& on_epoch = nullptr,
                            const TrainOptions& options = {});

  // Predicts raw-unit values for in-range nodes of each sample.
  EvalResult evaluate(const std::vector<dataset::Sample>& samples) const;

  // Out-of-core evaluation over the store's test (default) or train
  // split. Serial over circuits so peak memory stays bounded by the
  // store's working set; per-circuit predictions are bit-identical to
  // the in-memory overload.
  EvalResult evaluate(dataset::ShardStore& store, bool test_split = true) const;

  // Raw-unit predictions for ALL nodes of the target's node types,
  // concatenated in (type slot, node) order. Used by Algorithm 2. `opts`
  // only chooses how the graph plan is obtained (see PredictOptions).
  std::vector<float> predict_all(const dataset::Sample& sample,
                                 const PredictOptions& opts = {}) const;

  // kept for e2ebench; delete when the harness moves
  std::vector<float> predict_all(const dataset::SuiteDataset&, const dataset::Sample& s) const {
    return predict_all(s);
  }
  // kept for e2ebench; delete when the harness moves
  std::vector<float> predict_all(const dataset::SuiteDataset&, const dataset::Sample& sample,
                                 const gnn::GraphPlan& plan) const {
    return predict_all(sample, {.plan = &plan});
  }

  // Identity of the current weights; reassigned whenever train() completes
  // so memoized embeddings keyed by it are never stale.
  std::uint64_t model_key() const { return model_key_; }

  // The embedding model's own homogeneous(): true when its plans need the
  // homogenised view. Callers building shared GraphPlans pass this to
  // gnn::GraphPlan::build.
  bool needs_homo() const;

  // Final-layer embeddings for one node type (e.g. for the t-SNE study).
  nn::Matrix embeddings(const dataset::Sample& sample, graph::NodeType type) const;

  // Per-layer, per-edge-type attention statistics on one circuit
  // (interpretability study; only the attention-based models fill it).
  gnn::AttentionRecord attention_analysis(const dataset::Sample& sample) const;

  std::size_t num_parameters() const;
  const TargetScaler& scaler() const { return scaler_; }
  void set_scaler(const TargetScaler& s) { scaler_ = s; }

  // The input-feature normaliser the model was trained with; every
  // inference entry point applies it, so the model artifact alone fixes
  // the predictions. Set by train(), persisted as format v6.
  const dataset::FeatureNormalizer& normalizer() const { return normalizer_; }
  void set_normalizer(dataset::FeatureNormalizer n) { normalizer_ = std::move(n); }

  // Training-set feature-distribution sketches (drift reference). Filled
  // by train(), persisted by core/serialize as format v5; empty for models
  // loaded from pre-v5 files.
  const std::vector<obs::FeatureSketch>& feature_sketches() const { return sketches_; }
  void set_feature_sketches(std::vector<obs::FeatureSketch> s) { sketches_ = std::move(s); }

  // Trainable parameters in deterministic construction order (embedding
  // model first, then the FC head); used by the optimiser and by
  // save/load_predictor.
  std::vector<nn::Tensor> parameters() const;

 private:
  // One sample staged for training: plan, normalised batch, per-slot
  // in-range indices and scaled targets (defined in predictor.cpp).
  struct Prepared;
  // Prepared samples within a byte budget, keyed by eligible-sample
  // position (defined in predictor.cpp).
  class PreparedLru;
  // Training sample i of train_from's source. The in-memory adapter hands
  // out non-owning pointers into its dataset, the shard adapter the
  // store's materialised samples.
  using SampleFetch = std::function<std::shared_ptr<const dataset::Sample>(std::size_t)>;
  // The whole training setup behind both train() overloads, in order:
  // adopt `normalizer`; sketch the `count` samples (range pass, then a
  // fill pass that also pools the targets for TargetScaler::for_target);
  // keep the samples with an in-range target, preparing them in train
  // order until `budget_bytes` is reached; then train_impl. Passes over
  // the source: three, plus whatever the epochs re-fetch.
  std::vector<double> train_from(std::size_t count, const SampleFetch& fetch,
                                 const dataset::FeatureNormalizer& normalizer,
                                 std::size_t budget_bytes, const EpochCallback& on_epoch,
                                 const TrainOptions& options);
  std::vector<double> train_impl(PreparedLru& samples, const EpochCallback& on_epoch,
                                 const TrainOptions& options);
  gnn::GraphBatch make_batch(const graph::HeteroGraph& g, const gnn::GraphPlan* plan) const;
  // The one inference forward behind predict_all, embeddings and
  // attention_analysis (and so evaluate, CapEnsemble, report, the CLI and
  // serve). Opens an nn::NoGradGuard, so no op records a backward closure
  // and each intermediate is freed once its consumer returns. Embeds
  // through `opts.cache`, `opts.plan` or a fresh plan (PredictOptions'
  // order). Fills `attention` when non-null (asked for only without a
  // cache, whose template embeds would land in the record too); when
  // `pred` is non-null, appends the head's raw-unit outputs for the
  // sample's target node types to it. train() keeps the tape.
  gnn::TypeTensors infer(const dataset::Sample& sample, const PredictOptions& opts,
                         gnn::AttentionRecord* attention, std::vector<float>* pred) const;
  CircuitPrediction evaluate_circuit(const dataset::Sample& s) const;

  PredictorConfig config_;
  std::uint64_t model_key_ = 0;
  TargetScaler scaler_;
  dataset::FeatureNormalizer normalizer_;
  std::vector<obs::FeatureSketch> sketches_;
  std::unique_ptr<gnn::EmbeddingModel> embedding_;
  std::unique_ptr<nn::Mlp> head_;
};

}  // namespace paragraph::core
