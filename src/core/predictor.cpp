#include "core/predictor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/checkpoint.h"
#include "core/serialize.h"
#include "dataset/shards.h"
#include "eval/drift.h"
#include "gnn/plan.h"
#include "gnn/plan_cache.h"
#include "nn/optim.h"
#include "obs/log.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "runtime/thread_pool.h"
#include "util/errors.h"
#include "util/faultinject.h"
#include "util/rng.h"
#include "util/stats.h"

namespace paragraph::core {

using dataset::Sample;
using dataset::SuiteDataset;
using dataset::TargetKind;
using graph::NodeType;
using gnn::GraphBatch;
using nn::Matrix;
using nn::Tensor;

// ------------------------------------------------------ TargetScaler ----

TargetScaler TargetScaler::for_cap(double max_v_ff) {
  TargetScaler s;
  s.zscore_ = false;
  s.max_v_ = max_v_ff;
  return s;
}

TargetScaler TargetScaler::fit_zscore(const std::vector<float>& train_values) {
  TargetScaler s;
  s.zscore_ = true;
  if (!train_values.empty()) {
    double sum = 0.0, sum2 = 0.0;
    for (const float v : train_values) {
      sum += v;
      sum2 += static_cast<double>(v) * v;
    }
    s.mean_ = sum / static_cast<double>(train_values.size());
    const double var =
        std::max(sum2 / static_cast<double>(train_values.size()) - s.mean_ * s.mean_, 1e-12);
    s.stdev_ = std::sqrt(var);
  }
  return s;
}

TargetScaler TargetScaler::fit_log_zscore(const std::vector<float>& train_values) {
  std::vector<float> logs;
  logs.reserve(train_values.size());
  for (const float v : train_values)
    logs.push_back(std::log10(std::max(v, 1e-6f)));
  TargetScaler s = fit_zscore(logs);
  s.log_space_ = true;
  return s;
}

float TargetScaler::transform(float raw) const {
  if (zscore_) {
    const double v = log_space_ ? std::log10(std::max(raw, 1e-6f)) : raw;
    return static_cast<float>((v - mean_) / stdev_);
  }
  return static_cast<float>(raw / max_v_);
}

float TargetScaler::inverse(float scaled) const {
  if (zscore_) {
    const double v = scaled * stdev_ + mean_;
    return static_cast<float>(log_space_ ? std::pow(10.0, v) : v);
  }
  return static_cast<float>(scaled * max_v_);
}

bool TargetScaler::in_range(float raw) const { return zscore_ || raw <= max_v_; }

TargetScaler TargetScaler::from_state(const State& s) {
  TargetScaler t;
  t.zscore_ = s.zscore;
  t.log_space_ = s.log_space;
  t.mean_ = s.mean;
  t.stdev_ = s.stdev;
  t.max_v_ = s.max_v;
  return t;
}

// --------------------------------------------------- result plumbing ----

eval::RegressionMetrics CircuitPrediction::metrics() const {
  return eval::evaluate(truth, pred);
}

eval::RegressionMetrics EvalResult::pooled() const {
  std::vector<float> t, p;
  for (const auto& c : circuits) {
    t.insert(t.end(), c.truth.begin(), c.truth.end());
    p.insert(p.end(), c.pred.begin(), c.pred.end());
  }
  return eval::evaluate(t, p);
}

// ------------------------------------------------------ GnnPredictor ----

namespace {
// Process-unique weight identities; every construction or completed train
// gets a fresh one, so PlanCache embeddings keyed by it cannot go stale.
std::uint64_t next_model_key() {
  static std::atomic<std::uint64_t> next{0};
  return ++next;
}
}  // namespace

GnnPredictor::GnnPredictor(const PredictorConfig& config)
    : config_(config), model_key_(next_model_key()) {
  util::Rng rng(config.seed * 0x9e3779b9ULL + 17);
  embedding_ = gnn::make_model(config.model, config.embed_dim, config.num_layers, rng,
                               config.attention_heads);
  std::vector<std::size_t> dims(config.effective_fc_layers(), config.embed_dim);
  dims.push_back(1);
  head_ = std::make_unique<nn::Mlp>(dims, rng);
  if (config.target == TargetKind::kCap) scaler_ = TargetScaler::for_cap(config.max_v_ff);
}

bool GnnPredictor::needs_homo() const {
  switch (config_.model) {
    case gnn::ModelKind::kGcn:
    case gnn::ModelKind::kGraphSage:
    case gnn::ModelKind::kGat: return true;
    default: return false;
  }
}

GraphBatch GnnPredictor::make_batch(const graph::HeteroGraph& g,
                                    const gnn::GraphPlan* plan) const {
  GraphBatch b;
  b.graph = &g;
  b.plan = plan;
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
    const auto nt = static_cast<NodeType>(t);
    if (g.num_nodes(nt) == 0) continue;
    b.features[t] = Tensor(normalizer_.apply(g, nt));
  }
  return b;
}

struct GnnPredictor::Prepared {
  std::unique_ptr<gnn::GraphPlan> plan;
  GraphBatch batch;                  // points into the sample's graph
  std::vector<nn::IndexHandle> idx;  // per type slot, in-range node ids
  std::vector<Matrix> target;        // per type slot, scaled targets
  // Streamed path: the materialised sample the batch references. The
  // in-memory path leaves it null (the SuiteDataset owns its samples).
  std::shared_ptr<const Sample> owned;
};

std::shared_ptr<const GnnPredictor::Prepared> GnnPredictor::prepare_sample(
    const Sample& s, std::shared_ptr<const Sample> owned) const {
  const auto& types = dataset::target_node_types(config_.target);
  auto p = std::make_shared<Prepared>();
  p->owned = std::move(owned);
  p->plan = std::make_unique<gnn::GraphPlan>(gnn::GraphPlan::build(s.graph, needs_homo()));
  p->batch = make_batch(s.graph, p->plan.get());
  bool any = false;
  for (std::size_t slot = 0; slot < types.size(); ++slot) {
    const auto& raw = s.target_values(config_.target, slot);
    std::vector<std::int32_t> idx;
    std::vector<float> scaled;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (!scaler_.in_range(raw[i])) continue;
      idx.push_back(static_cast<std::int32_t>(i));
      scaled.push_back(scaler_.transform(raw[i]));
    }
    p->idx.push_back(nn::make_index(std::move(idx)));
    p->target.emplace_back(scaled.size(), 1, std::move(scaled));
    if (!p->idx.back()->empty()) any = true;
  }
  return any ? p : nullptr;
}

namespace {

double global_grad_norm(const std::vector<Tensor>& params) {
  double total = 0.0;
  for (const auto& p : params) {
    const Matrix& g = p.grad();
    for (std::size_t i = 0; i < g.size(); ++i)
      total += static_cast<double>(g.data()[i]) * g.data()[i];
  }
  return std::sqrt(total);
}

}  // namespace

std::vector<double> GnnPredictor::train(const SuiteDataset& ds, const EpochCallback& on_epoch,
                                        const TrainOptions& options) {
  PARAGRAPH_TIMED_SCOPE("train");
  normalizer_ = ds.normalizer;

  // Drift reference: what "inputs like the training set" looks like.
  // Persisted with the model (format v5) and compared against live
  // inference inputs by eval::check_drift.
  sketches_ = eval::sketch_graphs(ds.train);

  if (config_.target == TargetKind::kRes) {
    scaler_ = TargetScaler::fit_log_zscore(SuiteDataset::pooled_targets(ds.train, config_.target));
  } else if (config_.target != TargetKind::kCap) {
    scaler_ = TargetScaler::fit_zscore(SuiteDataset::pooled_targets(ds.train, config_.target));
  }

  // Precompute the graph plan, batch, per-slot training indices, and
  // scaled targets once per sample; every epoch's forward reuses them.
  std::vector<std::shared_ptr<const Prepared>> prepared;
  {
    PARAGRAPH_TIMED_SCOPE("prepare");
    for (const Sample& s : ds.train)
      if (auto p = prepare_sample(s, nullptr)) prepared.push_back(std::move(p));
  }
  PreparedSource src;
  src.count = prepared.size();
  src.get = [&prepared](std::size_t i) { return prepared[i]; };
  return train_impl(src, on_epoch, options);
}

std::vector<double> GnnPredictor::train(dataset::ShardStore& store, const EpochCallback& on_epoch,
                                        const TrainOptions& options) {
  PARAGRAPH_TIMED_SCOPE("train");
  normalizer_ = store.normalizer();
  const std::size_t n = store.num_train();
  const auto& types = dataset::target_node_types(config_.target);

  // Drift sketches in two streaming passes (range fit, then fill) —
  // bit-identical to eval::sketch_graphs over the materialised set.
  {
    PARAGRAPH_TIMED_SCOPE("sketch");
    eval::SketchBuilder sb;
    for (std::size_t i = 0; i < n; ++i) sb.observe_range(*store.train(i));
    sb.begin_fill();
    for (std::size_t i = 0; i < n; ++i) sb.observe_values(*store.train(i));
    sketches_ = sb.finish();
  }

  if (config_.target != TargetKind::kCap) {
    // Same pooling order as SuiteDataset::pooled_targets.
    std::vector<float> pooled;
    for (std::size_t i = 0; i < n; ++i) {
      const auto s = store.train(i);
      for (const auto& vec : s->targets[static_cast<std::size_t>(config_.target)])
        pooled.insert(pooled.end(), vec.begin(), vec.end());
    }
    scaler_ = config_.target == TargetKind::kRes ? TargetScaler::fit_log_zscore(pooled)
                                                 : TargetScaler::fit_zscore(pooled);
  }

  // Eligible samples (any in-range target) in train order — the same
  // filter the in-memory path applies while preparing.
  std::vector<std::size_t> eligible;
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = store.train(i);
    bool any = false;
    for (std::size_t slot = 0; slot < types.size() && !any; ++slot)
      for (const float raw : s->target_values(config_.target, slot))
        if (scaler_.in_range(raw)) {
          any = true;
          break;
        }
    if (any) eligible.push_back(i);
  }

  // LRU over prepared samples: plans/batches roughly double the
  // materialised sample, so price entries at 2x the store's estimator
  // and cap at the same byte budget the store enforces for raw samples.
  struct Pin {
    std::shared_ptr<const Prepared> p;
    std::size_t bytes = 0;
    std::uint64_t tick = 0;
  };
  auto cache = std::make_shared<std::unordered_map<std::size_t, Pin>>();
  auto state = std::make_shared<std::pair<std::size_t, std::uint64_t>>(0, 0);  // bytes, tick

  PreparedSource src;
  src.count = eligible.size();
  src.get = [this, &store, eligible, cache, state](std::size_t k) {
    auto& [cache_bytes, tick] = *state;
    ++tick;
    if (const auto it = cache->find(k); it != cache->end()) {
      it->second.tick = tick;
      return it->second.p;
    }
    const std::shared_ptr<const Sample> s = store.train(eligible[k]);
    auto p = prepare_sample(*s, s);
    if (!p)
      throw std::logic_error("GnnPredictor::train: sample lost its in-range targets mid-run");
    const std::size_t bytes = dataset::ShardStore::sample_bytes(*s) * 2;
    cache_bytes += bytes;
    (*cache)[k] = Pin{p, bytes, tick};
    while (cache_bytes > store.config().max_resident_bytes && cache->size() > 1) {
      auto victim = cache->end();
      for (auto it = cache->begin(); it != cache->end(); ++it)
        if (it->first != k && (victim == cache->end() || it->second.tick < victim->second.tick))
          victim = it;
      if (victim == cache->end()) break;
      cache_bytes -= victim->second.bytes;
      cache->erase(victim);
    }
    if (obs::enabled())
      obs::MetricsRegistry::instance().gauge("shards.prepared_bytes").set(
          static_cast<double>(cache_bytes));
    return p;
  };
  return train_impl(src, on_epoch, options);
}

std::vector<double> GnnPredictor::train_impl(const PreparedSource& src,
                                             const EpochCallback& on_epoch,
                                             const TrainOptions& options) {
  const auto& types = dataset::target_node_types(config_.target);
  if (src.count == 0) throw std::logic_error("GnnPredictor::train: no training data in range");

  std::vector<Tensor> params = parameters();
  nn::Adam opt(params, config_.learning_rate);
  util::Rng shuffle_rng(config_.seed ^ 0xfeedface1234ULL);

  // Graph-level data parallelism (batch_size > 1): each of the B circuits
  // in a step runs forward/backward against its own replica of the model
  // (identical construction seed -> identical parameter layout), and the
  // replica gradients are merged in circuit order and averaged before the
  // single Adam step. Replica forward/backward runs one circuit per pool
  // chunk; kernels inside a chunk execute inline, so per-circuit results
  // match the serial computation exactly and the merged gradient is
  // identical at any thread count.
  struct Replica {
    std::unique_ptr<gnn::EmbeddingModel> embedding;
    std::unique_ptr<nn::Mlp> head;
    std::vector<Tensor> params;
  };
  const std::size_t batch =
      std::min<std::size_t>(std::max<std::size_t>(config_.batch_size, 1), src.count);
  std::vector<Replica> replicas;
  if (batch > 1) {
    for (std::size_t r = 0; r < batch; ++r) {
      util::Rng rng(config_.seed * 0x9e3779b9ULL + 17);
      Replica rep;
      rep.embedding = gnn::make_model(config_.model, config_.embed_dim, config_.num_layers, rng,
                                      config_.attention_heads);
      std::vector<std::size_t> dims(config_.effective_fc_layers(), config_.embed_dim);
      dims.push_back(1);
      rep.head = std::make_unique<nn::Mlp>(dims, rng);
      rep.params = rep.embedding->parameters();
      const auto hp = rep.head->parameters();
      rep.params.insert(rep.params.end(), hp.begin(), hp.end());
      if (rep.params.size() != params.size())
        throw std::logic_error("GnnPredictor::train: replica parameter layout mismatch");
      replicas.push_back(std::move(rep));
    }
  }
  const auto& type_list = types;
  auto circuit_loss = [&](gnn::EmbeddingModel& emb_model, nn::Mlp& head,
                          const Prepared& p) -> Tensor {
    std::vector<Tensor> losses;
    gnn::TypeTensors emb = emb_model.embed(p.batch);
    for (std::size_t slot = 0; slot < type_list.size(); ++slot) {
      if (p.idx[slot]->empty()) continue;
      const Tensor& z = emb[static_cast<std::size_t>(type_list[slot])];
      if (!z.defined()) continue;
      Tensor zsel = nn::gather_rows(z, p.idx[slot]);
      Tensor pred = head.forward(zsel);
      losses.push_back(nn::mse_loss(pred, p.target[slot]));
    }
    if (losses.empty()) return Tensor();
    Tensor loss = losses.size() == 1 ? losses[0] : nn::sum_tensors(losses);
    if (losses.size() > 1) loss = nn::scale(loss, 1.0f / static_cast<float>(losses.size()));
    return loss;
  };

  // Divergence recovery: keep a snapshot of the best-so-far parameters.
  // Full-range MSE targets occasionally blow a step up so badly that Adam
  // never recovers (the loss parks at the predict-the-mean plateau); on a
  // blow-up we roll back to the snapshot and continue at a reduced
  // learning rate. The best snapshot is also restored at the end.
  std::vector<Matrix> best_params;
  double best_loss = std::numeric_limits<double>::infinity();
  float lr_scale = 1.0f;
  auto snapshot = [&] {
    best_params.clear();
    for (const auto& p : params) best_params.push_back(p.value());
  };
  auto restore = [&] {
    for (std::size_t i = 0; i < params.size(); ++i)
      params[i].mutable_value() = best_params[i];
  };

  // Per-step numeric guardrail state. A non-finite loss or gradient norm
  // skips the step (weights and Adam moments untouched), restores the
  // best-snapshot weights, and halves the learning rate (bounded below);
  // kMaxNonfiniteStreak consecutive failures abort the run cleanly.
  constexpr int kMaxNonfiniteStreak = 5;
  constexpr float kMinLrScale = 0.05f;
  int nonfinite_streak = 0;

  int start_epoch = 0;
  if (options.resume != nullptr) {
    const TrainCheckpoint& ck = *options.resume;
    if (ck.next_epoch > config_.epochs)
      throw util::CorruptArtifactError(
          "resume: checkpoint has completed " + std::to_string(ck.next_epoch) +
          " epochs but the configured budget is " + std::to_string(config_.epochs));
    if (ck.has_best && ck.best_params.size() != params.size())
      throw util::CorruptArtifactError("resume: best-snapshot parameter count mismatch");
    opt.set_state(ck.adam_m, ck.adam_v, ck.adam_steps);
    start_epoch = ck.next_epoch;
    lr_scale = ck.lr_scale;
    nonfinite_streak = ck.nonfinite_streak;
    if (ck.has_best) {
      for (std::size_t i = 0; i < params.size(); ++i) {
        if (ck.best_params[i].rows() != params[i].value().rows() ||
            ck.best_params[i].cols() != params[i].value().cols())
          throw util::CorruptArtifactError("resume: best-snapshot shape mismatch at parameter " +
                                           std::to_string(i));
      }
      best_params = ck.best_params;
      best_loss = ck.best_loss;
    }
    obs::log_info("train", "resumed from checkpoint",
                  {{"next_epoch", start_epoch}, {"lr_scale", static_cast<double>(lr_scale)}});
  }

  auto on_nonfinite = [&](int epoch, float epoch_lr, double loss_val, double grad_norm) {
    ++nonfinite_streak;
    const float prev_scale = lr_scale;
    lr_scale = std::max(lr_scale * 0.5f, kMinLrScale);
    opt.set_learning_rate(epoch_lr * lr_scale);
    if (!best_params.empty()) restore();
    if (obs::enabled()) {
      obs::MetricsRegistry::instance().counter("train.nonfinite_steps").add();
      if (lr_scale != prev_scale)
        obs::MetricsRegistry::instance().counter("train.lr_backoffs").add();
    }
    obs::log_warn("train", "non-finite step skipped",
                  {{"epoch", epoch},
                   {"loss", loss_val},
                   {"grad_norm", grad_norm},
                   {"streak", nonfinite_streak},
                   {"lr_scale", static_cast<double>(lr_scale)}});
    if (nonfinite_streak >= kMaxNonfiniteStreak)
      throw util::DivergenceError("training diverged: " + std::to_string(nonfinite_streak) +
                                  " consecutive non-finite steps (epoch " +
                                  std::to_string(epoch) + ")");
  };

  // Per-epoch telemetry is cheap (one clock read per epoch) so it is
  // collected unconditionally; the obs sinks below are gated.
  const bool want_telemetry =
      on_epoch != nullptr || obs::enabled() ||
      obs::Logger::instance().should_log(obs::LogLevel::kDebug);

  std::vector<double> epoch_losses;
  std::vector<std::size_t> order(src.count);
  std::iota(order.begin(), order.end(), 0);
  if (options.resume != nullptr) {
    // The shuffle permutation is cumulative (each epoch shuffles the
    // previous epoch's order), so replay the interrupted run's shuffles.
    // This also reproduces the RNG stream position; the checkpoint's
    // stored state then acts as an integrity check that the dataset (and
    // so the shuffle stream) matches the interrupted run.
    for (int e = 0; e < start_epoch; ++e) shuffle_rng.shuffle(order);
    const util::Rng::State got = shuffle_rng.state();
    const util::Rng::State& want = options.resume->shuffle_rng;
    if (got.words[0] != want.words[0] || got.words[1] != want.words[1] ||
        got.words[2] != want.words[2] || got.words[3] != want.words[3] ||
        got.has_cached_normal != want.has_cached_normal)
      throw util::CorruptArtifactError(
          "resume: shuffle stream mismatch (checkpoint was taken against a "
          "different dataset or seed)");
  }
  for (int epoch = start_epoch; epoch < config_.epochs; ++epoch) {
    PARAGRAPH_TIMED_SCOPE("epoch");
    const auto epoch_start = std::chrono::steady_clock::now();
    float lr = config_.learning_rate;
    if (config_.lr_final_fraction < 1.0f && config_.epochs > 1) {
      const float progress = static_cast<float>(epoch) / static_cast<float>(config_.epochs - 1);
      const float cosine = 0.5f * (1.0f + std::cos(progress * static_cast<float>(M_PI)));
      const float lo = config_.learning_rate * config_.lr_final_fraction;
      lr = lo + (config_.learning_rate - lo) * cosine;
    }
    opt.set_learning_rate(lr * lr_scale);
    shuffle_rng.shuffle(order);
    double loss_sum = 0.0;
    std::size_t loss_count = 0;
    double last_grad_norm = 0.0;
    if (batch == 1) {
      for (const std::size_t k : order) {
        const std::shared_ptr<const Prepared> pinned = src.get(k);
        const Prepared& p = *pinned;
        Tensor loss;
        {
          PARAGRAPH_TIMED_SCOPE("forward");
          loss = circuit_loss(*embedding_, *head_, p);
          if (!loss.defined()) continue;
        }
        double loss_val = loss.item();
        if (util::fault::should_fail("train.loss"))
          loss_val = std::numeric_limits<double>::quiet_NaN();
        if (!std::isfinite(loss_val)) {
          on_nonfinite(epoch, lr, loss_val, 0.0);
          continue;
        }
        {
          PARAGRAPH_TIMED_SCOPE("backward");
          opt.zero_grad();
          loss.backward();
        }
        {
          PARAGRAPH_TIMED_SCOPE("optimizer");
          if (config_.grad_clip > 0.0f) {
            last_grad_norm = nn::clip_grad_norm(params, config_.grad_clip);
          } else {
            last_grad_norm = global_grad_norm(params);
          }
          if (!std::isfinite(last_grad_norm)) {
            on_nonfinite(epoch, lr, loss_val, last_grad_norm);
            continue;
          }
          opt.step();
        }
        nonfinite_streak = 0;
        loss_sum += loss_val;
        ++loss_count;
      }
    } else {
      for (std::size_t start = 0; start < order.size(); start += batch) {
        const std::size_t gcount = std::min(batch, order.size() - start);
        {
          PARAGRAPH_TIMED_SCOPE("stage");
          for (std::size_t r = 0; r < gcount; ++r)
            for (std::size_t pi = 0; pi < params.size(); ++pi)
              replicas[r].params[pi].mutable_value() = params[pi].value();
        }
        // Pin the whole group on this thread before fanning out — the
        // source (and a streamed store behind it) is not thread-safe.
        std::vector<std::shared_ptr<const Prepared>> group(gcount);
        for (std::size_t r = 0; r < gcount; ++r) group[r] = src.get(order[start + r]);
        std::vector<double> circuit_losses(gcount, -1.0);
        {
          PARAGRAPH_TIMED_SCOPE("forward_backward");
          runtime::parallel_for("train.batch", gcount, 1, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t r = lo; r < hi; ++r) {
              Replica& rep = replicas[r];
              const Prepared& p = *group[r];
              for (auto& t : rep.params) t.zero_grad();
              Tensor loss = circuit_loss(*rep.embedding, *rep.head, p);
              if (!loss.defined()) continue;
              loss.backward();
              double lv = loss.item();
              if (util::fault::should_fail("train.loss"))
                lv = std::numeric_limits<double>::quiet_NaN();
              circuit_losses[r] = lv;
            }
          });
        }
        // -1 marks a circuit with no in-range loss; a non-finite entry
        // means the whole merged step would be poisoned, so skip it.
        std::size_t used = 0;
        bool poisoned = false;
        for (const double l : circuit_losses) {
          if (!std::isfinite(l)) poisoned = true;
          else if (l >= 0.0) ++used;
        }
        if (poisoned) {
          on_nonfinite(epoch, lr, std::numeric_limits<double>::quiet_NaN(), 0.0);
          continue;
        }
        if (used == 0) continue;
        bool stepped = false;
        {
          PARAGRAPH_TIMED_SCOPE("optimizer");
          opt.zero_grad();
          const float inv = 1.0f / static_cast<float>(used);
          for (std::size_t pi = 0; pi < params.size(); ++pi) {
            Matrix merged(params[pi].value().rows(), params[pi].value().cols(), 0.0f);
            for (std::size_t r = 0; r < gcount; ++r) {
              if (circuit_losses[r] < 0.0) continue;
              nn::axpy_inplace(merged, inv, replicas[r].params[pi].grad());
            }
            params[pi].accumulate_grad(merged);
          }
          if (config_.grad_clip > 0.0f) {
            last_grad_norm = nn::clip_grad_norm(params, config_.grad_clip);
          } else {
            last_grad_norm = global_grad_norm(params);
          }
          if (std::isfinite(last_grad_norm)) {
            opt.step();
            stepped = true;
          }
        }
        if (!stepped) {
          on_nonfinite(epoch, lr, 0.0, last_grad_norm);
          continue;
        }
        nonfinite_streak = 0;
        for (const double l : circuit_losses)
          if (l >= 0.0) loss_sum += l;
        loss_count += used;
      }
    }
    const double epoch_loss = loss_count ? loss_sum / static_cast<double>(loss_count) : 0.0;
    epoch_losses.push_back(epoch_loss);
    if (want_telemetry) {
      EpochRecord rec;
      rec.epoch = epoch;
      rec.loss = epoch_loss;
      rec.grad_norm = last_grad_norm;
      rec.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - epoch_start)
                        .count();
      rec.lr = static_cast<double>(lr * lr_scale);
      // One /proc read per epoch (~µs against ≥ms epochs); VmRSS tracks
      // resident growth across the run, VmHWM the high-water mark.
      if (const obs::ProcMemory pm = obs::sample_process_memory(); pm.ok)
        rec.rss_kb = pm.vm_rss_kb;
      obs::log_debug("train", "epoch",
                     {{"epoch", rec.epoch},
                      {"loss", rec.loss},
                      {"grad_norm", rec.grad_norm},
                      {"wall_ms", rec.wall_ms},
                      {"lr", rec.lr}});
      if (obs::enabled()) {
        obs::JsonValue r = obs::JsonValue::object();
        r.set("epoch", rec.epoch);
        r.set("loss", rec.loss);
        r.set("grad_norm", rec.grad_norm);
        r.set("wall_ms", rec.wall_ms);
        r.set("lr", rec.lr);
        r.set("rss_kb", rec.rss_kb);
        r.set("matrix_peak_bytes", obs::MemTracker::instance().peak_bytes());
        obs::MetricsRegistry::instance().append_record("train.epochs", std::move(r));
        obs::MetricsRegistry::instance().histogram("train.epoch_ms").record(rec.wall_ms);
        obs::MetricsRegistry::instance().gauge("train.loss").set(rec.loss);
      }
      if (on_epoch) on_epoch(rec);
    }
    if (epoch_loss < best_loss) {
      best_loss = epoch_loss;
      snapshot();
    } else if (!best_params.empty() && epoch_loss > 10.0 * best_loss) {
      restore();
      lr_scale = std::max(lr_scale * 0.5f, 0.05f);
      obs::log_debug("train", "divergence rollback",
                     {{"epoch", epoch},
                      {"loss", epoch_loss},
                      {"lr_scale", static_cast<double>(lr_scale)}});
    }
    if (options.checkpoint_every > 0 && !options.checkpoint_path.empty() &&
        (epoch + 1) % options.checkpoint_every == 0) {
      TrainCheckpoint ck;
      ck.next_epoch = epoch + 1;
      ck.lr_scale = lr_scale;
      ck.nonfinite_streak = nonfinite_streak;
      ck.has_best = !best_params.empty();
      ck.best_loss = ck.has_best ? best_loss : 0.0;
      ck.best_params = best_params;
      ck.shuffle_rng = shuffle_rng.state();
      ck.adam_steps = opt.steps();
      ck.adam_m = opt.moments1();
      ck.adam_v = opt.moments2();
      ck.model_bytes = predictor_to_bytes(*this);
      save_checkpoint(ck, options.checkpoint_path);
      obs::log_debug("train", "checkpoint written",
                     {{"epoch", epoch}, {"path", options.checkpoint_path}});
    }
    // Test hook: simulate the process dying between epochs (see
    // tests/checkpoint_test.cpp kill-and-resume).
    if (util::fault::should_fail("train.epoch"))
      throw util::IoError("fault injected: training interrupted after epoch " +
                          std::to_string(epoch));
    // Test hook: a genuine crash (no exception, no cleanup) so the flight
    // recorder's fatal-signal dump path can be exercised end to end.
    if (util::fault::should_fail("train.crash")) std::abort();
  }
  if (!best_params.empty()) restore();
  model_key_ = next_model_key();  // weights changed: retire memoized embeddings
  return epoch_losses;
}

EvalResult GnnPredictor::evaluate(const std::vector<Sample>& samples) const {
  PARAGRAPH_TIMED_SCOPE("evaluate");
  EvalResult result;
  result.circuits.resize(samples.size());
  // Inference is read-only on the model, so circuits run one per pool
  // chunk; results land at their sample index, keeping output order (and
  // values — per-circuit kernels execute inline) identical to serial.
  runtime::parallel_for("eval.circuits", samples.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t si = lo; si < hi; ++si)
      result.circuits[si] = evaluate_circuit(samples[si]);
  });
  return result;
}

CircuitPrediction GnnPredictor::evaluate_circuit(const Sample& s) const {
  // predict_all covers every node, slot by slot; keep the in-range ones.
  const std::vector<float> all = predict_all(s);
  CircuitPrediction cp;
  cp.name = s.name;
  std::size_t base = 0;
  for (std::size_t slot = 0; slot < dataset::target_node_types(config_.target).size(); ++slot) {
    const auto& raw = s.target_values(config_.target, slot);
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (!scaler_.in_range(raw[i])) continue;
      cp.truth.push_back(raw[i]);
      cp.pred.push_back(all[base + i]);
      cp.type_slot.push_back(static_cast<std::int32_t>(slot));
      cp.node_index.push_back(static_cast<std::int32_t>(i));
    }
    base += raw.size();
  }
  return cp;
}

EvalResult GnnPredictor::evaluate(dataset::ShardStore& store, bool test_split) const {
  PARAGRAPH_TIMED_SCOPE("evaluate");
  const std::size_t n = test_split ? store.num_test() : store.num_train();
  EvalResult result;
  result.circuits.resize(n);
  // Serial over circuits so peak memory stays bounded by the store's
  // working set; each circuit's math is the same inline computation the
  // in-memory overload runs, so predictions match it bit for bit.
  for (std::size_t si = 0; si < n; ++si) {
    const std::shared_ptr<const Sample> sp = test_split ? store.test(si) : store.train(si);
    result.circuits[si] = evaluate_circuit(*sp);
  }
  return result;
}

std::vector<float> GnnPredictor::predict_all(const Sample& sample) const {
  const gnn::GraphPlan plan = gnn::GraphPlan::build(sample.graph, needs_homo());
  return predict_all(sample, plan);
}

std::vector<float> GnnPredictor::predict_all(const Sample& sample,
                                             const gnn::GraphPlan& plan) const {
  PARAGRAPH_TIMED_SCOPE("predict");
  const auto& types = dataset::target_node_types(config_.target);
  const GraphBatch batch = make_batch(sample.graph, &plan);
  gnn::TypeTensors emb = embedding_->embed(batch);
  std::vector<float> out;
  for (std::size_t slot = 0; slot < types.size(); ++slot) {
    const Tensor& z = emb[static_cast<std::size_t>(types[slot])];
    if (!z.defined()) {
      // Keep positional alignment with target_values by emitting zeros.
      out.resize(out.size() + sample.target_values(config_.target, slot).size(), 0.0f);
      continue;
    }
    const Tensor pred = head_->forward(z);
    for (std::size_t i = 0; i < pred.rows(); ++i)
      out.push_back(scaler_.inverse(pred.value()(i, 0)));
  }
  return out;
}

std::vector<float> GnnPredictor::predict_all(const Sample& sample, gnn::PlanCache& cache) const {
  PARAGRAPH_TIMED_SCOPE("predict");
  std::array<nn::Matrix, graph::kNumNodeTypes> z;
  const auto embed_fn = [&](const graph::HeteroGraph& g,
                            const gnn::GraphPlan& plan) -> gnn::TypeTensors {
    return embedding_->embed(make_batch(g, &plan));
  };
  // Memoized embeddings depend on the weights AND the normalisation the
  // batch builder applies, so both feed the cache key.
  const std::uint64_t key = model_key_ ^ (normalizer_.fingerprint() * 0x9e3779b97f4a7c15ULL);
  if (!cache.embed_hierarchical(sample.netlist, sample.graph, config_.num_layers, needs_homo(),
                                key, embed_fn, &z))
    return predict_all(sample);

  const auto& types = dataset::target_node_types(config_.target);
  std::vector<float> out;
  for (std::size_t slot = 0; slot < types.size(); ++slot) {
    const nn::Matrix& m = z[static_cast<std::size_t>(types[slot])];
    if (m.rows() == 0) {
      // Keep positional alignment with target_values by emitting zeros.
      out.resize(out.size() + sample.target_values(config_.target, slot).size(), 0.0f);
      continue;
    }
    const Tensor pred = head_->forward(Tensor(m));
    for (std::size_t i = 0; i < pred.rows(); ++i)
      out.push_back(scaler_.inverse(pred.value()(i, 0)));
  }
  return out;
}

nn::Matrix GnnPredictor::embeddings(const Sample& sample, NodeType type) const {
  const gnn::GraphPlan plan = gnn::GraphPlan::build(sample.graph, needs_homo());
  const gnn::TypeTensors emb = embedding_->embed(make_batch(sample.graph, &plan));
  const Tensor& z = emb[static_cast<std::size_t>(type)];
  return z.defined() ? z.value() : Matrix();
}

gnn::AttentionRecord GnnPredictor::attention_analysis(const Sample& sample) const {
  const gnn::GraphPlan plan = gnn::GraphPlan::build(sample.graph, needs_homo());
  GraphBatch batch = make_batch(sample.graph, &plan);
  gnn::AttentionRecord record;
  batch.attention_out = &record;
  embedding_->embed(batch);
  return record;
}

std::size_t GnnPredictor::num_parameters() const {
  return embedding_->num_parameters() + head_->num_parameters();
}

std::vector<Tensor> GnnPredictor::parameters() const {
  std::vector<Tensor> params = embedding_->parameters();
  const auto head_params = head_->parameters();
  params.insert(params.end(), head_params.begin(), head_params.end());
  return params;
}

}  // namespace paragraph::core
