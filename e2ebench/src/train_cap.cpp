// train_cap: GnnPredictor::train on the scale-0.25 suite (CAP, batch size
// 1), in process. The same nn/gnn layers as inference, used differently:
// taped forward, backward, Adam.
//
// The suite is the CLI's default training suite (seed kFixtureSeed); the
// workload seed sets the model's initial weights and sample order. The
// suite's own seed moves its total size, and with it the epoch time, by
// about 10%, which alone would swamp the bound this metric is held to.

#include <cmath>
#include <optional>

#include "bench.h"
#include "core/predictor.h"
#include "dataset/dataset.h"
#include "fixtures.h"
#include "obs/control.h"
#include "obs/memory.h"
#include "obs/profile.h"
#include "probe.h"
#include "stats.h"
#include "trace.h"

namespace e2ebench {

namespace pg = paragraph;

namespace {

struct Rep {
  double setup_s = 0.0;           // dataset build + everything train() does before epoch 0
  std::vector<double> epoch_ms;   // EpochRecord::wall_ms
  std::vector<double> losses;
  std::size_t samples = 0;        // training circuits per epoch
};

pg::core::PredictorConfig train_config(std::uint64_t seed) {
  pg::core::PredictorConfig pc = fixture_config();
  pc.epochs = kTrainEpochsPerRep;
  pc.seed = seed;
  pc.scale = kTrainScale;
  return pc;
}

// One training run from scratch. With a tracer, the dataset build, the
// train() call and each epoch get spans.
Rep train_once(std::uint64_t seed, Tracer& t) {
  Rep r;
  const auto t0 = Clock::now();
  const int root = t.begin("train.run");
  std::optional<pg::dataset::SuiteDataset> ds;
  {
    Scope sc(t, "dataset.build");
    ds.emplace(pg::dataset::build_dataset(kFixtureSeed, kTrainScale));
  }
  r.samples = ds->train.size();
  pg::core::GnnPredictor p(train_config(seed));
  const int call = t.begin("train.call");
  std::optional<double> epoch0_start_s;
  p.train(*ds, [&](const pg::core::EpochRecord& rec) {
    const double now_s = secs_since(t0);
    if (!epoch0_start_s) epoch0_start_s = now_s - rec.wall_ms / 1000.0;
    r.epoch_ms.push_back(rec.wall_ms);
    r.losses.push_back(rec.loss);
    if (t.enabled()) {
      const double end = t.now_us();
      t.add({"train.epoch", end - rec.wall_ms * 1000.0, end, call, rec.epoch, 0});
    }
  });
  t.end(call);
  t.end(root);
  r.setup_s = epoch0_start_s.value_or(0.0);
  return r;
}

// Training is deterministic at a fixed seed and thread count, so every
// run must reproduce the first one's losses; every loss must be finite
// and the last epoch must improve on the first.
bool check(const Rep& r, const Rep& first) {
  if (r.losses.size() != static_cast<std::size_t>(kTrainEpochsPerRep)) return false;
  for (std::size_t e = 0; e < r.losses.size(); ++e) {
    if (!std::isfinite(r.losses[e])) return false;
    if (std::fabs(r.losses[e] - first.losses[e]) > 1e-9 * std::fabs(first.losses[e])) return false;
  }
  return r.losses.back() < r.losses.front();
}

Outcome run_untraced(const RunArgs& a) {
  Outcome o;
  Tracer off(false);
  HostProbe& probe = *a.probe;
  const std::size_t min_epochs = samples_for_tail(kTrainTailPct);
  std::vector<double> setup, epochs;
  std::size_t samples = 0;
  double epoch_s = 0.0;
  std::optional<Rep> first;
  const auto t0 = Clock::now();
  // The host probe runs between training runs, while the program is idle.
  while ((secs_since(t0) < a.seconds || epochs.size() < min_epochs) && secs_since(t0) < 4 * a.seconds) {
    probe.sample();
    const Rep r = train_once(a.seed, off);
    if (!first) first = r;
    o.attempted += static_cast<std::size_t>(kTrainEpochsPerRep);
    if (!check(r, *first)) {
      o.failed += static_cast<std::size_t>(kTrainEpochsPerRep);
      o.correct = false;
      note("train_cap: run %zu diverged from the first run or did not learn",
           o.attempted / kTrainEpochsPerRep);
      continue;
    }
    setup.push_back(r.setup_s);
    for (const double ms : r.epoch_ms) {
      epochs.push_back(ms);
      epoch_s += ms / 1000.0;
      samples += r.samples;
    }
  }
  if (epochs.empty()) return o;
  const double f = host_factor(probe);
  std::size_t within = 0;
  for (const double ms : epochs) within += ms * f <= kTrainLimitMs;
  const double n = static_cast<double>(o.attempted);
  o.metrics["setup_s"] = median(setup) * f;
  o.metrics["latency_p50_ms"] = percentile(epochs, 50) * f;
  o.metrics["latency_tail_ms"] = percentile(epochs, kTrainTailPct) * f;
  o.metrics["decks_per_s"] = static_cast<double>(samples) / epoch_s / f;
  o.metrics["slo_goodput"] = static_cast<double>(within) / n;
  o.metrics["ok_share"] = static_cast<double>(o.attempted - o.failed) / n;
  o.metrics["peak_rss_mb"] = static_cast<double>(pg::obs::sample_process_memory().vm_hwm_kb) / 1024.0;
  note("train_cap: %zu epochs in %zu runs of %d; tail = p%d of %zu samples", epochs.size(),
       setup.size(), kTrainEpochsPerRep, kTrainTailPct, epochs.size());
  note("train_cap: raw setup %.4f s, %.2f circuits/s, epoch %s; host probe median %.2f ms (factor %.3f)",
       median(setup), static_cast<double>(samples) / epoch_s, percentile_summary(epochs).c_str(),
       probe.median_ms(), f);
  return o;
}

Outcome run_traced(const RunArgs& a) {
  Outcome o;
  Tracer off(false), on(true);
  // Pairs of an untraced and a traced training run for --seconds. The
  // traced runs add the benchmark's spans plus the trainer's own profiler
  // scopes (train/epoch/{forward,backward,optimizer}) and Matrix
  // accounting, which need obs on.
  pg::obs::Profiler::instance().reset();
  pg::obs::MemTracker::instance().reset();
  std::optional<Rep> first;
  std::vector<double> plain_ms, traced_ms;
  std::size_t steps = 0;
  HostProbe& probe = *a.probe;
  const auto start = Clock::now();
  while (!first || secs_since(start) < a.seconds) {
    probe.sample();
    const Rep plain = train_once(a.seed, off);
    if (!first) first = plain;
    pg::obs::set_enabled(true);
    const Rep traced = train_once(a.seed, on);
    pg::obs::set_enabled(false);
    o.attempted += 2 * static_cast<std::size_t>(kTrainEpochsPerRep);
    if (!check(plain, *first) || !check(traced, *first)) {
      o.correct = false;
      o.failed += 2 * static_cast<std::size_t>(kTrainEpochsPerRep);
    }
    plain_ms.insert(plain_ms.end(), plain.epoch_ms.begin(), plain.epoch_ms.end());
    traced_ms.insert(traced_ms.end(), traced.epoch_ms.begin(), traced.epoch_ms.end());
    steps += traced.epoch_ms.size() * traced.samples;
  }
  const auto nodes = pg::obs::Profiler::instance().nodes();
  const double allocs = static_cast<double>(pg::obs::MemTracker::instance().allocs());
  const double peak_mb = static_cast<double>(pg::obs::MemTracker::instance().peak_bytes()) / 1048576.0;

  const double epochs = static_cast<double>(traced_ms.size());
  const auto per_epoch_ms = [&](const char* path) {
    const auto it = nodes.find(path);
    return it == nodes.end() ? 0.0 : it->second.total_us / 1000.0 / epochs;
  };
  o.metrics["train.forward_ms"] = per_epoch_ms("train/epoch/forward");
  o.metrics["train.backward_ms"] = per_epoch_ms("train/epoch/backward");
  o.metrics["train.optimizer_ms"] = per_epoch_ms("train/epoch/optimizer");
  o.metrics["nn.matrix_allocs"] = allocs / static_cast<double>(steps);  // per step: forward + backward
  o.metrics["nn.matrix_peak_mb"] = peak_mb;
  o.metrics["obs.trace_overhead_share"] = (median(traced_ms) - median(plain_ms)) / median(plain_ms);
  o.metrics["host.mem_probe_ms"] = probe.median_ms();

  const auto lt = on.layer_times();
  note("train_cap traced: self time per span, and per epoch from the trainer's profiler:");
  for (const auto& [name, l] : lt)
    note("  %-22s calls %4zu  self %9.2f ms", name.c_str(), l.calls, l.self_us / 1000.0);
  double epoch_mean = 0.0;
  for (const double ms : traced_ms) epoch_mean += ms / epochs;
  for (const char* m : {"train.forward_ms", "train.backward_ms", "train.optimizer_ms"})
    note("  %-22s %9.2f ms per epoch (%.1f%% of the epoch)", m, o.metrics[m],
         100.0 * o.metrics[m] / epoch_mean);
  if (!on.write_chrome_json(a.trace_path)) note("cannot write trace %s", a.trace_path.c_str());
  return o;
}

}  // namespace

Outcome run_train_cap(const RunArgs& a) { return a.trace ? run_traced(a) : run_untraced(a); }

}  // namespace e2ebench
