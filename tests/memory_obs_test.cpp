// Tests for the Matrix byte-accounting tracker (obs/memory.h): peak/current
// tracking across alloc/free sequences, copy/move accounting, the
// disabled-instrumentation fast path (counters must stay untouched), the
// /proc/self/status RSS sampler, and metric publication, plus the Matrix
// peak of a tape-free predict against the taped forward. Tests toggle the
// global obs switch and always restore it on exit.
#include <gtest/gtest.h>

#include <cstddef>
#include <utility>

#include "circuitgen/generator.h"
#include "core/predictor.h"
#include "gnn/plan.h"
#include "nn/matrix.h"
#include "obs/control.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "taped_reference.h"

namespace paragraph {
namespace {

// Toggles the instrumentation master switch for one scope.
class ObsGuard {
 public:
  explicit ObsGuard(bool on) : prev_(obs::enabled()) { obs::set_enabled(on); }
  ~ObsGuard() { obs::set_enabled(prev_); }

 private:
  bool prev_;
};

TEST(MemTrackerTest, TracksCurrentAndPeakAcrossAllocFree) {
  auto& t = obs::MemTracker::instance();
  t.reset();
  t.on_alloc(1000);
  t.on_alloc(500);
  EXPECT_EQ(t.current_bytes(), 1500u);
  EXPECT_EQ(t.peak_bytes(), 1500u);
  t.on_free(1000);
  EXPECT_EQ(t.current_bytes(), 500u);
  EXPECT_EQ(t.peak_bytes(), 1500u);  // peak is sticky
  t.on_alloc(200);
  EXPECT_EQ(t.current_bytes(), 700u);
  EXPECT_EQ(t.peak_bytes(), 1500u);
  t.on_free(500);
  t.on_free(200);
  EXPECT_EQ(t.current_bytes(), 0u);
  EXPECT_EQ(t.allocs(), 3u);
  EXPECT_EQ(t.frees(), 3u);
}

TEST(MemTrackerTest, MatrixLifecycleBalancesToZero) {
  ObsGuard obs(true);
  auto& t = obs::MemTracker::instance();
  t.reset();
  {
    nn::Matrix a(16, 16);                 // alloc
    nn::Matrix b = a;                     // copy: second alloc
    nn::Matrix c = std::move(a);          // move: no new bytes, ownership transfers
    b = c;                                // copy assign: free + alloc
    nn::Matrix d(8, 8);                   // alloc
    d = std::move(c);                     // move assign: frees d's buffer
    EXPECT_GT(t.current_bytes(), 0u);
    EXPECT_GE(t.peak_bytes(), t.current_bytes());
  }
  // Every tracked buffer must be un-tracked exactly once.
  EXPECT_EQ(t.current_bytes(), 0u);
  EXPECT_EQ(t.allocs(), t.frees());
  EXPECT_GE(t.peak_bytes(), 2u * 16u * 16u * sizeof(float));
}

TEST(MemTrackerTest, DisabledFastPathLeavesCountersUntouched) {
  ObsGuard obs(false);
  auto& t = obs::MemTracker::instance();
  t.reset();
  const std::uint64_t allocs_before = t.allocs();
  const std::uint64_t frees_before = t.frees();
  {
    nn::Matrix a(32, 32);
    nn::Matrix b = a;
    b = std::move(a);
  }
  // With instrumentation off, Matrix ctors/dtors must not perform any
  // tracker RMW: the counter deltas are the observable proxy for that.
  EXPECT_EQ(t.allocs(), allocs_before);
  EXPECT_EQ(t.frees(), frees_before);
  EXPECT_EQ(t.current_bytes(), 0u);
  EXPECT_EQ(t.peak_bytes(), 0u);
}

TEST(MemTrackerTest, EnableDisableTransitionNeverUnderflows) {
  auto& t = obs::MemTracker::instance();
  t.reset();
  obs::set_enabled(false);
  nn::Matrix* a = new nn::Matrix(16, 16);  // not tracked
  obs::set_enabled(true);
  delete a;  // tracked_bytes_ == 0, so no free is recorded: no underflow
  EXPECT_EQ(t.current_bytes(), 0u);
  EXPECT_EQ(t.frees(), 0u);
  nn::Matrix* b = new nn::Matrix(16, 16);  // tracked
  obs::set_enabled(false);
  delete b;  // still un-tracked exactly once, even though obs is now off
  EXPECT_EQ(t.current_bytes(), 0u);
  EXPECT_EQ(t.allocs(), 1u);
  EXPECT_EQ(t.frees(), 1u);
  obs::set_enabled(false);
}

TEST(ProcMemoryTest, SamplerReportsPlausibleValues) {
  const obs::ProcMemory pm = obs::sample_process_memory();
  ASSERT_TRUE(pm.ok);  // Linux-only repo: /proc/self/status must exist
  EXPECT_GT(pm.vm_rss_kb, 0u);
  EXPECT_GE(pm.vm_hwm_kb, pm.vm_rss_kb);  // high-water mark bounds current
}

TEST(PublishMemoryMetricsTest, GaugesAndCountersLandInRegistry) {
  ObsGuard obs(true);
  auto& t = obs::MemTracker::instance();
  t.reset();
  auto& reg = obs::MetricsRegistry::instance();
  reg.reset();
  nn::Matrix a(64, 64);
  obs::publish_memory_metrics();
  EXPECT_GT(reg.gauge("mem.matrix.peak_bytes").value(), 0.0);
  EXPECT_GT(reg.gauge("mem.matrix.bytes").value(), 0.0);
  EXPECT_GT(reg.gauge("mem.process.peak_rss_kb").value(), 0.0);
  EXPECT_EQ(reg.counter("mem.matrix.allocs").value(), t.allocs());
  // Publishing twice must not double-count the alloc/free counters.
  obs::publish_memory_metrics();
  EXPECT_EQ(reg.counter("mem.matrix.allocs").value(), t.allocs());
  reg.reset();
  t.reset();
}

// Byte counts, not timings: deterministic at one thread. A forward that
// keeps its tape holds every intermediate until it returns; the tape-free
// one frees each as soon as it is consumed (24x lower peak on this deck
// when the check was written). Fails if inference re-attaches the tape.
TEST(TapeFreeInferenceMemory, PredictPeakIsAFractionOfTheTapedForward) {
  const std::size_t threads_before = runtime::num_threads();
  runtime::set_num_threads(1);
  dataset::Sample s;
  s.netlist = circuitgen::generate_circuit(circuitgen::paper_suite_specs(1, 1.0).at(3));
  s.graph = graph::build_graph(s.netlist);
  core::GnnPredictor predictor(core::PredictorConfig{});  // paper F = 32, L = 5
  dataset::FeatureNormalizer normalizer;
  normalizer.fit({&s.graph});
  predictor.set_normalizer(normalizer);
  const testing::TapedReference reference(predictor);
  const gnn::GraphPlan plan = gnn::GraphPlan::build(s.graph, predictor.needs_homo());

  ObsGuard obs(true);
  auto& t = obs::MemTracker::instance();
  t.reset();
  const std::vector<float> taped = reference.predict_all(s, plan);
  const std::uint64_t taped_peak = t.peak_bytes();
  const std::uint64_t taped_allocs = t.allocs();
  t.reset();
  const std::vector<float> tape_free = predictor.predict_all(s, plan);
  const std::uint64_t peak = t.peak_bytes();
  const std::uint64_t allocs = t.allocs();
  t.reset();
  runtime::set_num_threads(threads_before);

  ASSERT_EQ(tape_free, taped);
  EXPECT_GT(peak, 0u);
  EXPECT_LE(peak * 8, taped_peak) << "tape-free peak " << peak << " B, taped " << taped_peak
                                  << " B";
  EXPECT_LE(allocs, taped_allocs);
}

}  // namespace
}  // namespace paragraph
