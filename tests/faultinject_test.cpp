// Failure-mode suite driven by the deterministic fault-injection harness:
// injection semantics, crash-safe atomic writes (an injected failure must
// never damage the previous artifact), NaN guardrails in training, and
// ensemble loads degrading gracefully around a corrupt member.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "core/ensemble.h"
#include "core/predictor.h"
#include "core/serialize.h"
#include "util/atomic_file.h"
#include "util/errors.h"
#include "util/faultinject.h"

namespace paragraph {
namespace {

class FaultInjectTest : public ::testing::Test {
 protected:
  void TearDown() override { util::fault::configure(""); }
};

TEST_F(FaultInjectTest, NthHitSemantics) {
  util::fault::configure("some.site:2");
  EXPECT_TRUE(util::fault::armed());
  EXPECT_FALSE(util::fault::should_fail("some.site"));  // hit 1
  EXPECT_TRUE(util::fault::should_fail("some.site"));   // hit 2: fails
  EXPECT_FALSE(util::fault::should_fail("some.site"));  // hit 3: one-shot
  EXPECT_FALSE(util::fault::should_fail("other.site"));
  util::fault::reset_counts();
  EXPECT_FALSE(util::fault::should_fail("some.site"));  // counting restarts
  EXPECT_TRUE(util::fault::should_fail("some.site"));
}

TEST_F(FaultInjectTest, StickySemanticsAndMultipleSites) {
  util::fault::configure("a:1+,b:2");
  EXPECT_TRUE(util::fault::should_fail("a"));
  EXPECT_TRUE(util::fault::should_fail("a"));  // sticky: keeps failing
  EXPECT_FALSE(util::fault::should_fail("b"));
  EXPECT_TRUE(util::fault::should_fail("b"));
}

TEST_F(FaultInjectTest, DisarmedIsFreeAndConfigureValidates) {
  util::fault::configure("");
  EXPECT_FALSE(util::fault::armed());
  EXPECT_FALSE(util::fault::should_fail("anything"));
  EXPECT_THROW(util::fault::configure("nonsense"), std::invalid_argument);
  EXPECT_THROW(util::fault::configure("site:"), std::invalid_argument);
  EXPECT_THROW(util::fault::configure("site:abc"), std::invalid_argument);
  EXPECT_THROW(util::fault::configure("site:0"), std::invalid_argument);
  EXPECT_THROW(util::fault::configure(":3"), std::invalid_argument);
}

class AtomicFileFaultTest : public FaultInjectTest {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) / "paragraph_atomic_fault";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "artifact.bin").string();
  }
  void TearDown() override {
    FaultInjectTest::TearDown();
    std::filesystem::remove_all(dir_);
  }

  // No temp files may survive a failed publish.
  std::size_t files_in_dir() const {
    std::size_t n = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir_)) {
      (void)e;
      ++n;
    }
    return n;
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(AtomicFileFaultTest, FailedWriteLeavesPreviousFileIntact) {
  util::write_file_atomic(path_, "previous contents");
  for (const char* site : {"atomic.open:1", "atomic.write:1", "atomic.fsync:1",
                           "atomic.rename:1"}) {
    util::fault::configure(site);
    EXPECT_THROW(util::write_file_atomic(path_, "new contents"), util::IoError) << site;
    util::fault::configure("");
    EXPECT_EQ(core::read_artifact_file(path_, "check"), "previous contents") << site;
    EXPECT_EQ(files_in_dir(), 1u) << site << ": stray temp file left behind";
  }
  // With faults cleared the same write goes through.
  util::write_file_atomic(path_, "new contents");
  EXPECT_EQ(core::read_artifact_file(path_, "check"), "new contents");
}

TEST_F(AtomicFileFaultTest, TryVariantReportsFailureWithoutThrowing) {
  util::fault::configure("atomic.write:1");
  EXPECT_FALSE(util::try_write_file_atomic(path_, "x"));
  util::fault::configure("");
  EXPECT_TRUE(util::try_write_file_atomic(path_, "x"));
}

// ------------------------------------------------- training guardrails --

const dataset::SuiteDataset& suite() {
  static const dataset::SuiteDataset ds = dataset::build_dataset(93, 0.05);
  return ds;
}

core::PredictorConfig tiny_config() {
  core::PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.embed_dim = 4;
  pc.num_layers = 1;
  pc.epochs = 3;
  pc.scale = 0.05;
  pc.seed = 93;
  return pc;
}

TEST_F(FaultInjectTest, InjectedNanStepIsSkippedAndTrainingRecovers) {
  core::GnnPredictor p(tiny_config());
  util::fault::configure("train.loss:2");  // poison one step of epoch 0
  const auto losses = p.train(suite());
  util::fault::configure("");
  ASSERT_EQ(losses.size(), 3u);
  for (const double l : losses) EXPECT_TRUE(std::isfinite(l));
  // The model must still be in a usable state end to end.
  const auto m = p.evaluate(suite().test).pooled();
  EXPECT_GT(m.count, 0u);
}

TEST_F(FaultInjectTest, PersistentNanAbortsWithDivergenceError) {
  core::GnnPredictor p(tiny_config());
  util::fault::configure("train.loss:1+");  // every step poisoned
  EXPECT_THROW(p.train(suite()), util::DivergenceError);
}

TEST_F(FaultInjectTest, InjectedNanInBatchedScheduleAlsoRecovers) {
  core::PredictorConfig pc = tiny_config();
  pc.batch_size = 2;
  core::GnnPredictor p(pc);
  util::fault::configure("train.loss:2");
  const auto losses = p.train(suite());
  util::fault::configure("");
  ASSERT_EQ(losses.size(), 3u);
  for (const double l : losses) EXPECT_TRUE(std::isfinite(l));
}

// --------------------------------------------------- ensemble degrade --

class EnsembleLoadTest : public FaultInjectTest {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) / "paragraph_ensemble_load";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "ens").string();
  }
  void TearDown() override {
    FaultInjectTest::TearDown();
    std::filesystem::remove_all(dir_);
  }

  core::CapEnsemble make_ensemble() {
    core::EnsembleConfig ec;
    ec.max_vs_ff = {1.0, 10.0, 100.0};
    ec.base.embed_dim = 4;
    ec.base.num_layers = 1;
    ec.base.epochs = 1;
    ec.base.seed = 5;
    return core::CapEnsemble(ec);
  }

  void corrupt_member(std::size_t i) {
    const std::string mp = path_ + ".m" + std::to_string(i);
    std::string bytes = core::read_artifact_file(mp, "test");
    bytes[bytes.size() / 2] ^= 0x40;
    util::write_file_atomic(mp, bytes);
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(EnsembleLoadTest, SaveLoadRoundTrips) {
  make_ensemble().save(path_);
  const core::CapEnsemble loaded = core::CapEnsemble::load(path_);
  EXPECT_EQ(loaded.num_models(), 3u);
  EXPECT_FALSE(loaded.degraded());
  EXPECT_DOUBLE_EQ(loaded.model(0).config().max_v_ff, 1.0);
  EXPECT_DOUBLE_EQ(loaded.model(2).config().max_v_ff, 100.0);
}

TEST_F(EnsembleLoadTest, OneCorruptMemberDegradesGracefully) {
  make_ensemble().save(path_);
  corrupt_member(1);
  const core::CapEnsemble loaded = core::CapEnsemble::load(path_);
  EXPECT_TRUE(loaded.degraded());
  ASSERT_EQ(loaded.num_models(), 2u);
  // The surviving cascade keeps its ascending ranges.
  EXPECT_DOUBLE_EQ(loaded.model(0).config().max_v_ff, 1.0);
  EXPECT_DOUBLE_EQ(loaded.model(1).config().max_v_ff, 100.0);
}

TEST_F(EnsembleLoadTest, MissingMemberAlsoDegrades) {
  make_ensemble().save(path_);
  std::filesystem::remove(path_ + ".m0");
  const core::CapEnsemble loaded = core::CapEnsemble::load(path_);
  EXPECT_TRUE(loaded.degraded());
  EXPECT_EQ(loaded.num_models(), 2u);
}

TEST_F(EnsembleLoadTest, AllMembersCorruptIsTypedError) {
  make_ensemble().save(path_);
  for (std::size_t i = 0; i < 3; ++i) corrupt_member(i);
  EXPECT_THROW(core::CapEnsemble::load(path_), util::CorruptArtifactError);
}

TEST_F(EnsembleLoadTest, CorruptManifestIsTypedError) {
  make_ensemble().save(path_);
  util::write_file_atomic(path_, "not a manifest");
  EXPECT_THROW(core::CapEnsemble::load(path_), util::CorruptArtifactError);
  util::write_file_atomic(path_, "paragraph-ensemble 1\nmembers 9999\n");
  EXPECT_THROW(core::CapEnsemble::load(path_), util::CorruptArtifactError);
  EXPECT_THROW(core::CapEnsemble::load((dir_ / "missing").string()), util::IoError);
}

}  // namespace
}  // namespace paragraph
