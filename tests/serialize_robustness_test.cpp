// Corrupt-artifact matrix for the model-file and checkpoint formats:
// truncation at every boundary, bit flips anywhere in a v4-v6 file,
// flipped magic/version, oversized dims on checksum-less (v3) files,
// hostile fields inside the v5 sketch block and the v6 normaliser block
// (reached by restamping the checksum), version compatibility for both
// blocks, and round-trip integrity. Every rejection must be the typed error the API documents —
// never a crash, hang, or silent misload.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/serialize.h"
#include "obs/sketch.h"
#include "util/atomic_file.h"
#include "util/bytes.h"
#include "util/errors.h"

namespace paragraph::core {
namespace {

// Byte offsets of the fixed header fields (see predictor_to_bytes).
constexpr std::size_t kOffVersion = 4;
constexpr std::size_t kOffEmbedDim = 16;
constexpr std::size_t kOffScalerZscore = 96;
constexpr std::size_t kOffScalerStdev = 106;
constexpr std::size_t kOffParamCount = 122;
constexpr std::size_t kOffScale = 72;
constexpr std::size_t kOffFirstRows = 130;
// A never-trained model's v6 normaliser block is a zero node-type count.
// With the checksum it forms the file's tail.
constexpr std::size_t kEmptyNormBlock = 8;
constexpr std::size_t kTail = kEmptyNormBlock + sizeof(std::uint64_t);

PredictorConfig tiny_config() {
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.embed_dim = 4;
  pc.num_layers = 1;
  pc.fc_layers = 1;
  // Pre-v6 restamps rebuild the normaliser at the recorded scale on
  // load; keep that suite small.
  pc.scale = 0.05;
  return pc;
}

std::string tiny_model_bytes() {
  const GnnPredictor p(tiny_config());  // untrained weights serialize fine
  return predictor_to_bytes(p);
}

// Deterministic statistics of the right shape, so the v6 block can be
// exercised without building a dataset.
dataset::FeatureNormalizer synthetic_normalizer() {
  std::array<dataset::FeatureNormalizer::TypeStats, graph::kNumNodeTypes> st;
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
    const std::size_t dim = graph::feature_dim(static_cast<graph::NodeType>(t));
    for (std::size_t c = 0; c < dim; ++c) {
      st[t].mean.push_back(0.25f * static_cast<float>(t) + 0.125f * static_cast<float>(c));
      st[t].stdev.push_back(1.0f + 0.5f * static_cast<float>(c));
    }
  }
  return dataset::FeatureNormalizer::from_state(st);
}

std::string fitted_model_bytes() {
  GnnPredictor p(tiny_config());
  p.set_normalizer(synthetic_normalizer());
  return predictor_to_bytes(p);
}

// Offset of the v6 normaliser block in a fitted model's bytes.
std::size_t norm_block_start(const std::string& bytes) {
  std::size_t block = 8;
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t)
    block += 8 + 2 * sizeof(float) * graph::feature_dim(static_cast<graph::NodeType>(t));
  return bytes.size() - sizeof(std::uint64_t) - block;
}

// Strips the v4 checksum and stamps an older version so corruption of
// individual fields reaches the bounded readers instead of the checksum.
std::string as_version3(std::string bytes) {
  bytes.resize(bytes.size() - sizeof(std::uint64_t));
  const std::uint32_t v3 = 3;
  std::memcpy(bytes.data() + kOffVersion, &v3, sizeof(v3));
  return bytes;
}

template <typename T>
void patch(std::string& bytes, std::size_t off, T value) {
  ASSERT_LE(off + sizeof(T), bytes.size());
  std::memcpy(bytes.data() + off, &value, sizeof(T));
}

std::vector<obs::FeatureSketch> sample_sketches() {
  obs::FeatureSketch binned("net.f0");
  binned.configure_bins(-1.0, 3.0, 8);
  for (int i = 0; i < 100; ++i) binned.add(-1.5 + 0.05 * i);
  obs::FeatureSketch moments_only("graph.total_nodes");
  moments_only.add(4.0);
  moments_only.add(9.0);
  return {binned, moments_only};
}

std::string sketch_model_bytes() {
  GnnPredictor p(tiny_config());
  p.set_feature_sketches(sample_sketches());
  return predictor_to_bytes(p);
}

// Recomputes the v4+ trailing checksum after a test mutated the payload,
// so hostile field values reach the bounded block readers instead of
// tripping the checksum first.
std::string restamp_checksum(std::string bytes) {
  bytes.resize(bytes.size() - sizeof(std::uint64_t));
  const std::uint64_t sum = util::fnv1a64(bytes);
  bytes.append(reinterpret_cast<const char*>(&sum), sizeof(sum));
  return bytes;
}

TEST(SerializeRobustness, BytesRoundTripPreservesConfigAndWeights) {
  const std::string bytes = tiny_model_bytes();
  const GnnPredictor loaded = predictor_from_bytes(bytes, "round-trip");
  EXPECT_EQ(loaded.config().embed_dim, 4u);
  EXPECT_EQ(loaded.config().num_layers, 1u);
  // Re-serialising must reproduce the exact bytes (weights included).
  EXPECT_EQ(predictor_to_bytes(loaded), bytes);
}

TEST(SerializeRobustness, TruncationAtEveryBoundaryIsTyped) {
  const std::string bytes = tiny_model_bytes();
  // Every header-field boundary, plus a sweep through the parameter data
  // and the checksum region.
  std::vector<std::size_t> cuts = {0,  1,  4,   8,   12,  16,  24,  32,  40,  48, 52,
                                   56, 60, 64,  72,  80,  88,  96,  97,  98,  106, 114,
                                   122, 130, 138, 146, bytes.size() - 9, bytes.size() - 8,
                                   bytes.size() - 1};
  for (std::size_t step = 151; step < bytes.size(); step += 151) cuts.push_back(step);
  for (const std::size_t cut : cuts) {
    ASSERT_LT(cut, bytes.size());
    EXPECT_THROW(predictor_from_bytes(bytes.substr(0, cut), "truncated"),
                 util::CorruptArtifactError)
        << "cut at " << cut;
  }
}

TEST(SerializeRobustness, ChecksumCatchesBitFlipsAnywhere) {
  const std::string pristine = tiny_model_bytes();
  // Flipping any single bit — header, weights, or the checksum itself —
  // must be detected. Sample positions across the whole file.
  for (std::size_t pos = 8; pos < pristine.size(); pos += 97) {
    std::string bytes = pristine;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x10);
    EXPECT_THROW(predictor_from_bytes(bytes, "bit flip"), util::CorruptArtifactError)
        << "flip at " << pos;
  }
}

TEST(SerializeRobustness, BadMagicAndFutureVersionAreTyped) {
  std::string bytes = tiny_model_bytes();
  {
    std::string bad = bytes;
    patch<std::uint32_t>(bad, 0, 0xdeadbeef);
    EXPECT_THROW(predictor_from_bytes(bad, "magic"), util::CorruptArtifactError);
  }
  {
    std::string bad = bytes;
    patch<std::uint32_t>(bad, kOffVersion, 99);
    EXPECT_THROW(predictor_from_bytes(bad, "version"), util::CorruptArtifactError);
  }
  EXPECT_THROW(predictor_from_bytes("", "empty"), util::CorruptArtifactError);
  EXPECT_THROW(predictor_from_bytes("definitely not a model", "garbage"),
               util::CorruptArtifactError);
}

TEST(SerializeRobustness, OversizedDimsAreBoundedBeforeAllocation) {
  // On v3 files (no checksum) a hostile dim reaches the bounded readers;
  // they must reject it before any allocation sized by the field.
  const std::string v3 = as_version3(tiny_model_bytes());
  {
    std::string bad = v3;
    patch<std::uint64_t>(bad, kOffEmbedDim, std::uint64_t{1} << 40);
    EXPECT_THROW(predictor_from_bytes(bad, "embed"), util::CorruptArtifactError);
  }
  {
    std::string bad = v3;
    patch<std::uint64_t>(bad, kOffParamCount, std::uint64_t{1} << 40);
    EXPECT_THROW(predictor_from_bytes(bad, "count"), util::CorruptArtifactError);
  }
  {
    std::string bad = v3;
    patch<std::uint64_t>(bad, kOffFirstRows, std::uint64_t{1} << 40);
    EXPECT_THROW(predictor_from_bytes(bad, "rows"), util::CorruptArtifactError);
  }
}

TEST(SerializeRobustness, NonFiniteAndInvalidScalerStateRejected) {
  const std::string v3 = as_version3(tiny_model_bytes());
  {
    std::string bad = v3;
    patch<double>(bad, 40, std::numeric_limits<double>::quiet_NaN());  // max_v_ff
    EXPECT_THROW(predictor_from_bytes(bad, "nan"), util::CorruptArtifactError);
  }
  {
    // z-score scaler with stdev 0 would divide by zero on every inverse.
    std::string bad = v3;
    patch<bool>(bad, kOffScalerZscore, true);
    patch<double>(bad, kOffScalerStdev, 0.0);
    EXPECT_THROW(predictor_from_bytes(bad, "stdev"), util::CorruptArtifactError);
  }
}

TEST(SerializeRobustness, V4RejectsTrailingBytesV3Tolerates) {
  std::string v4 = tiny_model_bytes();
  v4.append("junk");
  EXPECT_THROW(predictor_from_bytes(v4, "trailing"), util::CorruptArtifactError);
  // v1-v3 files historically carried no length policing; they must keep
  // loading (the version-compat tests rewrite current files in place and
  // rely on this).
  std::string v3 = as_version3(tiny_model_bytes());
  v3.append("junk");
  EXPECT_NO_THROW(predictor_from_bytes(v3, "v3 trailing"));
}

TEST(SerializeRobustness, V5SketchBlockRoundTrips) {
  const std::string bytes = sketch_model_bytes();
  const GnnPredictor loaded = predictor_from_bytes(bytes, "v5 round-trip");
  const auto want = sample_sketches();
  const auto& got = loaded.feature_sketches();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].name(), want[i].name());
    EXPECT_EQ(got[i].count(), want[i].count());
    EXPECT_DOUBLE_EQ(got[i].mean(), want[i].mean());
    EXPECT_DOUBLE_EQ(got[i].m2(), want[i].m2());
    EXPECT_DOUBLE_EQ(got[i].lo(), want[i].lo());
    EXPECT_DOUBLE_EQ(got[i].hi(), want[i].hi());
    EXPECT_EQ(got[i].bins(), want[i].bins());
    EXPECT_EQ(got[i].underflow(), want[i].underflow());
    EXPECT_EQ(got[i].overflow(), want[i].overflow());
  }
  // Byte-exact re-serialisation, sketches included.
  EXPECT_EQ(predictor_to_bytes(loaded), bytes);
}

TEST(SerializeRobustness, V4FilesWithoutSketchBlockStillLoad) {
  // A v4 file is the v6 layout minus the sketch and normaliser blocks:
  // drop the empty sketch count and the block after it, stamp version 4,
  // restamp.
  std::string bytes = tiny_model_bytes();
  bytes.erase(bytes.size() - kTail - 8, 8 + kEmptyNormBlock);
  patch<std::uint32_t>(bytes, kOffVersion, 4);
  bytes = restamp_checksum(bytes);
  const GnnPredictor loaded = predictor_from_bytes(bytes, "v4 compat");
  EXPECT_TRUE(loaded.feature_sketches().empty());
  EXPECT_TRUE(loaded.normalizer().fitted());  // rebuilt from (seed, scale)
}

TEST(SerializeRobustness, PreV5FilesCarryNoSketches) {
  const GnnPredictor loaded =
      predictor_from_bytes(as_version3(tiny_model_bytes()), "v3 compat");
  EXPECT_TRUE(loaded.feature_sketches().empty());
}

TEST(SerializeRobustness, TruncationInsideSketchBlockIsTyped) {
  const std::string with = sketch_model_bytes();
  const std::string without = tiny_model_bytes();
  ASSERT_GT(with.size(), without.size());
  // The sketch block spans [params_end, normaliser block); sweep cuts
  // through it and on to the end.
  const std::size_t block_start = without.size() - kTail - 8;
  for (std::size_t cut = block_start; cut < with.size(); cut += 7) {
    EXPECT_THROW(predictor_from_bytes(with.substr(0, cut), "sketch truncation"),
                 util::CorruptArtifactError)
        << "cut at " << cut;
  }
}

TEST(SerializeRobustness, HostileSketchFieldsAreBoundedBeforeAllocation) {
  const std::string with = sketch_model_bytes();
  const std::string without = tiny_model_bytes();
  // Sketch count sits where the empty block's count sat.
  const std::size_t off_count = without.size() - kTail - 8;
  {
    std::string bad = with;
    patch<std::uint64_t>(bad, off_count, std::uint64_t{1} << 40);
    EXPECT_THROW(predictor_from_bytes(restamp_checksum(bad), "sketch count"),
                 util::CorruptArtifactError);
  }
  {
    // First sketch's name length field follows the count.
    std::string bad = with;
    patch<std::uint64_t>(bad, off_count + 8, std::uint64_t{1} << 40);
    EXPECT_THROW(predictor_from_bytes(restamp_checksum(bad), "sketch name length"),
                 util::CorruptArtifactError);
  }
  {
    // First sketch layout after the name: count(8) mean(8) m2(8) lo(8)
    // hi(8) underflow(8) overflow(8) nbins(8). Poison the mean with NaN
    // and the bin count with an absurd value.
    const std::size_t name_len = std::string("net.f0").size();
    const std::size_t off_fields = off_count + 8 + 8 + name_len;
    std::string bad = with;
    patch<double>(bad, off_fields + 8, std::numeric_limits<double>::quiet_NaN());
    EXPECT_THROW(predictor_from_bytes(restamp_checksum(bad), "sketch mean"),
                 util::CorruptArtifactError);
    std::string bad2 = with;
    patch<std::uint64_t>(bad2, off_fields + 7 * 8, std::uint64_t{1} << 40);
    EXPECT_THROW(predictor_from_bytes(restamp_checksum(bad2), "sketch bins"),
                 util::CorruptArtifactError);
  }
}

TEST(SerializeRobustness, ChecksumCatchesBitFlipsInSketchBlock) {
  const std::string pristine = sketch_model_bytes();
  const std::size_t block_start = tiny_model_bytes().size() - kTail - 8;
  for (std::size_t pos = block_start; pos < pristine.size(); pos += 13) {
    std::string bytes = pristine;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x04);
    EXPECT_THROW(predictor_from_bytes(bytes, "sketch bit flip"), util::CorruptArtifactError)
        << "flip at " << pos;
  }
}

TEST(SerializeRobustness, V6NormalizerBlockRoundTrips) {
  const std::string bytes = fitted_model_bytes();
  const GnnPredictor loaded = predictor_from_bytes(bytes, "v6 round-trip");
  ASSERT_TRUE(loaded.normalizer().fitted());
  // Exact statistics: PlanCache embedding keys hash them.
  EXPECT_EQ(loaded.normalizer().fingerprint(), synthetic_normalizer().fingerprint());
  EXPECT_EQ(predictor_to_bytes(loaded), bytes);
  // A never-trained model round-trips its empty block without refitting.
  EXPECT_FALSE(predictor_from_bytes(tiny_model_bytes(), "empty").normalizer().fitted());
}

TEST(SerializeRobustness, TruncationAtEveryNormalizerBoundaryIsTyped) {
  const std::string bytes = fitted_model_bytes();
  const std::string payload = bytes.substr(0, bytes.size() - sizeof(std::uint64_t));
  // Boundaries: block start, after the type count, then per type after
  // its dim, its mean vector and its stdev vector (each also +-1 byte).
  std::vector<std::size_t> cuts;
  std::size_t off = norm_block_start(bytes);
  const auto mark = [&](std::size_t at) {
    for (const std::size_t c : {at - 1, at, at + 1})
      if (c < payload.size()) cuts.push_back(c);
  };
  mark(off);
  off += 8;
  mark(off);
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
    const std::size_t vec = sizeof(float) * graph::feature_dim(static_cast<graph::NodeType>(t));
    for (const std::size_t step : {std::size_t{8}, vec, vec}) {
      off += step;
      mark(off);
    }
  }
  ASSERT_EQ(off, payload.size());
  for (const std::size_t cut : cuts) {
    // Raw truncation trips the checksum; a restamped one reaches the
    // block parser's length checks.
    EXPECT_THROW(predictor_from_bytes(bytes.substr(0, cut), "truncated"),
                 util::CorruptArtifactError)
        << "cut at " << cut;
    EXPECT_THROW(predictor_from_bytes(restamp_checksum(payload.substr(0, cut) + "checksum"),
                                      "restamped truncation"),
                 util::CorruptArtifactError)
        << "restamped cut at " << cut;
  }
}

TEST(SerializeRobustness, HostileNormalizerFieldsAreTyped) {
  const std::string good = fitted_model_bytes();
  const std::size_t off_types = norm_block_start(good);
  const auto rejects = [](std::string bad, const char* what) {
    EXPECT_THROW(predictor_from_bytes(restamp_checksum(std::move(bad)), what),
                 util::CorruptArtifactError)
        << what;
  };
  for (const std::uint64_t types :
       {std::uint64_t{0}, std::uint64_t{graph::kNumNodeTypes - 1},
        std::uint64_t{graph::kNumNodeTypes + 1}, std::uint64_t{1} << 40}) {
    std::string bad = good;
    patch<std::uint64_t>(bad, off_types, types);
    rejects(bad, "type count");
  }
  // Per-type dimension must match graph::feature_dim(t): off by one either
  // way, and absurd, for the first and the last node type.
  std::size_t off_last_dim = off_types + 8;
  for (std::size_t t = 0; t + 1 < graph::kNumNodeTypes; ++t)
    off_last_dim += 8 + 2 * sizeof(float) * graph::feature_dim(static_cast<graph::NodeType>(t));
  const std::uint64_t dim0 = graph::feature_dim(static_cast<graph::NodeType>(0));
  const std::uint64_t dim_last =
      graph::feature_dim(static_cast<graph::NodeType>(graph::kNumNodeTypes - 1));
  for (const auto& [off, dim] : {std::pair{off_types + 8, dim0}, std::pair{off_last_dim, dim_last}}) {
    for (const std::uint64_t wrong : {dim + 1, dim - 1, std::uint64_t{1} << 40}) {
      std::string bad = good;
      patch<std::uint64_t>(bad, off, wrong);
      rejects(bad, "dim");
    }
  }
  // Non-finite statistics: first mean entry, last stdev entry.
  const std::size_t off_first_mean = off_types + 16;
  const std::size_t off_last_stdev = good.size() - sizeof(std::uint64_t) - sizeof(float);
  for (const std::size_t off : {off_first_mean, off_last_stdev}) {
    for (const float v : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
      std::string bad = good;
      patch<float>(bad, off, v);
      rejects(bad, "non-finite statistic");
    }
  }
}

TEST(SerializeRobustness, LegacyRebuildRejectsImplausibleScale) {
  // Pre-v6 loads regenerate the suite at the recorded scale; a hostile
  // scale must be refused before it can drive that rebuild.
  for (const double scale : {0.0, -1.0, 1e9}) {
    std::string bad = as_version3(tiny_model_bytes());
    patch<double>(bad, kOffScale, scale);
    EXPECT_THROW(predictor_from_bytes(bad, "scale"), util::CorruptArtifactError) << scale;
  }
}

TEST(SerializeRobustness, FileLayerErrorsAreTyped) {
  EXPECT_THROW(load_predictor("/nonexistent/dir/model.bin"), util::IoError);
  const std::string path = ::testing::TempDir() + "serialize_robustness_garbage.bin";
  util::write_file_atomic(path, "short");
  EXPECT_THROW(load_predictor(path), util::CorruptArtifactError);
  std::remove(path.c_str());
}

class CheckpointFileTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  static TrainCheckpoint sample() {
    TrainCheckpoint ck;
    ck.next_epoch = 7;
    ck.lr_scale = 0.5f;
    ck.nonfinite_streak = 1;
    ck.has_best = true;
    ck.best_loss = 0.125;
    ck.best_params = {nn::Matrix(2, 3, {1, 2, 3, 4, 5, 6})};
    ck.shuffle_rng = {{11, 22, 33, 44}, 0.5, true};
    ck.adam_steps = 42;
    ck.adam_m = {nn::Matrix(2, 3, {0, 0, 0, 0, 0, 1})};
    ck.adam_v = {nn::Matrix(2, 3, {1, 0, 0, 0, 0, 0})};
    ck.model_bytes = tiny_model_bytes();
    return ck;
  }

  std::string path_ = ::testing::TempDir() + "paragraph_ckpt_robustness.bin";
};

TEST_F(CheckpointFileTest, RoundTripPreservesEveryField) {
  const TrainCheckpoint ck = sample();
  save_checkpoint(ck, path_);
  const TrainCheckpoint r = load_checkpoint(path_);
  EXPECT_EQ(r.next_epoch, ck.next_epoch);
  EXPECT_EQ(r.lr_scale, ck.lr_scale);
  EXPECT_EQ(r.nonfinite_streak, ck.nonfinite_streak);
  EXPECT_EQ(r.has_best, ck.has_best);
  EXPECT_EQ(r.best_loss, ck.best_loss);
  ASSERT_EQ(r.best_params.size(), 1u);
  EXPECT_EQ(r.best_params[0].rows(), 2u);
  EXPECT_EQ(r.best_params[0].cols(), 3u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(r.shuffle_rng.words[i], ck.shuffle_rng.words[i]);
  EXPECT_EQ(r.shuffle_rng.cached_normal, ck.shuffle_rng.cached_normal);
  EXPECT_EQ(r.shuffle_rng.has_cached_normal, ck.shuffle_rng.has_cached_normal);
  EXPECT_EQ(r.adam_steps, ck.adam_steps);
  ASSERT_EQ(r.adam_m.size(), 1u);
  ASSERT_EQ(r.adam_v.size(), 1u);
  EXPECT_EQ(r.model_bytes, ck.model_bytes);
}

TEST_F(CheckpointFileTest, CorruptionMatrixIsTyped) {
  save_checkpoint(sample(), path_);
  std::string bytes;
  {
    const std::string loaded = read_artifact_file(path_, "test");
    bytes = loaded;
  }
  // Truncations sweep the whole file; bit flips sample it.
  for (std::size_t cut = 0; cut < bytes.size(); cut += 67) {
    util::write_file_atomic(path_, bytes.substr(0, cut));
    EXPECT_THROW(load_checkpoint(path_), util::CorruptArtifactError) << "cut " << cut;
  }
  for (std::size_t pos = 0; pos < bytes.size(); pos += 131) {
    std::string bad = bytes;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x01);
    util::write_file_atomic(path_, bad);
    EXPECT_THROW(load_checkpoint(path_), util::CorruptArtifactError) << "flip " << pos;
  }
  EXPECT_THROW(load_checkpoint("/nonexistent/dir/ck.bin"), util::IoError);
}

}  // namespace
}  // namespace paragraph::core
