#include "core/serialize.h"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>

#include "obs/log.h"
#include "obs/sketch.h"
#include "util/atomic_file.h"
#include "util/bytes.h"
#include "util/faultinject.h"

namespace paragraph::core {

namespace {

constexpr std::uint32_t kMagic = 0x50477230;  // "PGr0"
// Version history:
//   1: initial format
//   2: adds PredictorConfig::scale after the seed (the dataset-generation
//      scale used at training time, from which loads of v2-v5 files
//      rebuild the normaliser statistics)
//   3: adds PredictorConfig::batch_size and train_threads after the scale
//      (the graph-level data-parallel batch and the runtime thread count
//      the model was trained with)
//   4: appends an FNV-1a-64 checksum of the whole payload as the trailing
//      8 bytes, and the loader rejects trailing garbage. Field layout is
//      unchanged from v3.
//   5: appends the training-set feature-distribution sketches (drift
//      reference, eval/drift.h) after the parameter data and before the
//      checksum. Everything up to the parameter data keeps its v3/v4
//      byte offsets.
//   6: appends the input-feature normaliser after the sketch block and
//      before the checksum: the node-type count (0 for a never-trained
//      model), then per type its feature dimension and float log1p mean
//      and stdev vectors. v1-v5 loads rebuild it from (seed, scale).
constexpr std::uint32_t kVersion = 6;

// Sane maxima for decoded dims/counts. A corrupt or adversarial file must
// not be able to drive multi-gigabyte allocations before the shape check
// against the freshly constructed model runs; these bounds comfortably
// contain every real configuration (paper: embed_dim 32, 5 layers).
constexpr std::uint64_t kMaxEmbedDim = 1024;
constexpr std::uint64_t kMaxLayers = 64;
constexpr std::uint64_t kMaxParams = 1 << 20;
constexpr std::uint64_t kMaxMatrixDim = 1 << 24;
constexpr std::uint64_t kMaxBatch = 1 << 16;
constexpr std::uint64_t kMaxThreads = 1 << 16;
constexpr std::uint64_t kMaxSketches = 4096;
constexpr std::uint64_t kMaxSketchBins = 1024;
constexpr std::uint64_t kMaxSketchName = 256;
// Largest recorded scale a pre-v6 load will regenerate the suite at.
constexpr double kMaxLegacyScale = 64.0;
constexpr std::uint32_t kMaxModelKind = static_cast<std::uint32_t>(gnn::ModelKind::kParaGraphNoConcat);
constexpr std::uint32_t kMaxTargetKind = static_cast<std::uint32_t>(dataset::kNumTargets) - 1;

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

double finite_or_corrupt(double v, util::ByteReader& r, const char* what) {
  if (!std::isfinite(v)) r.corrupt(std::string("non-finite ") + what);
  return v;
}

dataset::FeatureNormalizer read_normalizer(util::ByteReader& r) {
  const auto types = r.pod<std::uint64_t>("normalizer type count");
  if (types != 0 && types != graph::kNumNodeTypes)
    r.corrupt("normalizer type count " + std::to_string(types) + " (expected 0 or " +
              std::to_string(graph::kNumNodeTypes) + ")");
  std::array<dataset::FeatureNormalizer::TypeStats, graph::kNumNodeTypes> state;
  for (std::size_t t = 0; t < types; ++t) {
    const std::size_t dim = graph::feature_dim(static_cast<graph::NodeType>(t));
    if (r.pod<std::uint64_t>("normalizer dim") != dim)
      r.corrupt("normalizer dim mismatch for node type " + std::to_string(t));
    for (std::vector<float>* v : {&state[t].mean, &state[t].stdev}) {
      v->resize(dim);
      std::memcpy(v->data(), r.bytes(dim * sizeof(float), "normalizer statistics").data(),
                  dim * sizeof(float));
      for (const float f : *v)
        if (!std::isfinite(f)) r.corrupt("non-finite normalizer statistic");
    }
  }
  return dataset::FeatureNormalizer::from_state(state);
}

}  // namespace

std::string predictor_to_bytes(const GnnPredictor& predictor) {
  std::ostringstream os(std::ios::binary);
  write_pod(os, kMagic);
  write_pod(os, kVersion);

  const PredictorConfig& c = predictor.config();
  write_pod(os, static_cast<std::uint32_t>(c.model));
  write_pod(os, static_cast<std::uint32_t>(c.target));
  write_pod(os, static_cast<std::uint64_t>(c.embed_dim));
  write_pod(os, static_cast<std::uint64_t>(c.num_layers));
  write_pod(os, static_cast<std::uint64_t>(c.fc_layers));
  write_pod(os, c.max_v_ff);
  write_pod(os, c.epochs);
  write_pod(os, c.learning_rate);
  write_pod(os, c.grad_clip);
  write_pod(os, c.lr_final_fraction);
  write_pod(os, c.seed);
  write_pod(os, c.scale);
  write_pod(os, static_cast<std::uint64_t>(c.batch_size));
  write_pod(os, static_cast<std::uint64_t>(c.train_threads));

  const TargetScaler::State s = predictor.scaler().state();
  write_pod(os, s.zscore);
  write_pod(os, s.log_space);
  write_pod(os, s.mean);
  write_pod(os, s.stdev);
  write_pod(os, s.max_v);

  const auto params = predictor.parameters();
  write_pod(os, static_cast<std::uint64_t>(params.size()));
  for (const auto& p : params) {
    const nn::Matrix& m = p.value();
    write_pod(os, static_cast<std::uint64_t>(m.rows()));
    write_pod(os, static_cast<std::uint64_t>(m.cols()));
    os.write(reinterpret_cast<const char*>(m.data()),
             static_cast<std::streamsize>(m.size() * sizeof(float)));
  }
  // v5 sketch block (drift reference). Placed after the parameter data so
  // everything before it keeps its historical byte offsets.
  const auto& sketches = predictor.feature_sketches();
  write_pod(os, static_cast<std::uint64_t>(sketches.size()));
  for (const auto& sk : sketches) {
    const obs::FeatureSketch::State st = sk.state();
    write_pod(os, static_cast<std::uint64_t>(st.name.size()));
    os.write(st.name.data(), static_cast<std::streamsize>(st.name.size()));
    write_pod(os, st.count);
    write_pod(os, st.mean);
    write_pod(os, st.m2);
    write_pod(os, st.lo);
    write_pod(os, st.hi);
    write_pod(os, st.underflow);
    write_pod(os, st.overflow);
    write_pod(os, static_cast<std::uint64_t>(st.bins.size()));
    for (const std::uint64_t b : st.bins) write_pod(os, b);
  }
  // v6 normaliser block: loading never has to rebuild the training suite.
  const dataset::FeatureNormalizer& norm = predictor.normalizer();
  write_pod(os, static_cast<std::uint64_t>(norm.fitted() ? graph::kNumNodeTypes : 0));
  if (norm.fitted()) {
    for (const auto& ts : norm.state()) {
      write_pod(os, static_cast<std::uint64_t>(ts.mean.size()));
      for (const std::vector<float>* v : {&ts.mean, &ts.stdev})
        os.write(reinterpret_cast<const char*>(v->data()),
                 static_cast<std::streamsize>(v->size() * sizeof(float)));
    }
  }

  std::string bytes = os.str();
  const std::uint64_t checksum = util::fnv1a64(bytes);
  bytes.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return bytes;
}

GnnPredictor predictor_from_bytes(std::string_view bytes, const std::string& context) {
  util::ByteReader header(bytes, context);
  if (header.pod<std::uint32_t>("magic") != kMagic)
    header.corrupt("not a ParaGraph model file (bad magic)");
  const auto version = header.pod<std::uint32_t>("version");
  if (version < 1 || version > kVersion)
    header.corrupt("unsupported format version " + std::to_string(version) + " (this build reads 1.." +
                   std::to_string(kVersion) + ")");

  // v4 carries a trailing checksum over everything before it; verify it
  // first so every later parse error means "malformed", not "bit rot".
  std::string_view payload = bytes;
  if (version >= 4) {
    if (bytes.size() < sizeof(std::uint64_t)) header.corrupt("truncated before checksum");
    payload = bytes.substr(0, bytes.size() - sizeof(std::uint64_t));
    std::uint64_t stored = 0;
    std::memcpy(&stored, bytes.data() + payload.size(), sizeof(stored));
    if (stored != util::fnv1a64(payload)) header.corrupt("payload checksum mismatch");
  }

  util::ByteReader r(payload, context);
  r.pod<std::uint32_t>("magic");
  r.pod<std::uint32_t>("version");

  if (util::fault::should_fail("model.load")) r.corrupt("fault injected (model.load)");

  PredictorConfig c;
  c.model = static_cast<gnn::ModelKind>(
      r.bounded(r.pod<std::uint32_t>("model kind"), 0, kMaxModelKind, "model kind"));
  c.target = static_cast<dataset::TargetKind>(
      r.bounded(r.pod<std::uint32_t>("target kind"), 0, kMaxTargetKind, "target kind"));
  c.embed_dim = static_cast<std::size_t>(
      r.bounded(r.pod<std::uint64_t>("embed_dim"), 1, kMaxEmbedDim, "embed_dim"));
  c.num_layers = static_cast<std::size_t>(
      r.bounded(r.pod<std::uint64_t>("num_layers"), 1, kMaxLayers, "num_layers"));
  c.fc_layers = static_cast<std::size_t>(
      r.bounded(r.pod<std::uint64_t>("fc_layers"), 0, kMaxLayers, "fc_layers"));
  c.max_v_ff = finite_or_corrupt(r.pod<double>("max_v_ff"), r, "max_v_ff");
  c.epochs = r.pod<int>("epochs");
  c.learning_rate =
      static_cast<float>(finite_or_corrupt(r.pod<float>("learning_rate"), r, "learning_rate"));
  c.grad_clip = static_cast<float>(finite_or_corrupt(r.pod<float>("grad_clip"), r, "grad_clip"));
  c.lr_final_fraction = static_cast<float>(
      finite_or_corrupt(r.pod<float>("lr_final_fraction"), r, "lr_final_fraction"));
  c.seed = r.pod<std::uint64_t>("seed");
  // Version 1 predates the scale field; keep the PredictorConfig default
  // (which matches the CLI's historical --scale default).
  if (version >= 2) c.scale = finite_or_corrupt(r.pod<double>("scale"), r, "scale");
  // Version 2 predates the parallel runtime; defaults (batch 1, threads
  // unrecorded) reproduce the serial training schedule those models used.
  if (version >= 3) {
    c.batch_size = static_cast<std::size_t>(
        r.bounded(r.pod<std::uint64_t>("batch_size"), 1, kMaxBatch, "batch_size"));
    c.train_threads = static_cast<std::size_t>(
        r.bounded(r.pod<std::uint64_t>("train_threads"), 0, kMaxThreads, "train_threads"));
  }

  TargetScaler::State s;
  s.zscore = r.pod<bool>("scaler.zscore");
  s.log_space = r.pod<bool>("scaler.log_space");
  s.mean = finite_or_corrupt(r.pod<double>("scaler.mean"), r, "scaler.mean");
  s.stdev = finite_or_corrupt(r.pod<double>("scaler.stdev"), r, "scaler.stdev");
  if (s.zscore && !(s.stdev > 0.0)) r.corrupt("non-positive scaler.stdev");
  s.max_v = finite_or_corrupt(r.pod<double>("scaler.max_v"), r, "scaler.max_v");

  GnnPredictor predictor(c);
  predictor.set_scaler(TargetScaler::from_state(s));

  const auto params = predictor.parameters();
  const auto count = r.bounded(r.pod<std::uint64_t>("parameter count"), 0, kMaxParams,
                               "parameter count");
  if (count != params.size())
    r.corrupt("parameter count mismatch (file has " + std::to_string(count) + ", model expects " +
              std::to_string(params.size()) + ")");
  for (auto p : params) {
    const auto rows =
        static_cast<std::size_t>(r.bounded(r.pod<std::uint64_t>("rows"), 0, kMaxMatrixDim, "rows"));
    const auto cols =
        static_cast<std::size_t>(r.bounded(r.pod<std::uint64_t>("cols"), 0, kMaxMatrixDim, "cols"));
    nn::Matrix& m = p.mutable_value();
    if (rows != m.rows() || cols != m.cols())
      r.corrupt("parameter shape mismatch (file has " + std::to_string(rows) + "x" +
                std::to_string(cols) + ", model expects " + std::to_string(m.rows()) + "x" +
                std::to_string(m.cols()) + ")");
    const std::string_view data = r.bytes(m.size() * sizeof(float), "parameter data");
    std::memcpy(m.data(), data.data(), data.size());
  }
  // v5 sketch block: the drift reference the model was trained against.
  // Earlier formats simply have no sketches (drift checks are skipped).
  if (version >= 5) {
    const auto num_sketches = r.bounded(r.pod<std::uint64_t>("sketch count"), 0, kMaxSketches,
                                        "sketch count");
    std::vector<obs::FeatureSketch> sketches;
    sketches.reserve(static_cast<std::size_t>(num_sketches));
    for (std::uint64_t i = 0; i < num_sketches; ++i) {
      obs::FeatureSketch::State st;
      const auto name_len = r.bounded(r.pod<std::uint64_t>("sketch name length"), 0,
                                      kMaxSketchName, "sketch name length");
      st.name = std::string(r.bytes(static_cast<std::size_t>(name_len), "sketch name"));
      st.count = r.pod<std::uint64_t>("sketch count field");
      st.mean = finite_or_corrupt(r.pod<double>("sketch mean"), r, "sketch mean");
      st.m2 = finite_or_corrupt(r.pod<double>("sketch m2"), r, "sketch m2");
      st.lo = finite_or_corrupt(r.pod<double>("sketch lo"), r, "sketch lo");
      st.hi = finite_or_corrupt(r.pod<double>("sketch hi"), r, "sketch hi");
      st.underflow = r.pod<std::uint64_t>("sketch underflow");
      st.overflow = r.pod<std::uint64_t>("sketch overflow");
      const auto nbins = r.bounded(r.pod<std::uint64_t>("sketch bin count"), 0, kMaxSketchBins,
                                   "sketch bin count");
      st.bins.resize(static_cast<std::size_t>(nbins));
      for (auto& b : st.bins) b = r.pod<std::uint64_t>("sketch bin");
      sketches.push_back(obs::FeatureSketch::from_state(std::move(st)));
    }
    predictor.set_feature_sketches(std::move(sketches));
  }
  if (version >= 6) predictor.set_normalizer(read_normalizer(r));
  // v1-v3 files may carry trailing bytes (historical tools appended
  // nothing, but the loader never policed it); from v4 on the checksum
  // covers the exact payload, so leftovers mean corruption.
  if (version >= 4 && r.remaining() != 0)
    r.corrupt(std::to_string(r.remaining()) + " trailing bytes after parameter data");
  // Files before v6 carry no normaliser: refit it on the suite their
  // recorded (seed, scale) regenerate, as they were trained. The one
  // dataset build on any load path, last so malformed files fail first.
  if (version < 6) {
    if (!(c.scale > 0.0 && c.scale <= kMaxLegacyScale))
      r.corrupt("implausible recorded scale " + std::to_string(c.scale));
    obs::log_warn("serialize",
                  "model predates the persisted normaliser; rebuilding it (re-save to skip)",
                  {{"model", context},
                   {"seed", static_cast<unsigned long long>(c.seed)},
                   {"scale", c.scale}});
    predictor.set_normalizer(dataset::build_dataset(c.seed, c.scale).normalizer);
  }
  return predictor;
}

void save_predictor(const GnnPredictor& predictor, const std::string& path) {
  // AtomicFile publishes with temp + fsync + rename, so a crash or full
  // disk mid-save leaves any previous model file intact.
  util::write_file_atomic(path, predictor_to_bytes(predictor));
}

std::string read_artifact_file(const std::string& path, const char* what,
                               std::uint64_t max_bytes) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) throw util::IoError(std::string(what) + ": cannot open '" + path + "'");
  const auto end = is.tellg();
  if (end < 0) throw util::IoError(std::string(what) + ": cannot stat '" + path + "'");
  const auto size = static_cast<std::uint64_t>(end);
  if (size > max_bytes)
    throw util::CorruptArtifactError(std::string(what) + ": '" + path + "' is implausibly large (" +
                                     std::to_string(size) + " bytes)");
  is.seekg(0);
  std::string bytes(static_cast<std::size_t>(size), '\0');
  is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!is) throw util::IoError(std::string(what) + ": short read from '" + path + "'");
  return bytes;
}

GnnPredictor load_predictor(const std::string& path) {
  const std::string bytes = read_artifact_file(path, "load_predictor");
  return predictor_from_bytes(bytes, "load_predictor: '" + path + "'");
}

}  // namespace paragraph::core
