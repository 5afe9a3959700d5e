#include "fixtures.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "circuit/spice_parser.h"
#include "graph/hetero_graph.h"
#include "stats.h"

namespace e2ebench {

namespace pg = paragraph;

void note(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::fputs("e2ebench: ", stderr);
  std::vfprintf(stderr, fmt, ap);
  std::fputc('\n', stderr);
  va_end(ap);
}

bool within_tolerance(double got, double ref) {
  return std::isfinite(got) && std::fabs(got - ref) <= kTolAbs + kTolRel * std::fabs(ref);
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string head_of_file(const std::string& path) {
  std::ifstream f(path);
  std::string s(400, '\0');
  f.read(s.data(), static_cast<std::streamsize>(s.size()));
  s.resize(static_cast<std::size_t>(f.gcount()));
  return s;
}

std::string percentile_summary(const std::vector<double>& v) {
  if (v.empty()) return "no samples";
  std::string out;
  char buf[48];
  for (const int p : {50, 90, 95, 97, 99}) {
    std::snprintf(buf, sizeof buf, "p%d %.1f ", p, percentile(v, p));
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "max %.1f ms", percentile(v, 100));
  return out + buf;
}

pg::core::PredictorConfig fixture_config() {
  pg::core::PredictorConfig pc;
  pc.model = pg::gnn::ModelKind::kParaGraph;
  pc.target = pg::dataset::TargetKind::kCap;
  pc.embed_dim = 32;
  pc.num_layers = 5;
  pc.epochs = kFixtureEpochs;
  pc.seed = kFixtureSeed;
  pc.scale = kFixtureScale;
  pc.max_v_ff = kFixtureMaxVff;
  pc.batch_size = 1;
  pc.train_threads = 1;
  return pc;
}

pg::core::GnnPredictor train_fixture_model(const pg::dataset::SuiteDataset& ds) {
  pg::core::GnnPredictor p(fixture_config());
  p.train(ds);
  return p;
}

pg::core::CapEnsemble train_fixture_ensemble(const pg::dataset::SuiteDataset& ds) {
  pg::core::EnsembleConfig ec;
  ec.max_vs_ff = {1.0, 10.0, 100.0, 1e4};
  ec.base = fixture_config();
  pg::core::CapEnsemble ens(ec);
  ens.train(ds);
  return ens;
}

pg::dataset::Sample sample_from_text(const std::string& spice) {
  pg::dataset::Sample s;
  pg::circuit::Netlist nl = pg::circuit::parse_spice_string(spice);
  s.name = nl.name();
  s.graph = pg::graph::build_graph(nl);
  s.netlist = std::move(nl);
  return s;
}

NamedValues named_values(const pg::dataset::Sample& sample, pg::dataset::TargetKind target,
                         const std::vector<float>& preds) {
  NamedValues out;
  std::size_t k = 0;
  for (const auto nt : pg::dataset::target_node_types(target)) {
    for (const auto origin : sample.graph.origins(nt)) {
      if (k >= preds.size()) throw std::runtime_error("fewer predictions than target nodes");
      const std::string& name = nt == pg::graph::NodeType::kNet ? sample.netlist.net(origin).name
                                                                : sample.netlist.device(origin).name;
      out.emplace_back(name, static_cast<double>(preds[k++]));
    }
  }
  return out;
}

bool same_predictions(const NamedValues& got, const NamedValues& ref, std::string* why) {
  if (got.size() != ref.size()) {
    if (why) *why = "got " + std::to_string(got.size()) + " predictions, want " + std::to_string(ref.size());
    return false;
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (got[i].first != ref[i].first || !within_tolerance(got[i].second, ref[i].second)) {
      if (why) {
        char buf[256];
        std::snprintf(buf, sizeof buf, "prediction %zu: got %s=%.9g, want %s=%.9g", i,
                      got[i].first.c_str(), got[i].second, ref[i].first.c_str(), ref[i].second);
        *why = buf;
      }
      return false;
    }
  }
  return true;
}

NamedValues parse_cli_output(const std::string& out) {
  NamedValues v;
  std::istringstream in(out);
  std::string line;
  while (std::getline(in, line)) {
    // The header, and the lines --metrics-out and --mem-stats add, carry no prediction.
    if (line.empty() || line[0] == '#' || line.rfind("wrote metrics to ", 0) == 0 ||
        line.rfind("mem-stats: ", 0) == 0)
      continue;
    std::istringstream ls(line);
    std::string name, token;
    ls >> name >> token;
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (token.empty() || *end != '\0') value = std::nan("");  // unparsable: never matches
    v.emplace_back(name, value);
  }
  return v;
}

pg::obs::JsonValue read_json_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream text;
  text << f.rdbuf();
  std::string error;
  auto doc = pg::obs::JsonValue::parse(text.str(), &error);
  if (!f || !doc) throw std::runtime_error("cannot read JSON " + path + ": " + error);
  return std::move(*doc);
}

ProfileNode profile_node(const pg::obs::JsonValue& doc, const std::string& path) {
  ProfileNode n;
  const auto* profile = doc.find("profile");
  const auto* node = profile != nullptr ? profile->find(path) : nullptr;
  if (node == nullptr) return n;
  if (const auto* c = node->find("count"); c != nullptr && c->is_number()) n.count = c->as_double();
  if (const auto* t = node->find("total_ms"); t != nullptr && t->is_number()) n.total_ms = t->as_double();
  return n;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path);
}

}  // namespace e2ebench
