#include "inputs.h"

#include <algorithm>
#include <cstdio>

#include "circuit/spice_writer.h"
#include "circuitgen/generator.h"
#include "circuitgen/hier.h"
#include "stats.h"
#include "util/rng.h"

namespace e2ebench {

namespace pg = paragraph;

namespace {

// Index of e1 in paper_suite_specs(): t1..t18 come first.
constexpr std::size_t kFirstTestSpec = 18;

Deck flat_deck(const pg::circuitgen::CircuitSpec& spec, const std::string& name) {
  pg::circuit::Netlist nl = pg::circuitgen::generate_circuit(spec);
  Deck d;
  d.name = name;
  d.devices = nl.num_devices();
  d.text = pg::circuit::write_spice_string(nl);  // pre-layout: no annotations
  return d;
}

// A reduced hier_giant deck. Every hier deck of one run uses the same
// template seed, so they share the hg_cell template (same structural
// hash) and differ in how many columns and cells instantiate it.
Deck hier_deck(std::uint64_t seed, int columns, int cells) {
  pg::circuitgen::HierGiantSpec spec;
  spec.seed = seed;
  spec.columns = columns;
  spec.cells_per_column = cells;
  spec.stages_per_cell = 10;
  spec.name = "hier_" + std::to_string(columns) + "x" + std::to_string(cells);
  Deck d;
  d.name = spec.name;
  d.text = pg::circuitgen::hier_giant_deck(spec);
  d.devices = pg::circuitgen::build_hier_giant(spec).num_devices();
  d.hier = true;
  return d;
}

std::string scale_tag(double scale) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "@%.2g", scale);
  return buf;
}

// `count` pool indices whose multiset follows `weights` exactly (largest
// remainder rounding), in seeded random order. Every seed then sends the
// same mix; only the order differs, which keeps runs comparable.
std::vector<std::size_t> stratified_sequence(const std::vector<double>& weights, std::size_t count,
                                             pg::util::Rng& rng) {
  double total = 0.0;
  for (const double w : weights) total += w;
  std::vector<std::size_t> n(weights.size());
  std::vector<std::pair<double, std::size_t>> rest;
  std::size_t assigned = 0;
  for (std::size_t k = 0; k < weights.size(); ++k) {
    const double exact = weights[k] / total * static_cast<double>(count);
    n[k] = static_cast<std::size_t>(exact);
    assigned += n[k];
    rest.emplace_back(exact - static_cast<double>(n[k]), k);
  }
  std::sort(rest.begin(), rest.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (std::size_t i = 0; assigned < count; ++i, ++assigned) ++n[rest[i % rest.size()].second];
  std::vector<std::size_t> seq;
  for (std::size_t k = 0; k < weights.size(); ++k) seq.insert(seq.end(), n[k], k);
  rng.shuffle(seq);
  return seq;
}

}  // namespace

std::string size_bucket(std::size_t devices) {
  if (devices <= 100) return "<=100";
  if (devices <= 300) return "<=300";
  if (devices <= 1000) return "<=1000";
  if (devices <= 3000) return "<=3000";
  return ">3000";
}

std::vector<Deck> predict_decks(std::uint64_t seed) {
  std::vector<Deck> decks;
  const auto full = pg::circuitgen::paper_suite_specs(seed, 1.0);
  for (std::size_t e = 0; e < 4; ++e)
    decks.push_back(flat_deck(full.at(kFirstTestSpec + e), full.at(kFirstTestSpec + e).name + "@1"));
  const auto quarter = pg::circuitgen::paper_suite_specs(seed, 0.25);
  decks.push_back(flat_deck(quarter.at(kFirstTestSpec), quarter.at(kFirstTestSpec).name + "@0.25"));
  decks.push_back(flat_deck(full.at(3), "t4@1"));
  decks.push_back(hier_deck(seed, 6, 6));
  return decks;
}

ServeInputs serve_inputs(std::uint64_t seed, double rate_per_s, std::size_t open_count,
                         std::size_t closed_count) {
  ServeInputs in;
  // Pool in popularity-rank order. The rank order is fixed so every seed
  // has the same size mix; the seed changes the decks' contents, the
  // request order and the arrival times. It is chosen so the quantiles
  // the benchmark reports fall inside a group of decks of similar cost,
  // not on the edge between two groups, where they would flip from run to
  // run: the ~100-120-device decks (ranks 1, 3, 5; 47% of requests) sit
  // above the two smaller e2 decks (23%), so the median is one of them,
  // and the three ~360-390-device decks take ranks 12-14 (7%), so p95 is
  // one of those. Hier decks hold ranks 6, 9 and 11.
  struct Entry {
    std::size_t test;  // 0..3 = e1..e4 (flat decks)
    double scale;      // suite scale of a flat deck
    int columns = 0;   // > 0: a hier deck of columns x cells
    int cells = 0;
  };
  const Entry order[] = {
      {2, 0.25}, {1, 0.5},    {3, 0.25}, {1, 0.25}, {1, 1.0}, {0, 0, 3, 4}, {2, 0.5},
      {0, 0.25}, {0, 0, 4, 4}, {3, 0.5}, {0, 0, 4, 6}, {2, 1.0}, {0, 0.5},   {3, 1.0},
  };
  std::map<double, std::vector<pg::circuitgen::CircuitSpec>> specs;
  for (const Entry& e : order) {
    if (e.columns > 0) {
      in.pool.push_back(hier_deck(seed, e.columns, e.cells));
      continue;
    }
    auto it = specs.find(e.scale);
    if (it == specs.end())
      it = specs.emplace(e.scale, pg::circuitgen::paper_suite_specs(seed, e.scale)).first;
    const auto& spec = it->second.at(kFirstTestSpec + e.test);
    in.pool.push_back(flat_deck(spec, spec.name + scale_tag(e.scale)));
  }
  // Zipf popularity, exponent 1: rank 1 is requested 14x as often as rank 14.
  for (std::size_t r = 0; r < in.pool.size(); ++r) in.weights.push_back(1.0 / static_cast<double>(r + 1));

  pg::util::Rng rng(seed * 0x2545f4914f6cdd1dULL + 0x5e7e);
  in.open_seq = stratified_sequence(in.weights, open_count, rng);
  in.closed_seq = stratified_sequence(in.weights, closed_count, rng);
  in.open_due_ms = poisson_schedule(seed ^ 0xa11fa11fULL, rate_per_s, open_count);
  return in;
}

InputProperties measure_properties(const std::vector<Deck>& pool,
                                   const std::vector<std::size_t>& seq, std::size_t window) {
  InputProperties p;
  if (seq.empty()) return p;
  std::size_t hier = 0, dup = 0;
  std::vector<bool> seen(pool.size(), false);
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const Deck& d = pool.at(seq[i]);
    hier += d.hier;
    ++p.size_histogram[size_bucket(d.devices)];
    if (!seen[seq[i]]) {
      seen[seq[i]] = true;
      ++distinct;
    }
    for (std::size_t k = 1; k < window && k <= i; ++k)
      if (seq[i - k] == seq[i]) {
        ++dup;
        break;
      }
  }
  const double n = static_cast<double>(seq.size());
  p.hier_share = static_cast<double>(hier) / n;
  p.dup_share = static_cast<double>(dup) / n;
  p.distinct_share = static_cast<double>(distinct) / n;
  return p;
}

}  // namespace e2ebench
