// Seeded input generator. Every deck the program sees is written here from
// circuitgen at the workload seed; the same seed gives byte-identical
// decks, the same serve request sequence and the same arrival schedule.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

struct Deck {
  std::string name;      // e.g. "e3@1.0", "hier_4x6"
  std::string text;      // pre-layout SPICE
  std::size_t devices = 0;
  bool hier = false;     // has .subckt templates
};

// predict_cli: e1-e4 at suite scale 1.0, e1 at suite scale 0.25 (a second
// small deck), t4 at scale 1.0 (the large flat deck) and one reduced
// hier_giant deck. Seven decks, so the median invocation falls inside one
// deck's block rather than between two.
std::vector<Deck> predict_decks(std::uint64_t seed);

struct ServeInputs {
  std::vector<Deck> pool;
  std::vector<double> weights;           // popularity per pool entry
  std::vector<std::size_t> open_seq;     // pool index per open-loop request
  std::vector<double> open_due_ms;       // due time per open-loop request
  std::vector<std::size_t> closed_seq;   // pool index per saturation request
};

// serve_mixed: flat decks of several sizes plus a minority of reduced
// hier_giant decks sharing one cell template; Zipf-skewed popularity.
ServeInputs serve_inputs(std::uint64_t seed, double rate_per_s, std::size_t open_count,
                         std::size_t closed_count);

// Measured shares of the input properties an optimisation could key on.
struct InputProperties {
  double hier_share = 0.0;       // requests whose deck has .subckt templates
  double dup_share = 0.0;        // requests repeating a deck among the previous window-1
  double distinct_share = 0.0;   // distinct decks over requests
  std::map<std::string, std::size_t> size_histogram;  // device-count bucket -> requests
};

InputProperties measure_properties(const std::vector<Deck>& pool,
                                   const std::vector<std::size_t>& seq, std::size_t window);

// Device-count bucket label: "<=100", "<=300", "<=1000", "<=3000", ">3000".
std::string size_bucket(std::size_t devices);

}  // namespace e2ebench
