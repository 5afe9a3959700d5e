// Minimal command-line argument parser for the tools and benches.
// Supports `--name value`, `--name=value`, boolean `--flag`, and
// positional arguments.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace paragraph::util {

class ArgParser {
 public:
  // argv[0] is skipped. Throws std::invalid_argument on `--` with no name.
  ArgParser(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  // Value accessors; return `fallback` when the option is absent. Throw
  // std::invalid_argument when present but unparsable.
  std::string get(const std::string& name, const std::string& fallback = "") const;
  long get_int(const std::string& name, long fallback) const;
  double get_double(const std::string& name, double fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }
  // Every option name given, without the leading "--", sorted.
  std::vector<std::string> names() const;

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace paragraph::util
