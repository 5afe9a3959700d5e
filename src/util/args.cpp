#include "util/args.h"

#include <cstdlib>
#include <stdexcept>

namespace paragraph::util {

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    if (arg.size() == 2) throw std::invalid_argument("ArgParser: bare '--'");
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      options_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[arg.substr(2)] = argv[++i];
    } else {
      options_[arg.substr(2)] = "";  // boolean flag
    }
  }
}

std::vector<std::string> ArgParser::names() const {
  std::vector<std::string> out;
  out.reserve(options_.size());
  for (const auto& [name, value] : options_) out.push_back(name);
  return out;
}

bool ArgParser::has(const std::string& name) const { return options_.contains(name); }

std::string ArgParser::get(const std::string& name, const std::string& fallback) const {
  const auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

long ArgParser::get_int(const std::string& name, long fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  char* end = nullptr;
  const long v = std::strtol(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0')
    throw std::invalid_argument("ArgParser: --" + name + " expects an integer");
  return v;
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0')
    throw std::invalid_argument("ArgParser: --" + name + " expects a number");
  return v;
}

}  // namespace paragraph::util
