// Shared flag parsing for the command-line tools (same syntax as the bench
// binaries: --name value / --name=value).  Each tool declares its flags:
// value flags take a value, switches take none.  An undeclared flag, a
// value flag without a value, a switch given a value, or a bare argument is
// a usage error.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

namespace prodigy::tools {

struct FlagSpec {
  std::set<std::string> values;    // --name VALUE or --name=VALUE
  std::set<std::string> switches;  // --name
};

class Flags {
 public:
  /// Throws std::invalid_argument naming the offending argument.
  Flags(int argc, char** argv, const FlagSpec& spec) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        throw std::invalid_argument("unexpected argument '" + arg + "'");
      }
      const auto eq = arg.find('=');
      const std::string name = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
      if (spec.switches.contains(name)) {
        if (eq != std::string::npos) {
          throw std::invalid_argument("--" + name + " takes no value");
        }
        values_[name] = "1";
      } else if (spec.values.contains(name)) {
        std::string value;
        if (eq != std::string::npos) {
          value = arg.substr(eq + 1);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
          value = argv[++i];
        }
        if (value.empty()) throw std::invalid_argument("--" + name + " needs a value");
        values_[name] = std::move(value);
      } else {
        throw std::invalid_argument("unknown flag --" + name);
      }
    }
  }

  double get(const std::string& name, double fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }
  long long get(const std::string& name, long long fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : std::atoll(it->second.c_str());
  }
  std::string get(const std::string& name, const std::string& fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  bool has(const std::string& name) const { return values_.contains(name); }

 private:
  std::map<std::string, std::string> values_;
};

[[noreturn]] inline void usage(const char* text) {
  std::fputs(text, stderr);
  std::exit(2);
}

/// Parses the tool's flags; on a usage error prints it and `usage_text` to
/// stderr and exits 2.
inline Flags parse_flags(int argc, char** argv, const FlagSpec& spec,
                         const char* usage_text) {
  try {
    return Flags(argc, argv, spec);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage(usage_text);
  }
}

}  // namespace prodigy::tools
