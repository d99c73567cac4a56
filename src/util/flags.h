// Tiny command-line flag parser for bench/example binaries.
// Supports --name=value, --name value, and boolean --name / --no-name.
#ifndef GNMR_UTIL_FLAGS_H_
#define GNMR_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace gnmr {
namespace util {

/// Parsed command-line flags with typed accessors and defaults.
///
///   Flags flags(argc, argv);
///   int epochs = flags.GetInt("epochs", 20);
///   bool fast = flags.GetBool("fast", false);
///   flags.CheckOrExit();  // after the last accessor
class Flags {
 public:
  Flags(int argc, char** argv);

  /// True if the flag was present on the command line.
  bool Has(const std::string& name) const;

  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  /// Checks the command line against the accessors called so far: every
  /// flag given must have been asked for by name (Has or a Get*), and
  /// every value read through GetInt/GetDouble must have parsed (the
  /// accessor returned its default instead). Returns the first problem as
  /// InvalidArgument naming the flag.
  Status Check() const;

  /// Check(), printing the problem to stderr and exiting with status 2 on
  /// failure. Binaries call it once, after reading every flag they take.
  void CheckOrExit() const;

  /// Non-flag positional arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  /// Names the accessors were asked for (Check's "known" set).
  mutable std::set<std::string> queried_;
  /// Names whose numeric value failed to parse.
  mutable std::set<std::string> unparsed_;
};

}  // namespace util
}  // namespace gnmr

#endif  // GNMR_UTIL_FLAGS_H_
