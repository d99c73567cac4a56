#include "src/util/flags.h"

#include <cstdio>
#include <cstdlib>

#include "src/util/string_util.h"

namespace gnmr {
namespace util {

Flags::Flags(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    if (StartsWith(body, "no-")) {
      values_[body.substr(3)] = "false";
      continue;
    }
    // --name value (if next token is not a flag) else boolean --name.
    if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      values_[body] = argv[i + 1];
      ++i;
    } else {
      values_[body] = "true";
    }
  }
}

bool Flags::Has(const std::string& name) const {
  queried_.insert(name);
  return values_.count(name) > 0;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& default_value) const {
  queried_.insert(name);
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

int64_t Flags::GetInt(const std::string& name, int64_t default_value) const {
  queried_.insert(name);
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  auto parsed = ParseInt64(it->second);
  if (parsed.ok()) return parsed.value();
  unparsed_.insert(name);
  return default_value;
}

double Flags::GetDouble(const std::string& name, double default_value) const {
  queried_.insert(name);
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  auto parsed = ParseDouble(it->second);
  if (parsed.ok()) return parsed.value();
  unparsed_.insert(name);
  return default_value;
}

bool Flags::GetBool(const std::string& name, bool default_value) const {
  queried_.insert(name);
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const std::string& v = it->second;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

Status Flags::Check() const {
  for (const auto& [name, value] : values_) {
    if (queried_.count(name) == 0) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    if (unparsed_.count(name) > 0) {
      return Status::InvalidArgument("flag --" + name + "=" + value +
                                     " is not a number");
    }
  }
  return Status::OK();
}

void Flags::CheckOrExit() const {
  const Status status = Check();
  if (status.ok()) return;
  std::fprintf(stderr, "%s: %s\n", program_.c_str(),
               status.message().c_str());
  std::exit(2);
}

}  // namespace util
}  // namespace gnmr
