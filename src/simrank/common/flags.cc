#include "simrank/common/flags.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <type_traits>
#include <utility>

#include "simrank/common/macros.h"
#include "simrank/common/string_util.h"

namespace simrank {

template <typename T>
Status ParseFlagValue(std::string_view text, T* out) {
  if constexpr (std::is_same_v<T, std::string>) {
    *out = std::string(text);
  } else if constexpr (std::is_same_v<T, double>) {
    if (!ParseDouble(text, out)) return Status::InvalidArgument("not a number");
  } else {
    constexpr uint64_t kMax = std::numeric_limits<T>::max();
    uint64_t value = 0;
    if (!ParseUint64(text, &value) || value > kMax) {
      return Status::InvalidArgument(
          StrFormat("not an integer in [0, %llu]",
                    static_cast<unsigned long long>(kMax)));
    }
    *out = static_cast<T>(value);
  }
  return Status::OK();
}

template Status ParseFlagValue(std::string_view, uint16_t*);
template Status ParseFlagValue(std::string_view, uint32_t*);
template Status ParseFlagValue(std::string_view, uint64_t*);
template Status ParseFlagValue(std::string_view, double*);
template Status ParseFlagValue(std::string_view, std::string*);

FlagSet::FlagSet(std::string command, std::string summary)
    : command_(std::move(command)), summary_(std::move(summary)) {}

FlagSet& FlagSet::Positional(std::string_view name, std::string* target) {
  positionals_.push_back({std::string(name), target});
  return *this;
}

FlagSet& FlagSet::AddFlag(std::string_view name, std::string_view value_name,
                          std::string_view help, std::string default_text,
                          ParseFn parse) {
  OIPSIM_CHECK_MSG(StartsWith(name, "--") && Find(name) == flags_.size(),
                   "flag %.*s declared twice or without --",
                   static_cast<int>(name.size()), name.data());
  Flag& flag = flags_.emplace_back();
  flag.name = std::string(name);
  flag.value_name = std::string(value_name);
  flag.help = std::string(help);
  flag.default_text = std::move(default_text);
  flag.parse = std::move(parse);
  return *this;
}

FlagSet& FlagSet::Switch(std::string_view name, bool* target,
                         std::string_view help) {
  return AddFlag(name, "", help, "",
                 [target, value = !*target](std::string_view) {
                   *target = value;
                   return Status::OK();
                 });
}

FlagSet& FlagSet::Custom(std::string_view name, std::string_view value_name,
                         std::string_view help, ParseFn parse) {
  return AddFlag(name, value_name, help, "", std::move(parse));
}

FlagSet& FlagSet::Required() {
  flags_.back().required = true;
  return *this;
}

FlagSet& FlagSet::Repeatable() {
  flags_.back().repeatable = true;
  return *this;
}

size_t FlagSet::Find(std::string_view name) const {
  size_t i = 0;
  while (i < flags_.size() && flags_[i].name != name) ++i;
  return i;
}

bool FlagSet::seen(std::string_view name) const {
  const size_t i = Find(name);
  OIPSIM_CHECK_MSG(i < flags_.size(), "flag %.*s is not declared",
                   static_cast<int>(name.size()), name.data());
  return flags_[i].seen;
}

Status FlagSet::Error(std::string_view message) const {
  return Status::InvalidArgument(command_ + ": " + std::string(message));
}

Status FlagSet::Parse(int argc, const char* const* argv, int first) {
  size_t next_positional = 0;
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help") {
      help_requested_ = true;
      return Status::OK();
    }
    if (!StartsWith(arg, "--")) {
      if (next_positional == positionals_.size()) {
        return Error(StrFormat("unexpected argument '%s'", argv[i]));
      }
      *positionals_[next_positional++].target = std::string(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const size_t index = Find(arg.substr(0, eq));
    if (index == flags_.size()) {
      return Error(StrFormat("unknown flag %s", argv[i]));
    }
    Flag* flag = &flags_[index];
    if (flag->seen && !flag->repeatable) {
      return Error(StrFormat("%s: %s was already given", argv[i],
                             flag->name.c_str()));
    }
    flag->seen = true;
    std::string_view value;
    if (flag->value_name.empty()) {
      if (eq != std::string_view::npos) {
        return Error(StrFormat("%s: %s is a switch and takes no value",
                               argv[i], flag->name.c_str()));
      }
    } else if (eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      value = argv[++i];
    }
    if (value.empty() && !flag->value_name.empty()) {
      return Error(StrFormat("%s needs a value (%s=%s)", flag->name.c_str(),
                             flag->name.c_str(), flag->value_name.c_str()));
    }
    const Status parsed = flag->parse(value);
    if (!parsed.ok()) {
      return Error(StrFormat("%s=%.*s: %s", flag->name.c_str(),
                             static_cast<int>(value.size()), value.data(),
                             parsed.message().c_str()));
    }
  }
  if (next_positional < positionals_.size()) {
    return Error("missing " + positionals_[next_positional].name);
  }
  for (const Flag& flag : flags_) {
    if (flag.required && !flag.seen) {
      return Error(StrFormat("missing %s=%s", flag.name.c_str(),
                             flag.value_name.c_str()));
    }
  }
  return Status::OK();
}

std::optional<int> FlagSet::ParseCommandLine(int argc,
                                             const char* const* argv,
                                             int first) {
  const Status parsed = Parse(argc, argv, first);
  if (parsed.ok() && !help_requested_) return std::nullopt;
  std::fprintf(stderr, "%s%s%s", parsed.message().c_str(),
               parsed.ok() ? "" : "\n\n", Usage().c_str());
  return parsed.ok() ? 0 : 2;
}

int FlagSet::Fail(std::string_view error) const {
  std::fprintf(stderr, "%s\n\n%s", Error(error).message().c_str(),
               Usage().c_str());
  return 2;
}

std::string FlagSet::Usage() const {
  std::string usage = "usage: " + command_;
  for (const PositionalArg& positional : positionals_) {
    usage += ' ' + positional.name;
  }
  usage += " [flags]\n";
  if (!summary_.empty()) usage += '\n' + summary_ + '\n';
  usage += "\nflags:\n";
  auto spelling = [](const Flag& flag) {
    return flag.value_name.empty() ? flag.name
                                   : flag.name + '=' + flag.value_name;
  };
  int width = 0;
  for (const Flag& flag : flags_) {
    width = std::max(width, static_cast<int>(spelling(flag).size()));
  }
  for (const Flag& flag : flags_) {
    usage += StrFormat("  %-*s  %s%s%s", width, spelling(flag).c_str(),
                       flag.help.c_str(), flag.required ? " (required)" : "",
                       flag.repeatable ? " (repeatable)" : "");
    if (!flag.default_text.empty()) {
      usage += " (default " + flag.default_text + ")";
    }
    usage += '\n';
  }
  return usage + StrFormat("  %-*s  print this usage\n", width, "--help");
}

}  // namespace simrank
