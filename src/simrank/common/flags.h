// Typed command-line flags: one table per tool or subcommand.
//
// Each flag is declared once, bound to the field it sets — usually a field
// of a library options struct, so the struct's own Validate() stays the
// one place its range is checked. A number must fit its field's type
// (nothing narrows silently), value flags take --name=VALUE or
// --name VALUE, switches take no value, and --help prints a usage
// generated from the table, with the default read from each bound field.
#ifndef OIPSIM_SIMRANK_COMMON_FLAGS_H_
#define OIPSIM_SIMRANK_COMMON_FLAGS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "simrank/common/status.h"

namespace simrank {

/// Parses one flag value into a typed target: uint16_t, uint32_t or
/// uint64_t (decimal, and it must fit), double or std::string. The error
/// says why the text does not fit (the caller names the flag).
template <typename T>
Status ParseFlagValue(std::string_view text, T* out);

class FlagSet {
 public:
  /// Parses one value of a Custom flag and stores it wherever it belongs.
  using ParseFn = std::function<Status(std::string_view value)>;

  /// `command` starts the usage line and every error message (e.g.
  /// "simrank_cli build-index"); `summary` is printed under the usage line.
  FlagSet(std::string command, std::string summary);

  /// A required positional argument; positionals bind in declaration order.
  FlagSet& Positional(std::string_view name, std::string* target);

  /// A value flag bound to `target` (uint16_t, uint32_t, uint64_t, double
  /// or std::string, or std::optional of one). The target's current value
  /// is the default usage shows.
  template <typename T>
  FlagSet& Add(std::string_view name, std::string_view value_name,
               T* target, std::string_view help) {
    return AddFlag(name, value_name, help, DefaultText(*target),
                   [target](std::string_view value) {
                     return ParseFlagValue(value, target);
                   });
  }

  /// A value flag whose absence leaves `target` empty; no default shown.
  template <typename T>
  FlagSet& Add(std::string_view name, std::string_view value_name,
               std::optional<T>* target, std::string_view help) {
    return AddFlag(name, value_name, help, "",
                   [target](std::string_view value) {
                     T parsed{};
                     Status status = ParseFlagValue(value, &parsed);
                     if (status.ok()) *target = parsed;
                     return status;
                   });
  }

  /// A switch: takes no value and flips `target` from its current value.
  FlagSet& Switch(std::string_view name, bool* target, std::string_view help);

  /// A value flag whose text `parse` interprets.
  FlagSet& Custom(std::string_view name, std::string_view value_name,
                  std::string_view help, ParseFn parse);

  /// Marks the flag declared last as required, or as repeatable.
  FlagSet& Required();
  FlagSet& Repeatable();

  /// Parses argv[first, argc) into the bound targets. --help stops parsing
  /// and sets help_requested(). Errors: an unknown flag, a missing or
  /// malformed value, a value that does not fit its type, a repeated flag
  /// that is not repeatable, a switch given a value, a missing required
  /// flag or positional, an extra positional.
  Status Parse(int argc, const char* const* argv, int first);

  /// Parse, with the outcome every tool handles alike: after --help the
  /// usage goes to stderr and the exit code is 0; after an error the error
  /// and the usage go to stderr and the exit code is 2. nullopt: go on.
  std::optional<int> ParseCommandLine(int argc, const char* const* argv,
                                      int first);

  /// Prints `error`, prefixed with the command, and the usage to stderr
  /// and returns exit code 2: for the checks across flags that Parse
  /// cannot make.
  int Fail(std::string_view error) const;

  /// True when the flag (declared in this set) was given.
  bool seen(std::string_view name) const;
  bool help_requested() const { return help_requested_; }

  /// "usage: COMMAND POSITIONALS [flags]", the summary, then one line per
  /// flag with its help and its default.
  std::string Usage() const;

 private:
  struct Flag {
    std::string name;
    std::string value_name;  // empty for a switch
    std::string help;
    std::string default_text;  // empty: no default shown
    ParseFn parse;             // a switch's ignores its (empty) value
    bool required = false;
    bool repeatable = false;
    bool seen = false;
  };
  struct PositionalArg {
    std::string name;
    std::string* target;
  };

  template <typename T>
  static std::string DefaultText(const T& value) {
    std::ostringstream text;
    text << value;
    return text.str();
  }

  FlagSet& AddFlag(std::string_view name, std::string_view value_name,
                   std::string_view help, std::string default_text,
                   ParseFn parse);
  /// Index of the flag named `name`; flags_.size() when undeclared.
  size_t Find(std::string_view name) const;
  Status Error(std::string_view message) const;

  std::string command_;
  std::string summary_;
  std::vector<Flag> flags_;
  std::vector<PositionalArg> positionals_;
  bool help_requested_ = false;
};

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_COMMON_FLAGS_H_
