#ifndef LAZYREP_CORE_FLAGS_H_
#define LAZYREP_CORE_FLAGS_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/parse_number.h"

namespace lazyrep::core {

/// Exit code of a binary given bad command-line input: an unknown flag, a
/// wrong number of arguments, or a value that does not parse or is out of
/// range. lazyrep_cli exits 1 instead, because its 2 means a serializability
/// violation.
inline constexpr int kUsageExit = 2;

/// A binary's command line as one declared table. Each row is a flag the
/// binary reads, an environment variable it honours, or its positional
/// arguments, with a one-line help. A flag row's spelling is the flag as the
/// usage shows it: "--txns=N" takes a value, "--quick" takes none.
///
/// Parse applies the environment rows first, then argv in order, so a later
/// flag overrides an earlier one and every flag overrides the environment.
/// Anything else on the command line is an error.
class Flags {
 public:
  /// Applies one value; returns false with the reason in *error (BadValue's
  /// format).
  using Setter = std::function<bool(std::string_view text, std::string* error)>;

  explicit Flags(int usage_exit = kUsageExit) : usage_exit_(usage_exit) {}

  /// A flag with a value, applied by `set`.
  Flags& Value(std::string_view spelling, Setter set, std::string_view help) {
    return Add(Row::kValue, spelling, std::move(set), help);
  }
  /// A flag whose value is a strict number in [lo, hi] (ParseNumber).
  template <typename T>
  Flags& Number(std::string_view spelling, T* target,
                std::type_identity_t<T> lo, std::type_identity_t<T> hi,
                std::string_view help) {
    return Value(spelling, NumberSetter(spelling, target, lo, hi), help);
  }
  /// A flag whose value is taken as is.
  Flags& Text(std::string_view spelling, std::string* target,
              std::string_view help);
  /// A flag without a value that runs `on`.
  Flags& Switch(std::string_view name, std::function<void()> on,
                std::string_view help);
  /// A flag without a value that sets *target to true.
  Flags& Switch(std::string_view name, bool* target, std::string_view help) {
    return Switch(name, [target] { *target = true; }, help);
  }
  /// An environment variable whose value is a strict number in [lo, hi].
  template <typename T>
  Flags& Env(std::string_view var, T* target, std::type_identity_t<T> lo,
             std::type_identity_t<T> hi, std::string_view help) {
    return Add(Row::kEnv, var, NumberSetter(var, target, lo, hi), help);
  }
  /// The positional arguments: between `min` and `max` of them, each applied
  /// by `set` in order. `spelling` is shown as is ("FILE", "A.trace B.trace",
  /// "[EXCHANGES...]"). At most one such row.
  Flags& Positional(std::string_view spelling, size_t min, size_t max,
                    Setter set, std::string_view help) {
    return Add(Row::kPositional, spelling, std::move(set), help, min, max);
  }

  /// Parses the command line. --help prints the usage and the help rows to
  /// stdout and exits 0. Bad input prints "<argv[0]>: <reason>" and the
  /// usage line to stderr and exits with the constructor's `usage_exit`.
  void Parse(int argc, const char* const* argv) const;

  /// "usage: <prog> ..." naming every flag, wrapped at 80 columns.
  std::string UsageLine(std::string_view prog) const;

 private:
  struct Row {
    enum Kind { kValue, kSwitch, kEnv, kPositional } kind;
    std::string spelling;
    std::string name;  ///< the spelling up to '='
    Setter set;
    std::string help;
    size_t min, max;  ///< positional argument count
  };

  Flags& Add(Row::Kind kind, std::string_view spelling, Setter set,
             std::string_view help, size_t min = 0, size_t max = 0);
  template <typename T>
  static Setter NumberSetter(std::string_view spelling, T* target, T lo,
                             T hi) {
    std::string name(spelling.substr(0, spelling.find('=')));
    return [name, target, lo, hi](std::string_view text, std::string* error) {
      return ParseNumber(name, text, lo, hi, target, error);
    };
  }

  int usage_exit_;
  std::vector<Row> rows_;
};

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_FLAGS_H_
