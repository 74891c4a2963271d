#include "core/flags.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "sim/check.h"

namespace lazyrep::core {

Flags& Flags::Add(Row::Kind kind, std::string_view spelling, Setter set,
                  std::string_view help, size_t min, size_t max) {
  std::string name(spelling.substr(0, spelling.find('=')));
  for (const Row& row : rows_) {
    LAZYREP_CHECK_MSG(row.name != name && (kind != Row::kPositional ||
                                           row.kind != Row::kPositional),
                      name.c_str());
  }
  rows_.push_back({kind, std::string(spelling), std::move(name),
                   std::move(set), std::string(help), min, max});
  return *this;
}

Flags& Flags::Text(std::string_view spelling, std::string* target,
                   std::string_view help) {
  return Value(spelling,
               [target](std::string_view text, std::string*) {
                 *target = text;
                 return true;
               },
               help);
}

Flags& Flags::Switch(std::string_view name, std::function<void()> on,
                     std::string_view help) {
  return Add(Row::kSwitch, name,
             [on = std::move(on)](std::string_view, std::string*) {
               on();
               return true;
             },
             help);
}

std::string Flags::UsageLine(std::string_view prog) const {
  std::string line = "usage: " + std::string(prog);
  size_t column = line.size();
  auto append = [&](const std::string& word) {
    if (column + 1 + word.size() >= 80) {
      line += "\n      ";
      column = 6;
    }
    line += " " + word;
    column += 1 + word.size();
  };
  for (const Row& row : rows_) {
    if (row.kind == Row::kPositional) append(row.spelling);
  }
  for (const Row& row : rows_) {
    if (row.kind == Row::kValue || row.kind == Row::kSwitch) {
      append("[" + row.spelling + "]");
    }
  }
  return line + "\n";
}

void Flags::Parse(int argc, const char* const* argv) const {
  const char* prog = argv[0];
  auto fail = [&](const std::string& reason) {
    std::fprintf(stderr, "%s: %s\n%s", prog, reason.c_str(),
                 UsageLine(prog).c_str());
    std::exit(usage_exit_);
  };
  std::string error;
  const Row* positional = nullptr;
  for (const Row& row : rows_) {
    if (row.kind == Row::kPositional) positional = &row;
    const char* env =
        row.kind == Row::kEnv ? std::getenv(row.name.c_str()) : nullptr;
    if (env != nullptr && !row.set(env, &error)) fail(error);
  }
  size_t positionals = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help") {
      constexpr size_t kHelpColumn = 26;
      std::string help = UsageLine(prog) + (rows_.empty() ? "" : "\n");
      for (const Row& row : rows_) {
        const size_t width = row.spelling.size() + 2;
        help += "  " + row.spelling +
                (width + 2 > kHelpColumn
                     ? "\n" + std::string(kHelpColumn, ' ')
                     : std::string(kHelpColumn - width, ' ')) +
                row.help + "\n";
      }
      std::fputs(help.c_str(), stdout);
      std::exit(0);
    }
    const Row* match = nullptr;
    std::string_view value = arg;
    if (!arg.starts_with('-')) {
      if (positional == nullptr || positionals == positional->max) {
        fail("unexpected argument '" + std::string(arg) + "'");
      }
      ++positionals;
      match = positional;
    } else {
      for (const Row& row : rows_) {
        if (row.kind == Row::kSwitch && arg == row.name) {
          match = &row;
        } else if (row.kind == Row::kValue &&
                   arg.starts_with(row.name + "=")) {
          match = &row;
          value = arg.substr(row.name.size() + 1);
        }
      }
      if (match == nullptr) fail("unknown flag " + std::string(arg));
    }
    if (!match->set(value, &error)) fail(error);
  }
  if (positional != nullptr && positionals < positional->min) {
    fail("want " + std::to_string(positional->min) + " argument" +
         (positional->min == 1 ? "" : "s") + " (" + positional->spelling +
         "), got " + std::to_string(positionals));
  }
}

}  // namespace lazyrep::core
