#include "tools/bench_to_json_lib.h"

#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

namespace lazyrep::tools {
namespace {

bool IsNumber(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0';
}

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Shallow well-formedness check for a one-line run object: braces balance
/// outside of string literals and the line closes the object it opened.
/// Full JSON validation is out of scope — this only has to distinguish a
/// complete record from a truncated or mangled one.
bool LooksLikeRunObject(const std::string& s) {
  if (s.size() < 2 || s.front() != '{' || s.back() != '}') return false;
  int depth = 0;
  bool in_string = false, escaped = false;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}') {
      if (--depth == 0 && i + 1 != s.size()) return false;
    }
  }
  return depth == 0 && !in_string;
}

}  // namespace

bool ConvertBenchReport(const std::string& input, std::string* out,
                        std::string* error) {
  std::vector<std::pair<std::string, std::string>> entries;
  std::vector<std::string> runs;
  size_t pos = 0, line_no = 0;
  while (pos < input.size()) {
    ++line_no;
    size_t nl = input.find('\n', pos);
    std::string s = input.substr(pos, nl == std::string::npos ? std::string::npos
                                                              : nl - pos);
    pos = nl == std::string::npos ? input.size() : nl + 1;
    while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
    // Run objects may arrive indented (benches that pretty-print their
    // stdout, or reports pasted through a shell heredoc); strip the leading
    // whitespace before deciding, so such lines aren't silently dropped as
    // prose. key=value matching below stays on the untrimmed line: an
    // indented "key=value" really is prose quoting a field.
    size_t ws = s.find_first_not_of(" \t");
    if (ws != std::string::npos && s[ws] == '{') {
      std::string obj = s.substr(ws);
      if (!LooksLikeRunObject(obj)) {
        if (error != nullptr) {
          char buf[64];
          std::snprintf(buf, sizeof(buf), "line %zu: ", line_no);
          *error = std::string(buf) + "malformed run object: " + obj;
        }
        return false;
      }
      runs.push_back(std::move(obj));
      continue;
    }
    size_t eq = s.find('=');
    if (eq == std::string::npos || eq == 0) continue;
    // A key with spaces is prose that happens to contain '=', not a field.
    if (s.find(' ') < eq) continue;
    entries.emplace_back(s.substr(0, eq), s.substr(eq + 1));
  }

  std::string& o = *out;
  o.clear();
  o += "{\n";
  bool more = !runs.empty();
  for (size_t i = 0; i < entries.size(); ++i) {
    const auto& [key, value] = entries[i];
    o += "  \"";
    o += EscapeJson(key);
    o += "\": ";
    if (IsNumber(value)) {
      o += value;
    } else {
      o += "\"";
      o += EscapeJson(value);
      o += "\"";
    }
    o += i + 1 < entries.size() || more ? ",\n" : "\n";
  }
  if (!runs.empty()) {
    o += "  \"runs\": [\n";
    for (size_t i = 0; i < runs.size(); ++i) {
      o += "    ";
      o += runs[i];
      o += i + 1 < runs.size() ? ",\n" : "\n";
    }
    o += "  ]\n";
  }
  o += "}\n";
  return true;
}

}  // namespace lazyrep::tools
