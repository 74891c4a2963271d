#include "tools/bench_to_json_lib.h"

#include <cctype>
#include <cstdio>
#include <cstring>
#include <set>
#include <utility>
#include <vector>

namespace lazyrep::tools {
namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// Advances `*i` past one JSON number in `s`:
/// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. False when none starts
/// there.
bool SkipNumber(const std::string& s, size_t* i) {
  auto digits = [&] {
    const size_t start = *i;
    while (*i < s.size() && IsDigit(s[*i])) ++*i;
    return *i > start;
  };
  if (*i < s.size() && s[*i] == '-') ++*i;
  if (*i < s.size() && s[*i] == '0') {
    ++*i;
  } else if (!digits()) {
    return false;
  }
  if (*i < s.size() && s[*i] == '.') {
    ++*i;
    if (!digits()) return false;
  }
  if (*i < s.size() && (s[*i] == 'e' || s[*i] == 'E')) {
    ++*i;
    if (*i < s.size() && (s[*i] == '+' || s[*i] == '-')) ++*i;
    if (!digits()) return false;
  }
  return true;
}

/// True when the whole of `s` is one JSON number ("nan", "inf", "0x10",
/// "+5" and "007" are not, whatever strtod makes of them).
bool IsNumber(const std::string& s) {
  size_t i = 0;
  return SkipNumber(s, &i) && i == s.size();
}

/// Length of the well-formed UTF-8 sequence starting at s[i], or 0.
size_t Utf8Length(const std::string& s, size_t i) {
  const auto byte = [&](size_t k) {
    return k < s.size() ? static_cast<unsigned char>(s[k]) : 0u;
  };
  const unsigned c = byte(i);
  if (c < 0x80) return 1;
  size_t n = 0;
  unsigned lo = 0x80, hi = 0xBF;  // the second byte's range
  if (c >= 0xC2 && c <= 0xDF) {
    n = 2;
  } else if (c >= 0xE0 && c <= 0xEF) {
    n = 3;
    if (c == 0xE0) lo = 0xA0;  // no overlong forms
    if (c == 0xED) hi = 0x9F;  // no surrogates
  } else if (c >= 0xF0 && c <= 0xF4) {
    n = 4;
    if (c == 0xF0) lo = 0x90;
    if (c == 0xF4) hi = 0x8F;  // nothing past U+10FFFF
  } else {
    return 0;
  }
  if (byte(i + 1) < lo || byte(i + 1) > hi) return 0;
  for (size_t k = 2; k < n; ++k) {
    if (byte(i + k) < 0x80 || byte(i + k) > 0xBF) return 0;
  }
  return n;
}

/// `s` as the body of a JSON string: quotes, backslashes and control bytes
/// escaped, and a byte that is not well-formed UTF-8 replaced by U+FFFD.
std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size();) {
    const char c = s[i];
    const size_t n = Utf8Length(s, i);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else if (n == 0) {
      out += "\\ufffd";
    } else {
      out.append(s, i, n);
      i += n;
      continue;
    }
    ++i;
  }
  return out;
}

/// A strict JSON reader over one line (RFC 8259, with the nesting capped so
/// a hostile line cannot exhaust the stack). Each Skip advances `i_` past
/// one production and returns false where the text leaves the grammar.
class JsonLine {
 public:
  explicit JsonLine(const std::string& s) : s_(s) {}

  /// True when the line is exactly one JSON object.
  bool IsOneObject() {
    SkipSpace();
    if (Peek() != '{' || !SkipValue(0)) return false;
    SkipSpace();
    return i_ == s_.size();
  }

 private:
  static constexpr int kMaxDepth = 64;

  char Peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }
  bool Eat(char c) {
    if (i_ >= s_.size() || s_[i_] != c) return false;
    ++i_;
    return true;
  }
  void SkipSpace() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }
  bool SkipWord(const char* word) {
    for (; *word != '\0'; ++word) {
      if (!Eat(*word)) return false;
    }
    return true;
  }

  bool SkipString() {
    if (!Eat('"')) return false;
    while (i_ < s_.size()) {
      const unsigned char c = static_cast<unsigned char>(s_[i_]);
      if (c == '"') {
        ++i_;
        return true;
      }
      if (c < 0x20) return false;
      if (c != '\\') {
        const size_t n = Utf8Length(s_, i_);
        if (n == 0) return false;
        i_ += n;
        continue;
      }
      ++i_;
      const char e = Peek();
      ++i_;
      if (e == 'u') {
        for (int k = 0; k < 4; ++k, ++i_) {
          if (!std::isxdigit(static_cast<unsigned char>(Peek()))) return false;
        }
      } else if (std::strchr("\"\\/bfnrt", e) == nullptr || e == '\0') {
        return false;
      }
    }
    return false;  // unterminated
  }

  bool SkipValue(int depth) {
    SkipSpace();
    const char c = Peek();
    if (c == '{' || c == '[') {
      if (depth == kMaxDepth) return false;
      const char close = c == '{' ? '}' : ']';
      ++i_;
      SkipSpace();
      if (Eat(close)) return true;
      do {
        if (c == '{') {
          SkipSpace();
          if (!SkipString()) return false;
          SkipSpace();
          if (!Eat(':')) return false;
        }
        if (!SkipValue(depth + 1)) return false;
        SkipSpace();
      } while (Eat(','));
      return Eat(close);
    }
    if (c == '"') return SkipString();
    if (c == 't') return SkipWord("true");
    if (c == 'f') return SkipWord("false");
    if (c == 'n') return SkipWord("null");
    return SkipNumber(s_, &i_);
  }

  const std::string& s_;
  size_t i_ = 0;
};

}  // namespace

bool ConvertBenchReport(const std::string& input, std::string* out,
                        std::string* error) {
  std::vector<std::pair<std::string, std::string>> entries;
  std::set<std::string> names;  // the keys as the document spells them
  std::vector<std::string> runs;
  size_t pos = 0, line_no = 0;
  auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + what;
    }
    return false;
  };
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
      if (!JsonLine(obj).IsOneObject()) {
        return fail("malformed run object: " + obj);
      }
      runs.push_back(std::move(obj));
      continue;
    }
    size_t eq = s.find('=');
    if (eq == std::string::npos || eq == 0) continue;
    // A key with spaces is prose that happens to contain '=', not a field.
    if (s.find(' ') < eq) continue;
    // A document holding one key twice keeps only one of them for most
    // readers, so a repeated key, or one that names the runs array, fails.
    std::string key = s.substr(0, eq);
    const std::string name = EscapeJson(key);
    if (name == "runs") return fail("key \"runs\" names the run objects");
    if (!names.insert(name).second) {
      return fail("repeated key \"" + key + "\"");
    }
    entries.emplace_back(std::move(key), s.substr(eq + 1));
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
