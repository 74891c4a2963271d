// Golden-file coverage of the bench_to_json conversion (the library behind
// the tools/bench_to_json pipeline stage): key=value lifting, numeric vs
// string values, the "runs" array, prose tolerance, escaping, the
// malformed-run-object, repeated-key and reserved-key rejection paths, and a
// seeded mutation fuzz whose every mutant must convert to strict JSON with
// unique keys or fail naming a line.

#include <cctype>
#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/bench_to_json_lib.h"

namespace lazyrep::tools {
namespace {

const char kGoldenInput[] =
    "chaos: 24 runs (4 protocols x 6 schedules), 0 invariant violations\n"
    "{\"schedule\":0,\"protocol\":\"locking\",\"serializable\":1}\n"
    "{\"schedule\":1,\"protocol\":\"eager\",\"serializable\":1}\n"
    "chaos.schedules=6\n"
    "chaos.violations=0\n"
    "geo.topology=geo:3x2x2\n"
    "kernel.ns_per_event=41.5\n";

const char kPairedInput[] =
    "replay-whatif: 8 cells, round trip ok\n"
    "  {\"workload\":\"oc3\",\"protocol\":\"eager\",\"recorded\":"
    "{\"tps\":94.2,\"abort_rate\":0.031},\"replayed\":"
    "{\"tps\":61.0,\"abort_rate\":0.377},\"serializable\":1}\n"
    "\t{\"workload\":\"geo\",\"protocol\":\"locking\",\"recorded\":"
    "{\"tps\":88.1},\"replayed\":{\"tps\":79.4},\"serializable\":1}\n"
    "replay.cells=8\n";

TEST(BenchToJsonTest, GoldenReportConverts) {
  const std::string input = kGoldenInput;
  const std::string golden =
      "{\n"
      "  \"chaos.schedules\": 6,\n"
      "  \"chaos.violations\": 0,\n"
      "  \"geo.topology\": \"geo:3x2x2\",\n"
      "  \"kernel.ns_per_event\": 41.5,\n"
      "  \"runs\": [\n"
      "    {\"schedule\":0,\"protocol\":\"locking\",\"serializable\":1},\n"
      "    {\"schedule\":1,\"protocol\":\"eager\",\"serializable\":1}\n"
      "  ]\n"
      "}\n";
  std::string out, error;
  ASSERT_TRUE(ConvertBenchReport(input, &out, &error)) << error;
  EXPECT_EQ(out, golden);
}

TEST(BenchToJsonTest, PairedNestedRunObjectsSurviveVerbatim) {
  // bench_replay_whatif emits one run object per grid cell pairing the
  // recorded and replayed runs as nested objects, and indents them for
  // readability. Nothing may be dropped or flattened: the object must land
  // in "runs" verbatim (minus the indent), every field intact.
  const std::string input = kPairedInput;
  const std::string golden =
      "{\n"
      "  \"replay.cells\": 8,\n"
      "  \"runs\": [\n"
      "    {\"workload\":\"oc3\",\"protocol\":\"eager\",\"recorded\":"
      "{\"tps\":94.2,\"abort_rate\":0.031},\"replayed\":"
      "{\"tps\":61.0,\"abort_rate\":0.377},\"serializable\":1},\n"
      "    {\"workload\":\"geo\",\"protocol\":\"locking\",\"recorded\":"
      "{\"tps\":88.1},\"replayed\":{\"tps\":79.4},\"serializable\":1}\n"
      "  ]\n"
      "}\n";
  std::string out, error;
  ASSERT_TRUE(ConvertBenchReport(input, &out, &error)) << error;
  EXPECT_EQ(out, golden);
}

TEST(BenchToJsonTest, IndentedMalformedRunObjectStillRejected) {
  // The indent tolerance must not reopen the silent-drop hole: a truncated
  // object is an error whether or not it is indented.
  std::string out, error;
  EXPECT_FALSE(ConvertBenchReport("  {\"schedule\":0,\"proto\n", &out,
                                  &error));
  EXPECT_NE(error.find("malformed run object"), std::string::npos) << error;
}

TEST(BenchToJsonTest, KeyValueOnlyReportHasNoRunsArray) {
  std::string out, error;
  ASSERT_TRUE(ConvertBenchReport("a=1\nb=two\n", &out, &error)) << error;
  EXPECT_EQ(out, "{\n  \"a\": 1,\n  \"b\": \"two\"\n}\n");
}

TEST(BenchToJsonTest, ProseAndPartialNumbersAreHandled) {
  // Prose containing '=' after a space is skipped; a value that only
  // starts numeric ("3 runs") must be quoted, not emitted as a bare 3.
  std::string out, error;
  ASSERT_TRUE(ConvertBenchReport(
                  "serializability audit = all points pass\nnote=3 runs\n",
                  &out, &error))
      << error;
  EXPECT_EQ(out, "{\n  \"note\": \"3 runs\"\n}\n");
}

TEST(BenchToJsonTest, StringValuesAreEscaped) {
  std::string out, error;
  ASSERT_TRUE(
      ConvertBenchReport("why=cycle\t\"a\"->\"b\"\n", &out, &error))
      << error;
  EXPECT_EQ(out, "{\n  \"why\": \"cycle\\u0009\\\"a\\\"->\\\"b\\\"\"\n}\n");
}

TEST(BenchToJsonTest, EmptyInputYieldsEmptyObject) {
  std::string out, error;
  ASSERT_TRUE(ConvertBenchReport("", &out, &error)) << error;
  EXPECT_EQ(out, "{\n}\n");
}

TEST(BenchToJsonTest, TruncatedRunObjectIsRejected) {
  // A line that opens a run object but never closes it is a mangled record,
  // not prose — silent dropping would under-report runs.
  std::string out, error;
  EXPECT_FALSE(ConvertBenchReport("ok=1\n{\"schedule\":0,\"proto\n", &out,
                                  &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("malformed run object"), std::string::npos) << error;
}

TEST(BenchToJsonTest, UnbalancedBracesInsideRunObjectAreRejected) {
  std::string out, error;
  EXPECT_FALSE(ConvertBenchReport("{\"a\":{\"b\":1}\n", &out, &error));
  EXPECT_NE(error.find("malformed run object"), std::string::npos) << error;
}

TEST(BenchToJsonTest, EarlyClosedRunObjectIsRejected) {
  // The object closes before the line ends: trailing garbage on a record.
  std::string out, error;
  EXPECT_FALSE(ConvertBenchReport("{\"a\":1} extra\n", &out, &error));
  EXPECT_NE(error.find("malformed run object"), std::string::npos) << error;
}

TEST(BenchToJsonTest, BracesInsideStringsDoNotConfuseTheCheck) {
  std::string out, error;
  ASSERT_TRUE(ConvertBenchReport("{\"why\":\"cycle {a -> b}\"}\n", &out,
                                 &error))
      << error;
  EXPECT_NE(out.find("cycle {a -> b}"), std::string::npos);
}

TEST(BenchToJsonTest, OnlyJsonNumbersAreEmittedAsNumbers) {
  // strtod accepts all of these; JSON accepts none of them as a number.
  std::string out, error;
  ASSERT_TRUE(ConvertBenchReport(
                  "a=nan\nb=inf\nc=0x10\nd=+5\ne=007\nf=1.\ng=-0.5e+3\n", &out,
                  &error))
      << error;
  EXPECT_EQ(out,
            "{\n  \"a\": \"nan\",\n  \"b\": \"inf\",\n  \"c\": \"0x10\",\n"
            "  \"d\": \"+5\",\n  \"e\": \"007\",\n  \"f\": \"1.\",\n"
            "  \"g\": -0.5e+3\n}\n");
}

TEST(BenchToJsonTest, BalancedButInvalidRunObjectIsRejected) {
  // Balanced braces are not JSON: a missing value, a bare word, a trailing
  // comma, a raw control byte in a string.
  const char* kBad[] = {"{\"r\":}", "{\"r\":abc}", "{\"r\":1,}",
                        "{\"r\":\"a\tb\"}", "{r:1}", "{\"r\":[1}]}"};
  for (const char* line : kBad) {
    std::string out, error;
    EXPECT_FALSE(ConvertBenchReport(std::string("ok=1\n") + line + "\n", &out,
                                    &error))
        << line;
    EXPECT_NE(error.find("line 2: malformed run object"), std::string::npos)
        << error;
  }
}

TEST(BenchToJsonTest, ValuesThatAreNotUtf8AreReplaced) {
  std::string out, error;
  ASSERT_TRUE(ConvertBenchReport("why=caf\xc3\xa9 \xff\n", &out, &error))
      << error;
  EXPECT_EQ(out, "{\n  \"why\": \"caf\xc3\xa9 \\ufffd\"\n}\n");
}

TEST(BenchToJsonTest, RepeatedKeyIsRejected) {
  // Two "a" members in one object: most readers keep only the last.
  std::string out, error;
  EXPECT_FALSE(ConvertBenchReport("a=1\nb=2\na=2\n", &out, &error));
  EXPECT_EQ(error, "line 3: repeated key \"a\"");
}

TEST(BenchToJsonTest, RunsKeyIsRejected) {
  // "runs" names the array of run objects; a key=value line of that name
  // would sit beside it, or stand in for it when there are no runs.
  for (const char* input : {"runs=1\n{\"a\":1}\n", "ok=1\nruns=1\n"}) {
    std::string out, error;
    EXPECT_FALSE(ConvertBenchReport(input, &out, &error)) << input;
    EXPECT_NE(error.find(": key \"runs\" names the run objects"),
              std::string::npos)
        << error;
    EXPECT_EQ(error.rfind(input[0] == 'r' ? "line 1: " : "line 2: ", 0), 0u)
        << error;
  }
}

/// A strict RFC 8259 checker, written apart from the converter's so the
/// fuzz below does not grade the converter by its own reading of JSON.
class StrictJson {
 public:
  explicit StrictJson(const std::string& text) : t_(text) {}

  bool Valid() {
    Space();
    if (!Value()) return false;
    Space();
    return p_ == t_.size();
  }

 private:
  int At(size_t k) const {
    return k < t_.size() ? static_cast<unsigned char>(t_[k]) : -1;
  }
  void Space() {
    while (At(p_) == ' ' || At(p_) == '\t' || At(p_) == '\n' ||
           At(p_) == '\r') {
      ++p_;
    }
  }
  bool Lit(const std::string& word) {
    if (t_.compare(p_, word.size(), word) != 0) return false;
    p_ += word.size();
    return true;
  }
  bool Digits() {
    size_t from = p_;
    while (At(p_) >= '0' && At(p_) <= '9') ++p_;
    return p_ > from;
  }
  bool Number() {
    if (At(p_) == '-') ++p_;
    if (At(p_) == '0') {
      ++p_;
    } else if (!(At(p_) >= '1' && At(p_) <= '9') || !Digits()) {
      return false;
    }
    if (At(p_) == '.' && (++p_, !Digits())) return false;
    if (At(p_) == 'e' || At(p_) == 'E') {
      ++p_;
      if (At(p_) == '+' || At(p_) == '-') ++p_;
      if (!Digits()) return false;
    }
    return true;
  }
  /// One UTF-8 scalar value's continuation bytes after a lead byte `c`.
  bool Utf8(int c) {
    int more = c >= 0xF0 ? 3 : c >= 0xE0 ? 2 : 1;
    uint32_t v = c & (0x3F >> more);
    for (int k = 0; k < more; ++k) {
      int b = At(p_);
      if (b < 0x80 || b > 0xBF) return false;
      v = v << 6 | (b & 0x3F);
      ++p_;
    }
    const uint32_t min = more == 1 ? 0x80 : more == 2 ? 0x800 : 0x10000;
    return c >= 0xC0 && c <= 0xF7 && v >= min && v <= 0x10FFFF &&
           !(v >= 0xD800 && v <= 0xDFFF);
  }
  bool String() {
    if (At(p_) != '"') return false;
    ++p_;
    for (;;) {
      int c = At(p_++);
      if (c == '"') return true;
      if (c < 0x20) return false;  // control byte, or the end
      if (c == '\\') {
        int e = At(p_++);
        if (e == 'u') {
          for (int k = 0; k < 4; ++k) {
            if (At(p_) < 0 || !std::isxdigit(At(p_++))) return false;
          }
        } else if (e < 0 || std::string("\"\\/bfnrt").find(static_cast<char>(
                                e)) == std::string::npos) {
          return false;
        }
      } else if (c >= 0x80 && !Utf8(c)) {
        return false;
      }
    }
  }
  bool Value() {
    const int c = At(p_);
    if (c == '{' || c == '[') {
      const int close = c == '{' ? '}' : ']';
      ++p_;
      Space();
      if (At(p_) == close) return ++p_, true;
      for (;;) {
        Space();
        if (c == '{') {
          if (!String()) return false;
          Space();
          if (At(p_++) != ':') return false;
          Space();
        }
        if (!Value()) return false;
        Space();
        const int next = At(p_++);
        if (next == close) return true;
        if (next != ',') return false;
      }
    }
    if (c == '"') return String();
    if (c == 't') return Lit("true");
    if (c == 'f') return Lit("false");
    if (c == 'n') return Lit("null");
    return Number();
  }

  const std::string& t_;
  size_t p_ = 0;
};

TEST(BenchToJsonTest, StrictCheckerAgreesOnKnownDocuments) {
  EXPECT_TRUE(StrictJson("{\"a\": [1, -0.5e+3, \"x\\u00e9\", true, null]}")
                  .Valid());
  EXPECT_FALSE(StrictJson("{\"a\": nan}").Valid());
  EXPECT_FALSE(StrictJson("{\"a\": 0x10}").Valid());
  EXPECT_FALSE(StrictJson("{\"a\": 1,}").Valid());
  EXPECT_FALSE(StrictJson("{\"a\": \"\xff\"}").Valid());
  EXPECT_FALSE(StrictJson("{\"a\": \"\xc0\xaf\"}").Valid());  // overlong
}

/// The top-level member names of a converted document, which puts each on
/// a line of its own after a two-space indent.
std::vector<std::string> TopLevelNames(const std::string& doc) {
  std::vector<std::string> names;
  for (size_t pos = 0; (pos = doc.find("\n  \"", pos)) != std::string::npos;) {
    const size_t from = pos + 4;
    size_t i = from;
    while (i < doc.size() && doc[i] != '"') i += doc[i] == '\\' ? 2 : 1;
    names.push_back(doc.substr(from, i - from));
    pos = i;
  }
  return names;
}

uint64_t Mix(uint64_t* s) {
  uint64_t z = (*s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

TEST(BenchToJsonMutationFuzz, SeededMutantsConvertToStrictJsonOrNameALine) {
  // The inputs the tests above convert or reject, mutated one to three
  // times each: a bit flip, a truncation, an inserted or a deleted
  // structural byte ('{', '}', '"', '\\', '=', newline, NUL). A bit flip
  // can turn one key into another ("e" into "g"), which must fail too.
  const std::string kCorpus[] = {
      kGoldenInput,
      kPairedInput,
      "  {\"schedule\":0,\"proto\n",
      "a=1\nb=two\n",
      "serializability audit = all points pass\nnote=3 runs\n",
      "why=cycle\t\"a\"->\"b\"\n",
      "",
      "ok=1\n{\"schedule\":0,\"proto\n",
      "{\"a\":{\"b\":1}\n",
      "{\"a\":1} extra\n",
      "{\"why\":\"cycle {a -> b}\"}\n",
      "a=nan\nb=inf\nc=0x10\nd=+5\ne=007\nf=1.\ng=-0.5e+3\n",
      "why=caf\xc3\xa9 \xff\n",
  };
  const char kStructural[] = {'{', '}', '"', '\\', '=', '\n', '\0'};
  uint64_t s = 20261019;
  int converted = 0, rejected = 0;
  for (int k = 0; k < 3000; ++k) {
    std::string in = kCorpus[Mix(&s) % std::size(kCorpus)];
    const int edits = 1 + static_cast<int>(Mix(&s) % 3);
    for (int e = 0; e < edits; ++e) {
      const uint64_t at = Mix(&s);
      switch (Mix(&s) % 4) {
        case 0:
          if (!in.empty()) in[at % in.size()] ^= 1 << (Mix(&s) % 8);
          break;
        case 1:
          in.resize(at % (in.size() + 1));
          break;
        case 2:
          in.insert(at % (in.size() + 1), 1,
                    kStructural[Mix(&s) % std::size(kStructural)]);
          break;
        default: {
          const char byte = kStructural[Mix(&s) % std::size(kStructural)];
          const size_t from = in.empty() ? 0 : at % in.size();
          size_t pos = in.find(byte, from);
          if (pos == std::string::npos) pos = in.find(byte);
          if (pos != std::string::npos) in.erase(pos, 1);
          break;
        }
      }
    }
    SCOPED_TRACE("mutant " + std::to_string(k));
    std::string out, error;
    if (ConvertBenchReport(in, &out, &error)) {
      EXPECT_TRUE(StrictJson(out).Valid()) << out;
      const std::vector<std::string> names = TopLevelNames(out);
      EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
                names.size())
          << out;
      ++converted;
    } else {
      EXPECT_EQ(error.rfind("line ", 0), 0u) << error;
      EXPECT_TRUE(error.find(": malformed run object") != std::string::npos ||
                  error.find(": repeated key ") != std::string::npos ||
                  error.find(": key \"runs\" names") != std::string::npos)
          << error;
      ++rejected;
    }
  }
  // Both outcomes occur, or the mutations miss what they probe.
  EXPECT_GT(converted, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace lazyrep::tools
