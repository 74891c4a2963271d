// Golden-file coverage of the bench_to_json conversion (the library behind
// the tools/bench_to_json pipeline stage): key=value lifting, numeric vs
// string values, the "runs" array, prose tolerance, escaping, and the
// malformed-run-object rejection path.

#include <string>

#include <gtest/gtest.h>

#include "tools/bench_to_json_lib.h"

namespace lazyrep::tools {
namespace {

TEST(BenchToJsonTest, GoldenReportConverts) {
  const std::string input =
      "chaos: 24 runs (4 protocols x 6 schedules), 0 invariant violations\n"
      "{\"schedule\":0,\"protocol\":\"locking\",\"serializable\":1}\n"
      "{\"schedule\":1,\"protocol\":\"eager\",\"serializable\":1}\n"
      "chaos.schedules=6\n"
      "chaos.violations=0\n"
      "geo.topology=geo:3x2x2\n"
      "kernel.ns_per_event=41.5\n";
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
  const std::string input =
      "replay-whatif: 8 cells, round trip ok\n"
      "  {\"workload\":\"oc3\",\"protocol\":\"eager\",\"recorded\":"
      "{\"tps\":94.2,\"abort_rate\":0.031},\"replayed\":"
      "{\"tps\":61.0,\"abort_rate\":0.377},\"serializable\":1}\n"
      "\t{\"workload\":\"geo\",\"protocol\":\"locking\",\"recorded\":"
      "{\"tps\":88.1},\"replayed\":{\"tps\":79.4},\"serializable\":1}\n"
      "replay.cells=8\n";
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

}  // namespace
}  // namespace lazyrep::tools
