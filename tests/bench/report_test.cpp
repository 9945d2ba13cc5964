// The contract every bench shares: the JSON report --json writes (rows,
// paper comparisons, typed gates), Gate's verdict, and Flags::parse
// rejecting a flag it does not know.
#include "bench_util.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace sgfs::bench {
namespace {

Flags json_flags(const std::string& path) {
  Flags flags;
  flags.raw["json"] = path;
  return flags;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(BenchReport, GoldenJson) {
  const std::string path = testing::TempDir() + "bench_report_" +
                           std::to_string(::getpid()) + ".json";
  {
    JsonReport json(json_flags(path), "demo");
    // 12.5 + 2^-20: the sub-microsecond tail is part of the value.
    json.add_row("cfg-a", 12.5 + 1.0 / (1 << 20), 0.25,
                 {{"rpc.calls", 12}, {"buf.bytes_copied", 4096}}, "note");
    print_row("cfg-b", 3, 0);
    print_check("cfg-a / cfg-b (paper: ~4x)", 4.1875, "4.0");
    Gate gate("demo");
    gate("cfg-a sim errors", 0, Op::kEq, 0);
    gate("cfg-a / cfg-b speedup", 4.1875, Op::kGe, 4.5);
  }
  EXPECT_EQ(slurp(path), R"json({
  "bench": "demo",
  "rows": [
    {"name": "cfg-a", "simulated_seconds": 12.500000953674316, "stddev": 0.25, "note": "note", "metrics": {"buf.bytes_copied": 4096, "rpc.calls": 12}},
    {"name": "cfg-b", "simulated_seconds": 3}
  ],
  "checks": [
    {"what": "cfg-a / cfg-b (paper: ~4x)", "measured": 4.1875, "paper": "4.0"},
    {"what": "cfg-a sim errors", "measured": 0, "op": "==", "threshold": 0, "pass": true},
    {"what": "cfg-a / cfg-b speedup", "measured": 4.1875, "op": ">=", "threshold": 4.5, "pass": false}
  ]
}
)json");
  std::remove(path.c_str());
}

TEST(BenchReport, GateVerdict) {
  Gate passing("demo");
  passing("equal", 3, Op::kEq, 3);
  passing("greater", 3, Op::kGt, 2);
  passing("at least", 3, Op::kGe, 3);
  passing("less", 3, Op::kLt, 4);
  passing("at most", 3, Op::kLe, 3);
  EXPECT_EQ(passing.finish(), 0);

  Gate failing("demo");
  testing::internal::CaptureStdout();
  failing("holds", 1, Op::kEq, 1);
  failing("ratio", 2.5, Op::kGe, 3);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("want >= 3\n"), std::string::npos) << out;
  EXPECT_NE(out.find("FAIL: ratio: measured 2.5, want >= 3\n"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("FAIL: holds"), std::string::npos) << out;
  EXPECT_EQ(failing.finish(), 1);
}

TEST(BenchFlags, ParsesSharedAndKnownFlags) {
  char prog[] = "bench";
  char quick[] = "--quick";
  char runs[] = "--runs=3";
  char json[] = "--json=out.json";
  char* argv[] = {prog, quick, runs, json, nullptr};
  const Flags flags = Flags::parse(4, argv, {"quick"});
  EXPECT_EQ(flags.runs, 3);
  EXPECT_EQ(flags.raw.at("quick"), "1");
  EXPECT_EQ(flags.raw.at("json"), "out.json");
}

TEST(BenchFlagsDeathTest, UnknownFlagExitsWithStatus2) {
  char prog[] = "bench";
  char bad[] = "--memcpy-gbps=1";
  char* argv[] = {prog, bad, nullptr};
  EXPECT_EXIT(Flags::parse(2, argv, {"file-mb"}), testing::ExitedWithCode(2),
              "unknown flag --memcpy-gbps");
}

}  // namespace
}  // namespace sgfs::bench
