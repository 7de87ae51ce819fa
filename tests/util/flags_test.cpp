#include "util/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

namespace edm::util {
namespace {

// Builds argv from string literals; the parser never mutates them.
std::vector<char*> make_argv(std::initializer_list<const char*> args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("prog"));
  for (const char* a : args) argv.push_back(const_cast<char*>(a));
  return argv;
}

TEST(FlagParser, ParsesEveryValueKind) {
  std::string s;
  double d = 0.0;
  std::uint32_t u32 = 0;
  std::uint16_t u16 = 0;
  std::int32_t i32 = 0;
  bool b = false;
  FlagParser parser;
  parser.add_string("--name", &s, "");
  parser.add_double("--ratio", &d, "");
  parser.add_uint32("--count", &u32, "");
  parser.add_uint16("--port", &u16, "");
  parser.add_int32("--delta", &i32, "");
  parser.add_bool("--verbose", &b, "");

  auto argv = make_argv({"--name=home02", "--ratio=0.25", "--count=42",
                         "--port=8080", "--delta=-3", "--verbose"});
  ASSERT_EQ(parser.parse(static_cast<int>(argv.size()), argv.data()),
            FlagParser::Result::kOk);
  EXPECT_EQ(s, "home02");
  EXPECT_DOUBLE_EQ(d, 0.25);
  EXPECT_EQ(u32, 42u);
  EXPECT_EQ(u16, 8080u);
  EXPECT_EQ(i32, -3);
  EXPECT_TRUE(b);
}

TEST(FlagParser, DefaultsSurviveWhenFlagsAbsent) {
  double d = 0.1;
  bool b = false;
  FlagParser parser;
  parser.add_double("--scale", &d, "");
  parser.add_bool("--csv", &b, "");
  auto argv = make_argv({});
  ASSERT_EQ(parser.parse(static_cast<int>(argv.size()), argv.data()),
            FlagParser::Result::kOk);
  EXPECT_DOUBLE_EQ(d, 0.1);
  EXPECT_FALSE(b);
}

TEST(FlagParser, HelpRecognised) {
  FlagParser parser;
  auto argv = make_argv({"--help"});
  EXPECT_EQ(parser.parse(static_cast<int>(argv.size()), argv.data()),
            FlagParser::Result::kHelp);
  auto argv2 = make_argv({"-h"});
  EXPECT_EQ(parser.parse(static_cast<int>(argv2.size()), argv2.data()),
            FlagParser::Result::kHelp);
}

TEST(FlagParser, UnknownOptionIsAnError) {
  double d = 0.0;
  FlagParser parser;
  parser.add_double("--scale", &d, "");
  auto argv = make_argv({"--nope=1"});
  EXPECT_EQ(parser.parse(static_cast<int>(argv.size()), argv.data()),
            FlagParser::Result::kError);
  EXPECT_NE(parser.error().find("--nope"), std::string::npos);
}

TEST(FlagParser, BadNumericValueIsAnError) {
  double d = 0.0;
  std::uint32_t u = 0;
  FlagParser parser;
  parser.add_double("--scale", &d, "");
  parser.add_uint32("--osds", &u, "");
  for (const char* bad : {"--scale=abc", "--scale=1.5x", "--osds=12q",
                          "--scale=", "--osds="}) {
    auto argv = make_argv({bad});
    EXPECT_EQ(parser.parse(static_cast<int>(argv.size()), argv.data()),
              FlagParser::Result::kError)
        << bad;
  }
}

TEST(FlagParser, PrefixNamesDoNotCollide) {
  // --trace and --trace-file / --trace-out share a prefix; matching must be
  // on the full name before '='.
  std::string trace, trace_file, trace_out;
  FlagParser parser;
  parser.add_string("--trace", &trace, "");
  parser.add_string("--trace-file", &trace_file, "");
  parser.add_string("--trace-out", &trace_out, "");
  auto argv = make_argv(
      {"--trace=home02", "--trace-file=a.bin", "--trace-out=t.json"});
  ASSERT_EQ(parser.parse(static_cast<int>(argv.size()), argv.data()),
            FlagParser::Result::kOk);
  EXPECT_EQ(trace, "home02");
  EXPECT_EQ(trace_file, "a.bin");
  EXPECT_EQ(trace_out, "t.json");
}

TEST(FlagParser, BoolFlagRejectsValueForm) {
  bool b = false;
  FlagParser parser;
  parser.add_bool("--csv", &b, "");
  auto argv = make_argv({"--csv=1"});
  EXPECT_EQ(parser.parse(static_cast<int>(argv.size()), argv.data()),
            FlagParser::Result::kError);
  EXPECT_FALSE(b);
  // The error must name the flag and say it takes no value, not claim the
  // whole argument is an unknown option.
  EXPECT_NE(parser.error().find("--csv"), std::string::npos);
  EXPECT_NE(parser.error().find("takes no value"), std::string::npos);
}

TEST(FlagParser, ValueFlagWithoutValueIsAClearError) {
  double d = 0.5;
  FlagParser parser;
  parser.add_double("--scale", &d, "");
  auto argv = make_argv({"--scale"});
  EXPECT_EQ(parser.parse(static_cast<int>(argv.size()), argv.data()),
            FlagParser::Result::kError);
  EXPECT_NE(parser.error().find("missing value for --scale"),
            std::string::npos);
  EXPECT_NE(parser.error().find("--scale=<value>"), std::string::npos);
  EXPECT_DOUBLE_EQ(d, 0.5);  // target untouched
}

TEST(FlagParser, UnknownOptionErrorPointsAtHelp) {
  double d = 0.0;
  FlagParser parser;
  parser.add_double("--scale", &d, "");
  auto argv = make_argv({"--scael=1"});
  EXPECT_EQ(parser.parse(static_cast<int>(argv.size()), argv.data()),
            FlagParser::Result::kError);
  EXPECT_NE(parser.error().find("unknown option: --scael"),
            std::string::npos);
  EXPECT_NE(parser.error().find("--help"), std::string::npos);
}

TEST(FlagParser, PositionalArgumentIsRejectedDistinctly) {
  double d = 0.0;
  FlagParser parser;
  parser.add_double("--scale", &d, "");
  auto argv = make_argv({"home02"});
  EXPECT_EQ(parser.parse(static_cast<int>(argv.size()), argv.data()),
            FlagParser::Result::kError);
  EXPECT_NE(parser.error().find("positional argument"), std::string::npos);
  EXPECT_NE(parser.error().find("home02"), std::string::npos);
}

TEST(FlagParser, BadValueErrorQuotesTheValue) {
  std::uint32_t u = 7;
  FlagParser parser;
  parser.add_uint32("--osds", &u, "");
  auto argv = make_argv({"--osds=12q"});
  EXPECT_EQ(parser.parse(static_cast<int>(argv.size()), argv.data()),
            FlagParser::Result::kError);
  EXPECT_NE(parser.error().find("bad value for --osds: '12q'"),
            std::string::npos);
}

// --- integer range: no silent wrap-around ---------------------------

/// Parses one argument against a fresh parser holding `--name` bound to a
/// T that starts at `initial`; returns the error ("" on success) and
/// leaves the target value in *out.
template <typename T>
std::string parse_integer_flag(const char* name, const char* arg, T initial,
                               T* out) {
  *out = initial;
  FlagParser parser;
  if constexpr (std::is_same_v<T, std::uint16_t>) {
    parser.add_uint16(name, out, "");
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    parser.add_uint32(name, out, "");
  } else {
    parser.add_int32(name, out, "");
  }
  auto argv = make_argv({arg});
  const auto result = parser.parse(static_cast<int>(argv.size()), argv.data());
  return result == FlagParser::Result::kOk ? "" : parser.error();
}

TEST(FlagParser, Uint16AboveRangeIsRejectedNotWrapped) {
  // 65537 used to wrap to 1 through a static_cast.
  std::uint16_t clients = 0;
  const std::string err =
      parse_integer_flag<std::uint16_t>("--clients", "--clients=65537", 8,
                                        &clients);
  EXPECT_NE(err.find("bad value for --clients: '65537'"), std::string::npos)
      << err;
  EXPECT_NE(err.find("[0, 65535]"), std::string::npos) << err;
  EXPECT_EQ(clients, 8u);
}

TEST(FlagParser, UnsignedTargetRejectsNegativeValue) {
  // -1 used to wrap to 65535 (strtoul negates after conversion).
  std::uint16_t clients = 0;
  const std::string err = parse_integer_flag<std::uint16_t>(
      "--clients", "--clients=-1", 8, &clients);
  EXPECT_NE(err.find("bad value for --clients: '-1'"), std::string::npos)
      << err;
  EXPECT_EQ(clients, 8u);
  std::uint32_t osds = 0;
  EXPECT_NE(parse_integer_flag<std::uint32_t>("--osds", "--osds=+4", 16, &osds),
            "");
  EXPECT_EQ(osds, 16u);
}

TEST(FlagParser, Uint32AboveRangeIsRejectedNotWrapped) {
  // 4294967304 = 2^32 + 8 used to truncate to 8.
  std::uint32_t osds = 0;
  const std::string err = parse_integer_flag<std::uint32_t>(
      "--osds", "--osds=4294967304", 16, &osds);
  EXPECT_NE(err.find("bad value for --osds: '4294967304'"), std::string::npos)
      << err;
  EXPECT_NE(err.find("[0, 4294967295]"), std::string::npos) << err;
  EXPECT_EQ(osds, 16u);
}

TEST(FlagParser, Int32AboveRangeIsRejectedNotWrapped) {
  // 4294967295 used to truncate to -1, silently disabling the failure.
  std::int32_t fail_osd = 0;
  const std::string err = parse_integer_flag<std::int32_t>(
      "--fail-osd", "--fail-osd=4294967295", -1, &fail_osd);
  EXPECT_NE(err.find("bad value for --fail-osd: '4294967295'"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("[-2147483648, 2147483647]"), std::string::npos) << err;
  EXPECT_EQ(fail_osd, -1);
}

TEST(FlagParser, IntegerRangeEndpointsAreAccepted) {
  std::uint16_t u16 = 0;
  EXPECT_EQ(parse_integer_flag<std::uint16_t>("--n", "--n=65535", 1, &u16), "");
  EXPECT_EQ(u16, 65535u);
  std::uint32_t u32 = 0;
  EXPECT_EQ(
      parse_integer_flag<std::uint32_t>("--n", "--n=4294967295", 1, &u32), "");
  EXPECT_EQ(u32, 4294967295u);
  std::int32_t i32 = 0;
  EXPECT_EQ(
      parse_integer_flag<std::int32_t>("--n", "--n=-2147483648", 1, &i32), "");
  EXPECT_EQ(i32, std::numeric_limits<std::int32_t>::min());
}

TEST(FlagParser, UsageListsEveryFlag) {
  double d = 0.0;
  bool b = false;
  FlagParser parser;
  parser.add_double("--scale", &d, "trace scale");
  parser.add_bool("--csv", &b, "emit CSV");
  std::ostringstream os;
  parser.print_usage(os, "bench");
  const std::string usage = os.str();
  EXPECT_NE(usage.find("--scale=<v>"), std::string::npos);
  EXPECT_NE(usage.find("--csv"), std::string::npos);
  EXPECT_NE(usage.find("trace scale"), std::string::npos);
}

}  // namespace
}  // namespace edm::util
