#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>

#include "io/exploration_io.h"

namespace sunmap::io {
namespace {

/// The report number format as printf/scanf define it: the integer branch,
/// then the first %.{p}g for p = 1..16 that sscanf reads back exactly,
/// else %.17g. report_number() must match it byte for byte.
std::string printf_oracle(double value) {
  char buffer[40];
  if (std::abs(value) < 1e15 &&
      value == static_cast<double>(static_cast<long long>(value))) {
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(value));
    return buffer;
  }
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  double parsed = 0.0;
  std::sscanf(buffer, "%lf", &parsed);
  if (parsed == value) {
    for (int precision = 1; precision < 17; ++precision) {
      char shorter[40];
      std::snprintf(shorter, sizeof(shorter), "%.*g", precision, value);
      std::sscanf(shorter, "%lf", &parsed);
      if (parsed == value) return shorter;
    }
  }
  return buffer;
}

/// Compares every value against the oracle; reports the first few misses
/// with the value's bits, so a failure names a reproducible input.
template <typename Next>
void expect_matches_oracle(int count, Next next) {
  int misses = 0;
  for (int i = 0; i < count; ++i) {
    const double value = next();
    const std::string expected = printf_oracle(value);
    const std::string actual = report_number(value);
    if (actual == expected) continue;
    if (++misses <= 5) {
      ADD_FAILURE() << "bits 0x" << std::hex
                    << std::bit_cast<std::uint64_t>(value) << std::dec
                    << ": report_number \"" << actual << "\", oracle \""
                    << expected << "\"";
    }
  }
  EXPECT_EQ(misses, 0) << "of " << count << " values";
}

TEST(ReportNumber, DocumentedForms) {
  EXPECT_EQ(report_number(0.0), "0");
  EXPECT_EQ(report_number(-0.0), "0");
  EXPECT_EQ(report_number(0.1), "0.1");
  EXPECT_EQ(report_number(0.0001), "0.0001");
  EXPECT_EQ(report_number(1e-5), "1e-05");
  EXPECT_EQ(report_number(1e14), "100000000000000");
  EXPECT_EQ(report_number(999999999999999.0), "999999999999999");
  EXPECT_EQ(report_number(1e15), "1e+15");
  EXPECT_EQ(report_number(1234567890120000.0), "1.23456789012e+15");
  // Its 16-digit shortest form exists, but %.16g rounds to another double.
  EXPECT_EQ(report_number(std::ldexp(1.0, -24)), "5.9604644775390625e-08");
  EXPECT_EQ(report_number(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(report_number(-std::numeric_limits<double>::infinity()), "-inf");
  EXPECT_EQ(report_number(std::numeric_limits<double>::quiet_NaN()), "nan");
}

TEST(ReportNumber, EdgeCasesMatchOracle) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double values[] = {0.0,
                           -0.0,
                           0.1,
                           0.0001,
                           -0.0001,
                           1e-5,
                           1e14,
                           999999999999999.0,
                           1e15,
                           1234567890120000.0,
                           5e-324,
                           DBL_MIN,
                           DBL_MAX,
                           9.3e18,
                           -9.3e18,
                           1e300,
                           inf,
                           -inf,
                           nan,
                           -nan};
  for (const double value : values) {
    EXPECT_EQ(report_number(value), printf_oracle(value)) << value;
  }
}

TEST(ReportNumber, EveryPowerOfTwoMatchesOracle) {
  int exponent = -1074;
  int sign = 1;
  expect_matches_oracle(2 * (1023 + 1074 + 1), [&] {
    const double value = sign * std::ldexp(1.0, exponent);
    sign = -sign;
    if (sign == 1) ++exponent;
    return value;
  });
}

TEST(ReportNumber, RandomBitPatternsMatchOracle) {
  std::mt19937_64 rng(20181);
  expect_matches_oracle(30000, [&] { return std::bit_cast<double>(rng()); });
}

TEST(ReportNumber, ShortDecimalsMatchOracle) {
  // 1 to 17 significant digits at decimal exponents across the whole
  // range, so the search stops at every precision.
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<int> digits(1, 17);
  std::uniform_int_distribution<int> exponent(-320, 300);
  expect_matches_oracle(50000, [&] {
    std::uint64_t limit = 1;
    for (int n = digits(rng); n > 0; --n) limit *= 10;
    std::uniform_int_distribution<std::uint64_t> mantissa(0, limit - 1);
    char text[48];
    std::snprintf(text, sizeof(text), "%s%llue%d", rng() % 2 ? "-" : "",
                  static_cast<unsigned long long>(mantissa(rng)),
                  exponent(rng));
    return std::strtod(text, nullptr);
  });
}

TEST(ReportNumber, ReportRangeValuesMatchOracle) {
  // The magnitudes the reports carry: hops, nanoseconds, mm^2, mW, MB/s.
  std::mt19937_64 rng(5000);
  std::uniform_real_distribution<double> uniform(0.0, 5000.0);
  expect_matches_oracle(30000, [&] { return uniform(rng); });
}

}  // namespace
}  // namespace sunmap::io
