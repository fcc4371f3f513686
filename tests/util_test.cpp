#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/prng.h"
#include "util/table.h"

namespace sunmap::util {
namespace {

TEST(Prng, DeterministicForSameSeed) {
  Prng a(42);
  Prng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Prng, DifferentSeedsDiffer) {
  Prng a(1);
  Prng b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.next() != b.next()) ++differing;
  }
  EXPECT_GT(differing, 24);
}

TEST(Prng, ReseedRestartsSequence) {
  Prng a(7);
  const auto first = a.next();
  a.next();
  a.reseed(7);
  EXPECT_EQ(a.next(), first);
}

TEST(Prng, NextBelowInRange) {
  Prng prng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(prng.next_below(17), 17u);
  }
}

TEST(Prng, NextBelowCoversAllValues) {
  Prng prng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(prng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Prng, NextIntInclusiveBounds) {
  Prng prng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = prng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Prng, NextDoubleInUnitInterval) {
  Prng prng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = prng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Prng, ChanceMatchesProbability) {
  Prng prng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (prng.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Prng, WorksWithStdShuffle) {
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  Prng prng(17);
  std::shuffle(v.begin(), v.end(), prng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Table, RendersHeaderAndRows) {
  Table table({"a", "bb"});
  table.add_row({"1", "2"});
  table.add_row({"333", "4"});
  const auto text = table.to_string();
  EXPECT_NE(text.find("a"), std::string::npos);
  EXPECT_NE(text.find("333"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.num_cols(), 2u);
}

TEST(Table, PadsShortRows) {
  Table table({"x", "y", "z"});
  table.add_row({"only"});
  EXPECT_NO_THROW(table.to_string());
}

TEST(Table, NumPrintsHugeValuesInExponentForm) {
  // A fixed form of 64 or more characters does not fit the buffer: it
  // prints in exponent form, never as a cut (wrong) number.
  EXPECT_EQ(Table::num(1.7e308, 1), "1.7e+308");
  EXPECT_EQ(Table::num(-4.4e306, 2), "-4.40e+306");
  EXPECT_EQ(Table::num(1e20, 2), "100000000000000000000.00");
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(1.2345, 2), "1.23");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

}  // namespace
}  // namespace sunmap::util
