// Unit tests for deep::util — units, RNG, CSV tables, error macros.

#include <gtest/gtest.h>

#include <set>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace du = deep::util;

TEST(Units, FormatBytes) {
  EXPECT_EQ(du::format_bytes(0), "0 B");
  EXPECT_EQ(du::format_bytes(512), "512 B");
  EXPECT_EQ(du::format_bytes(4096), "4.0 KiB");
  EXPECT_EQ(du::format_bytes(3 * du::MiB / 2), "1.5 MiB");
  EXPECT_EQ(du::format_bytes(du::GiB), "1.00 GiB");
}

TEST(Units, FormatRate) {
  EXPECT_EQ(du::format_rate(5.9e9), "5.90 GB/s");
  EXPECT_EQ(du::format_rate(250e6), "250.0 MB/s");
  EXPECT_EQ(du::format_rate(1e3), "1.0 kB/s");
}

TEST(Error, ExpectThrowsUsageError) {
  EXPECT_THROW(DEEP_EXPECT(false, "boom"), du::UsageError);
  EXPECT_NO_THROW(DEEP_EXPECT(true, "fine"));
}

TEST(Error, MessageCarriesLocationAndText) {
  try {
    DEEP_EXPECT(false, "something went wrong");
    FAIL() << "should have thrown";
  } catch (const du::UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("something went wrong"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("util_test.cpp"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  du::Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  du::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange) {
  du::Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

// The rejection-sampling draw Rng::below used for every bound before it
// got a power-of-two path, kept as the reference that path must match.
std::uint64_t division_below(du::Rng& rng, std::uint64_t bound) {
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = rng();
    if (r >= threshold) return r % bound;
  }
}

TEST(Rng, BelowPowerOfTwoMatchesDivisionPath) {
  for (const int k : {0, 1, 2, 4, 5, 16, 31, 32, 63}) {
    const std::uint64_t bound = std::uint64_t{1} << k;
    du::Rng fast(1000 + static_cast<std::uint64_t>(k));
    du::Rng slow(1000 + static_cast<std::uint64_t>(k));
    for (int i = 0; i < 100000; ++i)
      ASSERT_EQ(fast.below(bound), division_below(slow, bound))
          << "bound 2^" << k << " draw " << i;
    // Both consumed the same number of draws.
    EXPECT_EQ(fast(), slow());
  }
}

TEST(Rng, CoinMatchesChanceOneHalf) {
  du::Rng fast(5), slow(5);
  for (int i = 0; i < 100000; ++i)
    ASSERT_EQ(fast.coin(), slow.chance(0.5)) << "draw " << i;
}

TEST(Rng, BelowZeroBoundThrows) {
  du::Rng rng(7);
  EXPECT_THROW(rng.below(0), du::UsageError);
}

TEST(Rng, UniformInUnitInterval) {
  du::Rng rng(11);
  double lo = 1.0, hi = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  EXPECT_LT(lo, 0.05);  // covers the interval
  EXPECT_GT(hi, 0.95);
}

TEST(Rng, ChanceExtremes) {
  du::Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ReseedRestartsStream) {
  du::Rng a(5);
  const auto x0 = a();
  const auto x1 = a();
  a.reseed(5);
  EXPECT_EQ(a(), x0);
  EXPECT_EQ(a(), x1);
}

TEST(Table, CsvRendering) {
  du::Table t({"name", "count", "rate"});
  t.row().add("alpha").add(3).add(1.5);
  t.row().add("beta").add(10).add(0.25);
  EXPECT_EQ(t.to_csv(), "name,count,rate\nalpha,3,1.5\nbeta,10,0.25\n");
}

TEST(Table, CsvQuotesSeparatorsQuotesAndLineBreaks) {
  // RFC 4180: fields with commas, quotes, LF or CR are quoted; embedded
  // quotes are doubled.  Plain fields stay unquoted.
  du::Table t({"metric", "note"});
  t.row().add("a,b").add("plain");
  t.row().add("say \"hi\"").add("line1\nline2");
  t.row().add("cr\rhere").add("tab\tstays");  // tab is not special in CSV
  EXPECT_EQ(t.to_csv(),
            "metric,note\n"
            "\"a,b\",plain\n"
            "\"say \"\"hi\"\"\",\"line1\nline2\"\n"
            "\"cr\rhere\",tab\tstays\n");
}

TEST(Table, CsvQuotesHeaderFieldsToo) {
  du::Table t({"name, unit", "value"});
  t.row().add("x").add(1);
  EXPECT_EQ(t.to_csv(), "\"name, unit\",value\nx,1\n");
}

TEST(Table, CsvLeavesNumbersUnquoted) {
  du::Table t({"i", "d"});
  t.row().add(-7).add(2.5);
  EXPECT_EQ(t.to_csv(), "i,d\n-7,2.5\n");
}

TEST(Table, PrettyAlignsColumns) {
  du::Table t({"a", "long_column"});
  t.row().add("x").add(1);
  const std::string s = t.to_pretty();
  EXPECT_NE(s.find("long_column"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, AtAccessor) {
  du::Table t({"k", "v"});
  t.row().add("key").add(7);
  EXPECT_EQ(std::get<std::string>(t.at(0, 0)), "key");
  EXPECT_EQ(std::get<std::int64_t>(t.at(0, 1)), 7);
  EXPECT_THROW(t.at(1, 0), du::UsageError);
}

TEST(Table, MisuseThrows) {
  du::Table t({"only"});
  EXPECT_THROW(t.add("no open row"), du::UsageError);
  t.row().add("v");
  EXPECT_THROW(t.add("row already full"), du::UsageError);
}

TEST(Table, EmptyColumnsRejected) {
  EXPECT_THROW(du::Table({}), du::UsageError);
}

#include "util/log.hpp"

TEST(Log, LevelRoundTrip) {
  const auto saved = du::log_level();
  du::set_log_level(du::LogLevel::Debug);
  EXPECT_EQ(du::log_level(), du::LogLevel::Debug);
  du::set_log_level(du::LogLevel::Off);
  EXPECT_EQ(du::log_level(), du::LogLevel::Off);
  // Emitting below the level is a no-op (must not crash or print).
  du::log_debug("suppressed ", 1, " and ", 2.5);
  du::log_info("suppressed");
  du::log_warn("suppressed");
  du::set_log_level(saved);
}

TEST(Log, ConcatFormatsMixedTypes) {
  EXPECT_EQ(du::detail::concat("x=", 42, ", y=", 1.5), "x=42, y=1.5");
  EXPECT_EQ(du::detail::concat(), "");
}
