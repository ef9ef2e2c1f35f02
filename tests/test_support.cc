/**
 * @file
 * Unit tests for the support library: RNG determinism, statistics,
 * table rendering, parallel_for, and the record layer's token grammar,
 * line numbering and writer guard.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/parallel_for.h"
#include "support/record.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/table.h"
#include "tests/util.h"

namespace astra {
namespace {

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next_u64() == b.next_u64();
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const int64_t v = r.next_range(3, 6);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 6);
        saw_lo |= v == 3;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        const double d = r.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng r(13);
    RunningStats s;
    for (int i = 0; i < 20000; ++i)
        s.add(r.next_gaussian());
    EXPECT_NEAR(s.mean(), 0.0, 0.05);
    EXPECT_NEAR(s.stddev(), 1.0, 0.05);
}

TEST(RunningStats, BasicMoments)
{
    RunningStats s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(RunningStats, Percentile)
{
    RunningStats s;
    for (int i = 1; i <= 100; ++i)
        s.add(i);
    EXPECT_NEAR(s.percentile(0.5), 50.0, 1.0);
    EXPECT_NEAR(s.percentile(0.99), 99.0, 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
}

TEST(RunningStats, CovZeroMean)
{
    RunningStats s;
    s.add(0.0);
    s.add(0.0);
    EXPECT_DOUBLE_EQ(s.cov(), 0.0);
}

TEST(TextTable, RendersHeaderAndRows)
{
    TextTable t("Title");
    t.set_header({"name", "a", "b"});
    t.add_row("row1", {1.25, 2.5});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("Title"), std::string::npos);
    EXPECT_NE(out.find("row1"), std::string::npos);
    EXPECT_NE(out.find("1.25"), std::string::npos);
    EXPECT_NE(out.find("2.50"), std::string::npos);
}

TEST(TextTable, FmtDigits)
{
    EXPECT_EQ(TextTable::fmt(1.234, 2), "1.23");
    EXPECT_EQ(TextTable::fmt(2.0, 0), "2");
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce)
{
    for (int threads : {1, 2, 4, 7}) {
        constexpr int64_t kN = 1000;
        std::vector<std::atomic<int>> hits(kN);
        parallel_for(threads, kN, [&](int64_t i) {
            hits[static_cast<size_t>(i)].fetch_add(1);
        });
        for (int64_t i = 0; i < kN; ++i)
            EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1)
                << "index " << i << " at " << threads << " threads";
    }
}

TEST(ParallelFor, OneThreadRunsInline)
{
    // With one thread (or fewer) the body must run on the calling
    // thread, in index order — the property that makes threads=1 the
    // exact serial loop.
    const std::thread::id caller = std::this_thread::get_id();
    for (int threads : {-1, 0, 1}) {
        std::vector<int64_t> order;
        parallel_for(threads, 16, [&](int64_t i) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            order.push_back(i);
        });
        ASSERT_EQ(order.size(), 16u);
        for (int64_t i = 0; i < 16; ++i)
            EXPECT_EQ(order[static_cast<size_t>(i)], i);
    }
}

TEST(ParallelFor, FirstExceptionPropagates)
{
    std::atomic<int64_t> ran{0};
    try {
        parallel_for(4, 64, [&](int64_t i) {
            ran.fetch_add(1);
            if (i == 13)
                throw std::runtime_error("boom");
        });
        FAIL() << "expected the task exception to propagate";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "boom");
    }
    // The rest of the batch still completes (no partial abandon).
    EXPECT_EQ(ran.load(), 64);
}

TEST(ParallelFor, EveryTaskThrowing)
{
    // The calling thread's own tasks throw too: the workers must still
    // be joined and one exception rethrown (an unjoined std::thread
    // would call std::terminate).
    for (int threads : {2, 4}) {
        std::atomic<int64_t> ran{0};
        EXPECT_THROW(parallel_for(threads, 16,
                                  [&](int64_t) {
                                      ran.fetch_add(1);
                                      throw std::runtime_error("all");
                                  }),
                     std::runtime_error);
        EXPECT_EQ(ran.load(), 16) << threads << " threads";
    }
}

TEST(ParallelFor, UsableAfterException)
{
    // Regression for the wirer's fault path: a shard that throws (a
    // dispatch whose fault budget is exhausted, a bind callback error)
    // must not deadlock or leave threads behind — later calls run
    // their batches to completion.
    for (int round = 0; round < 3; ++round) {
        std::atomic<int64_t> ran{0};
        EXPECT_THROW(parallel_for(4, 32,
                                  [&](int64_t i) {
                                      ran.fetch_add(1);
                                      if (i % 7 == 0)
                                          throw std::runtime_error(
                                              "shard failure");
                                  }),
                     std::runtime_error);
        EXPECT_EQ(ran.load(), 32);  // whole batch still drained
        std::atomic<int64_t> ok{0};
        parallel_for(4, 32, [&](int64_t) { ok.fetch_add(1); });
        EXPECT_EQ(ok.load(), 32);
    }
}

TEST(ParallelFor, EmptyAndSingleBatches)
{
    int calls = 0;
    parallel_for(4, 0, [&](int64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallel_for(4, 1, [&](int64_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(Record, IntegersAreWholeDecimalTokensInRange)
{
    int v = 7;
    EXPECT_TRUE(record::parse_int("-12", &v));
    EXPECT_EQ(v, -12);
    EXPECT_TRUE(record::parse_int("3", &v, 1, 3));
    EXPECT_EQ(v, 3);
    for (const char* bad : {"", "+1", " 1", "1 ", "1x", "0x10", "1e3",
                            "4", "0", "99999999999"}) {
        v = 7;
        EXPECT_FALSE(record::parse_int(bad, &v, 1, 3)) << bad;
        EXPECT_EQ(v, 7) << bad;  // untouched on failure
    }
    int64_t big = 0;
    EXPECT_TRUE(record::parse_int("9223372036854775807", &big));
    EXPECT_FALSE(record::parse_int("9223372036854775808", &big));
}

TEST(Record, DoublesKeepHexfloatAndRejectJunk)
{
    // parse_finite is the one double grammar: finite, decimal or "0x"
    // hex only.
    const struct
    {
        const char* tok;
        bool finite;
    } cases[] = {
        {"1.5", true},       {"-2.5e3", true},   {"+0.5", true},
        {"0x1.8p+3", true},  {"-0X1.8P+3", true}, {"0x1", true},
        {"1.8p+3", false},   {"inf", false},     {"nan", false},
        {"1f", false},       {"0b1", false},     {"0x", false},
        {"+-1", false},      {"0x-1", false},    {"1e999", false},
        {"1,5", false},      {" 1", false},      {"", false},
        {"+0x1.8p+3", true},
    };
    for (const auto& c : cases) {
        double v = 0.0;
        EXPECT_EQ(record::parse_finite(c.tok, &v), c.finite) << c.tok;
    }
    double v = 0.0;
    ASSERT_TRUE(record::parse_finite("-0X1.8P+3", &v));
    EXPECT_EQ(v, -12.0);
    EXPECT_FALSE(record::parse_finite("0.5", &v, 1.0));
    EXPECT_TRUE(record::parse_finite("0x1p+0", &v, 1.0, 1.0));
    EXPECT_EQ(v, 1.0);
}

TEST(Record, LineReaderNumbersLinesAndTokens)
{
    std::string error;
    record::LineReader in("a  b\tc\n\nkey 1 with spaces\nlast", &error);
    const std::vector<std::string_view>& t = in.tokens();
    ASSERT_TRUE(in.next());
    EXPECT_EQ(t, (std::vector<std::string_view>{"a", "b", "c"}));
    ASSERT_TRUE(in.next());
    EXPECT_TRUE(t.empty());
    ASSERT_TRUE(in.next());
    EXPECT_EQ(t, (std::vector<std::string_view>{"key", "1", "with",
                                                "spaces"}));
    EXPECT_EQ(in.rest(), "last");
    ASSERT_TRUE(in.next());
    EXPECT_EQ(in.line(), "last");
    EXPECT_FALSE(in.next());
    EXPECT_FALSE(in.fail("missing ", 2, " lines"));
    EXPECT_EQ(error, "line 5: missing 2 lines");  // one past the last

    record::Diag diag(&error, "token");
    diag.at = 3;
    EXPECT_FALSE(diag.fail("bad"));
    EXPECT_EQ(error, "token 3: bad");
}

TEST(Record, WriteGuardPinsClassicHexfloatAndRestores)
{
    std::ostringstream os;
    os.imbue(
        std::locale(std::locale::classic(), new testutil::CommaDecimal));
    os << std::fixed;
    {
        const record::WriteGuard pin(os);
        os << 1234 << " " << 1.5 << "|";
    }
    os << 1234 << " " << 1.5;
    EXPECT_EQ(os.str(), "1234 0x1.8p+0|1.234 1,500000");
}

TEST(Record, SplitKeepsEmptyFields)
{
    EXPECT_EQ(record::split("a;;b", ';'),
              (std::vector<std::string_view>{"a", "", "b"}));
    EXPECT_EQ(record::split("", ';'), (std::vector<std::string_view>{""}));
}

TEST(RecordDeathTest, IntArgNamesTheFlagAndExitsOne)
{
    EXPECT_EQ(record::int_arg("--streams", "4", 1, 64), 4);
    EXPECT_EXIT(record::int_arg("--streams", "x", 1, 64),
                ::testing::ExitedWithCode(1),
                "--streams wants an integer in \\[1, 64\\], got 'x'");
}

}  // namespace
}  // namespace astra
