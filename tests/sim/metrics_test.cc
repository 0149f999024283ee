/** @file Unit tests for MetricsRecord and its StatGroup plumbing. */

#include <gtest/gtest.h>

#include <cstring>
#include <iomanip>
#include <limits>
#include <random>
#include <sstream>
#include <string>

#include "common/stats.hh"
#include "sim/metrics.hh"

namespace vpr
{
namespace
{

TEST(MetricsRecord, KeepsInsertionOrder)
{
    MetricsRecord m;
    m.setUInt("b.two", "", 2);
    m.setReal("a.one", "", 1.0);
    m.setUInt("c.three", "", 3);
    ASSERT_EQ(m.size(), 3u);
    EXPECT_EQ(m.all()[0].name(), "b.two");
    EXPECT_EQ(m.all()[1].name(), "a.one");
    EXPECT_EQ(m.all()[2].name(), "c.three");
}

TEST(MetricsRecord, LookupByName)
{
    MetricsRecord m;
    m.setUInt("core.cycles", "cycles", 100);
    m.setReal("core.ipc", "ipc", 1.5);
    EXPECT_TRUE(m.has("core.cycles"));
    EXPECT_FALSE(m.has("core.nope"));
    EXPECT_EQ(m.counter("core.cycles"), 100u);
    EXPECT_DOUBLE_EQ(m.real("core.ipc"), 1.5);
    // real() works on UInt metrics too; counter() truncates reals.
    EXPECT_DOUBLE_EQ(m.real("core.cycles"), 100.0);
    EXPECT_EQ(m.counter("core.ipc"), 1u);
    // Missing names read as zero.
    EXPECT_EQ(m.counter("core.nope"), 0u);
    EXPECT_DOUBLE_EQ(m.real("core.nope"), 0.0);
}

TEST(MetricsRecord, OverwriteKeepsPosition)
{
    MetricsRecord m;
    m.setUInt("x", "", 1);
    m.setUInt("y", "", 2);
    m.setReal("x", "", 9.5);
    ASSERT_EQ(m.size(), 2u);
    EXPECT_EQ(m.all()[0].name(), "x");
    EXPECT_DOUBLE_EQ(m.real("x"), 9.5);
}

TEST(MetricsRecord, SameSchemaComparesNamesAndOrder)
{
    MetricsRecord a, b, c;
    a.setUInt("one", "", 1);
    a.setUInt("two", "", 2);
    b.setUInt("one", "", 7);
    b.setUInt("two", "", 8);
    c.setUInt("two", "", 2);
    c.setUInt("one", "", 1);
    EXPECT_TRUE(a.sameSchema(b));
    EXPECT_FALSE(a.sameSchema(c));  // same names, different order
}

TEST(MetricsRecord, PopulatedByVisitingStatGroups)
{
    stats::StatGroup g("core");
    stats::Scalar cycles("cycles", "elapsed");
    cycles.set(42);
    stats::Real ipc("ipc", "rate");
    ipc.set(1.25);
    g.add(&cycles);
    g.add(&ipc);

    MetricsRecord m;
    g.visit(m);
    ASSERT_EQ(m.size(), 2u);
    EXPECT_EQ(m.counter("core.cycles"), 42u);
    EXPECT_DOUBLE_EQ(m.real("core.ipc"), 1.25);
    EXPECT_EQ(m.all()[0].desc(), "elapsed");
}

TEST(MetricsRecord, RevisitOverwritesInAnyOrder)
{
    // Sampled runs revisit one record per measurement interval; the
    // in-order revisit takes the cursor fast path, but correctness
    // must not depend on arrival order.
    MetricsRecord m;
    m.setUInt("a", "", 1);
    m.setUInt("b", "", 2);
    m.setUInt("c", "", 3);
    // In-order revisit.
    m.setUInt("a", "", 10);
    m.setUInt("b", "", 20);
    m.setUInt("c", "", 30);
    // Out-of-order revisit.
    m.setUInt("c", "", 300);
    m.setUInt("a", "", 100);
    m.setUInt("b", "", 200);
    ASSERT_EQ(m.size(), 3u);
    EXPECT_EQ(m.counter("a"), 100u);
    EXPECT_EQ(m.counter("b"), 200u);
    EXPECT_EQ(m.counter("c"), 300u);
    EXPECT_EQ(m.all()[0].name(), "a");
    EXPECT_EQ(m.all()[2].name(), "c");
}

TEST(Metric, TextRoundTripsExactly)
{
    auto &tab = stats::SymbolTable::global();
    Metric u{tab.intern("n"), tab.intern(""), Metric::Kind::UInt,
             1234567890123456789ull, 0.0};
    EXPECT_EQ(u.text(), "1234567890123456789");

    Metric r{tab.intern("r"), tab.intern(""), Metric::Kind::Real, 0, 0.0};
    r.rval = 1.0 / 3.0;
    double back = std::strtod(r.text().c_str(), nullptr);
    EXPECT_EQ(back, r.rval);  // bit-exact, not just close

    r.rval = 3.0;  // integral-valued real prints without a decimal point
    EXPECT_EQ(r.text(), "3");
}

/** The iostream rendering exported records used before text() moved to
 *  std::to_chars: every record must keep its bytes. */
std::string
streamText(double v)
{
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

TEST(Metric, RealTextMatchesTheStreamFormatting)
{
    using limits = std::numeric_limits<double>;
    auto &tab = stats::SymbolTable::global();
    Metric r{tab.intern("r"), tab.intern(""), Metric::Kind::Real, 0, 0.0};
    auto check = [&r](double v) {
        r.rval = v;
        char buf[Metric::kMaxTextLen];
        const std::size_t n = r.writeText(buf);
        EXPECT_EQ(r.text(), streamText(v)) << std::hexfloat << v;
        EXPECT_EQ(std::string(buf, n), r.text());
    };
    const double special[] = {
        0.0, -0.0, limits::denorm_min(), -limits::denorm_min(),
        limits::min() / 3, limits::min(), limits::max(), -limits::max(),
        limits::infinity(), -limits::infinity(), limits::quiet_NaN(),
        -limits::quiet_NaN(), 1e308, -1e308, 1e-308, 3.0, -7.0, 1e15,
        1e16, 1e17, 9007199254740992.0, 123456789012345678.0, 0.1, 1.0 / 3,
        2.5e-5, 1e21, 1e22};
    for (double v : special)
        check(v);
    // Random bit patterns cover every exponent, denormals and NaN
    // payloads included.
    std::mt19937_64 rng(12345);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t bits = rng();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        check(v);
    }
    // Counters print in full.
    Metric u{tab.intern("u"), tab.intern(""), Metric::Kind::UInt,
             std::numeric_limits<std::uint64_t>::max(), 0.0};
    EXPECT_EQ(u.text(), "18446744073709551615");
}

} // namespace
} // namespace vpr
