/** @file Unit tests for the integer-math helpers. */

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>

#include "common/intmath.hh"

namespace vpr
{
namespace
{

TEST(IntMath, IsPowerOf2)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ull << 40));
    EXPECT_FALSE(isPowerOf2((1ull << 40) + 1));
}

TEST(IntMath, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(4), 2u);
    EXPECT_EQ(floorLog2(1023), 9u);
    EXPECT_EQ(floorLog2(1024), 10u);
}

TEST(IntMath, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
}

TEST(IntMath, DivCeil)
{
    EXPECT_EQ(divCeil(0, 4), 0u);
    EXPECT_EQ(divCeil(1, 4), 1u);
    EXPECT_EQ(divCeil(4, 4), 1u);
    EXPECT_EQ(divCeil(5, 4), 2u);
}

TEST(IntMath, RoundUpDown)
{
    EXPECT_EQ(roundUp(0, 32), 0u);
    EXPECT_EQ(roundUp(1, 32), 32u);
    EXPECT_EQ(roundUp(32, 32), 32u);
    EXPECT_EQ(roundDown(31, 32), 0u);
    EXPECT_EQ(roundDown(33, 32), 32u);
}

TEST(IntMath, MulHi64)
{
    EXPECT_EQ(mulHi64(0, ~0ull), 0u);
    EXPECT_EQ(mulHi64(1ull << 32, 1ull << 32), 1u);
    EXPECT_EQ(mulHi64(~0ull, ~0ull), ~0ull - 1);
}

TEST(ExactDivisor, MatchesDivisionForSmallDivisorsAndNumerators)
{
    for (std::uint64_t d = 1; d <= 300; ++d) {
        ExactDivisor div(d, 5000);
        for (std::uint64_t n = 0; n <= 5000; ++n)
            ASSERT_EQ(div.divide(n), n / d) << n << " / " << d;
    }
}

TEST(ExactDivisor, ReciprocalIsExactAtThe32BitBound)
{
    // The reciprocal path is proven exact for 32-bit numerators; probe
    // the top of that range, where rounding errors would show first,
    // for small, large, prime and near-power-of-two divisors.
    const std::uint64_t max32 = 0xffffffffull;
    std::uint64_t rng = 0x243f6a8885a308d3ull;
    for (std::uint64_t d : std::initializer_list<std::uint64_t>{
             3, 5, 6, 7, 641, 65535, 65537, 2147483647, 2147483649,
             4294967291, max32}) {
        ExactDivisor div(d, max32);
        for (std::uint64_t n = max32 - 4096; n <= max32; ++n)
            ASSERT_EQ(div.divide(n), n / d) << n << " / " << d;
        for (std::uint64_t k = 1; k <= 64; ++k) {
            // Multiples of d and their neighbours.
            const std::uint64_t m = max32 / k / d * d;
            for (std::uint64_t n : {m, m + 1, m > 0 ? m - 1 : m})
                ASSERT_EQ(div.divide(n), n / d) << n << " / " << d;
        }
        for (int i = 0; i < 100000; ++i) {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            const std::uint64_t n = rng & max32;
            ASSERT_EQ(div.divide(n), n / d) << n << " / " << d;
        }
    }
}

TEST(ExactDivisor, PowersOfTwoAndWideNumerators)
{
    // Powers of two shift, whatever the numerator width; any other
    // divisor with numerators past 32 bits divides for real.
    for (unsigned p = 0; p < 64; ++p) {
        ExactDivisor div(1ull << p, ~0ull);
        for (std::uint64_t n : std::initializer_list<std::uint64_t>{
                 0, 1, (1ull << p) - 1, 1ull << p, ~0ull})
            ASSERT_EQ(div.divide(n), n / (1ull << p)) << "p=" << p;
    }
    for (std::uint64_t d : {3ull, 1000ull, (1ull << 33) + 1}) {
        ExactDivisor div(d, 1ull << 40);
        for (std::uint64_t n : std::initializer_list<std::uint64_t>{
                 0, d - 1, d, 0xffffffff, 0x100000000, (1ull << 40) - 1})
            ASSERT_EQ(div.divide(n), n / d) << n << " / " << d;
    }
}

TEST(IntMath, PaperGmtWidthExample)
{
    // Section 3.2.1: GMT rows are log2(NVR) + log2(NPR) + 1 bits. For
    // NVR = 160 and NPR = 64 that is 8 + 6 + 1 = 15 bits.
    EXPECT_EQ(ceilLog2(160) + ceilLog2(64) + 1, 15u);
}

} // namespace
} // namespace vpr
