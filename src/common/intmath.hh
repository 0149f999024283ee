/**
 * @file
 * Small integer-math helpers used throughout the simulator.
 */

#ifndef VPR_COMMON_INTMATH_HH
#define VPR_COMMON_INTMATH_HH

#include <cstdint>

namespace vpr
{

/** @return true iff @p n is a power of two (0 is not). */
constexpr bool
isPowerOf2(std::uint64_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

/** Floor of log2(n); @p n must be non-zero. */
constexpr unsigned
floorLog2(std::uint64_t n)
{
    unsigned p = 0;
    while (n >>= 1)
        ++p;
    return p;
}

/** Ceiling of log2(n); @p n must be non-zero. */
constexpr unsigned
ceilLog2(std::uint64_t n)
{
    return isPowerOf2(n) ? floorLog2(n) : floorLog2(n) + 1;
}

/** Integer division rounding up. */
constexpr std::uint64_t
divCeil(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/** Round @p a up to the next multiple of @p align (a power of two). */
constexpr std::uint64_t
roundUp(std::uint64_t a, std::uint64_t align)
{
    return (a + align - 1) & ~(align - 1);
}

/** Round @p a down to a multiple of @p align (a power of two). */
constexpr std::uint64_t
roundDown(std::uint64_t a, std::uint64_t align)
{
    return a & ~(align - 1);
}

/** High 64 bits of the 128-bit product @p a * @p b. */
inline std::uint64_t
mulHi64(std::uint64_t a, std::uint64_t b)
{
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(a) * b) >> 64);
}

/**
 * Division by a divisor fixed at set-up time, without a divide
 * instruction. A power-of-two divisor becomes a shift. Any other
 * divisor below 2^32 uses the exact reciprocal c = ceil(2^64 / d) and
 * n / d = (c * n) >> 64, which Lemire, Kaser & Kurz ("Faster Remainder
 * by Direct Computation", SPE 2019) prove exact for every 32-bit n;
 * set-up is told the largest numerator and falls back to a real
 * division when it does not fit in 32 bits.
 */
class ExactDivisor
{
  public:
    /** Divide by @p d (> 0); numerators never exceed @p maxNumerator. */
    ExactDivisor(std::uint64_t d, std::uint64_t maxNumerator) : div(d)
    {
        if (isPowerOf2(d))
            shift = floorLog2(d);
        else if (d != 0 && d <= kMax32 && maxNumerator <= kMax32)
            recip = ~std::uint64_t{0} / d + 1;
    }

    /** @p n / d, exact for every n <= the set-up maxNumerator. */
    std::uint64_t
    divide(std::uint64_t n) const
    {
        if (recip != 0)
            return mulHi64(n, recip);
        if (shift != kNoShift)
            return n >> shift;
        return n / div;
    }

  private:
    static constexpr std::uint64_t kMax32 = 0xffffffffull;
    static constexpr unsigned kNoShift = 64;

    std::uint64_t div;
    std::uint64_t recip = 0;  ///< ceil(2^64 / d); 0 = not used
    unsigned shift = kNoShift;
};

} // namespace vpr

#endif // VPR_COMMON_INTMATH_HH
