/**
 * @file
 * Clock, statistics and digest helpers, and the benchmark's own wrapper
 * around the result-cache load.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <ctime>

#include "bench.hh"
#include "common/state.hh"
#include "sim/result_cache.hh"

namespace perfbench
{

double
nowS()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
processCpuS()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

void
spinUs(double us)
{
    const double until = nowS() + us * 1e-6;
    while (nowS() < until) {
    }
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string
digestHex(const std::string &bytes)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(vpr::fnv1a(bytes)));
    return buf;
}

namespace
{

std::atomic<double> g_loadDelayUs{0.0};

} // namespace

void
setLoadDelayUs(double us)
{
    g_loadDelayUs.store(us);
}

} // namespace perfbench

// The link step maps every call to vpr::loadCachedResult — the
// engine's included — onto this wrapper (--wrap in CMakeLists.txt).
extern "C" bool
__real__ZN3vpr16loadCachedResultERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_8GridCellERNS_10SimResultsE(
    const std::string &dir, const vpr::GridCell &cell,
    vpr::SimResults &out);

extern "C" bool
__wrap__ZN3vpr16loadCachedResultERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_8GridCellERNS_10SimResultsE(
    const std::string &dir, const vpr::GridCell &cell,
    vpr::SimResults &out)
{
    const double delay =
        perfbench::g_loadDelayUs.load(std::memory_order_relaxed);
    if (delay > 0)
        perfbench::spinUs(delay);
    return __real__ZN3vpr16loadCachedResultERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_8GridCellERNS_10SimResultsE(
        dir, cell, out);
}
