/**
 * @file
 * perfbench: one workload of the paper-regeneration benchmark per
 * process. See NOTES.md for the workloads, the metrics and how each
 * layer metric should move an end-to-end one.
 *
 *   perfbench --workload <paper_cold|paper_sampled_fill|paper_warm_cache>
 *             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
 *             [--t0 <monotonic s>] [--setup-only] [--load-delay-us <us>]
 *
 * Output: `# ...` context and digest lines, then one
 * `metric <name> <value> <unit>` line per metric and a final
 * `result <attempted> <failed>` line. Exit 2 on a refused build or bad
 * arguments.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>

#include "bench.hh"
#include "sim/result_cache.hh"

using namespace perfbench;

namespace
{

/** Optimised builds only: NDEBUG from the build type, __OPTIMIZE__ from
 *  the compiler flags. */
#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr bool kOptimisedBuild = true;
#else
constexpr bool kOptimisedBuild = false;
#endif

/** Seeds (from --seed on) whose cells the sampled-estimator error
 *  averages over: one seed's error varies too much from seed to seed to
 *  hold a bound. */
constexpr unsigned kAccuracySeeds = 4;

/** Seeds (from --seed on) each paper_sampled_fill pass regenerates. */
constexpr unsigned kFillSeeds = 2;

/** Grid workers: nproc, up to the four this benchmark was sized on. */
constexpr unsigned kMaxJobs = 4;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workdir;
    double t0 = -1;
    bool setupOnly = false;
    double loadDelayUs = 0;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr, "perfbench: %s (see the header of main.cc)\n", why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--setup-only") {
            a.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--workdir") {
            a.workdir = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v, &end);
        } else if (flag == "--trace") {
            a.trace = std::strtoul(v, &end, 10) != 0;
        } else if (flag == "--t0") {
            a.t0 = std::strtod(v, &end);
        } else if (flag == "--load-delay-us") {
            a.loadDelayUs = std::strtod(v, &end);
        } else {
            usage(("unknown argument " + flag).c_str());
        }
        if (end && *end)
            usage(("bad value for " + flag).c_str());
    }
    if (a.workload != "paper_cold" && a.workload != "paper_sampled_fill" &&
        a.workload != "paper_warm_cache")
        usage("unknown --workload");
    if (a.workdir.empty() || !(a.seconds > 0))
        usage("--workdir and --seconds > 0 are required");
    return a;
}


void
printMetric(const MetricOut &m)
{
    std::printf("metric %s %.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

std::uint64_t
cellCount(const GridSet &set)
{
    std::uint64_t n = 0;
    for (const FigureGrid &g : set)
        n += g.cells.size();
    return n;
}

/** Simulated instructions one pass stands for: every cell the pass
 *  simulates, or serves from the cache when @p countHits. A cell whose
 *  digest already ran earlier in the pass is a cache hit. */
double
passSimInsts(const GridSet &set, bool countHits)
{
    std::set<std::uint64_t> seen;
    double insts = 0;
    for (const FigureGrid &g : set)
        for (const GridCell &cell : g.cells)
            if (countHits || cell.config.resultCache.dir.empty() ||
                seen.insert(vpr::resultCacheDigest(cell)).second)
                insts += static_cast<double>(cellSimInsts(cell));
    return insts;
}

void
printDigests(const GridSet &set, const PassOutput &pass)
{
    std::string all;
    for (std::size_t i = 0; i < set.size(); ++i) {
        std::printf("# records %s-s%llu %s\n", set[i].def->name.c_str(),
                    static_cast<unsigned long long>(set[i].seed),
                    digestHex(pass.records[i]).c_str());
        all += pass.records[i];
    }
    std::printf("# records_digest %s\n", digestHex(all).c_str());
}

/** Restart the kernel's peak-RSS count (Linux 4.0+), so peak_rss_mb
 *  covers the timed passes and not the untimed preparation. */
bool
resetPeakRss()
{
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    if (!f)
        return false;
    const bool ok = std::fputs("5", f) >= 0;
    return std::fclose(f) == 0 && ok;
}

/** Peak resident set in MB: VmHWM, or the whole-process rusage figure
 *  where /proc is unavailable. */
double
peakRssMb()
{
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        long kb = -1;
        while (std::fgets(line, sizeof line, f))
            if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1)
                break;
        std::fclose(f);
        if (kb >= 0)
            return static_cast<double>(kb) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const double processStart = nowS();
    const Args args = parseArgs(argc, argv);
    const double t0 = args.t0 >= 0 ? args.t0 : processStart;
    if (!kOptimisedBuild) {
        std::fprintf(stderr, "perfbench: refusing to measure a build "
                             "without NDEBUG and optimisation; configure "
                             "with -DCMAKE_BUILD_TYPE=Release\n");
        return 2;
    }
    const unsigned jobs =
        std::clamp(std::thread::hardware_concurrency(), 1u, kMaxJobs);
    std::printf("# context nproc=%u jobs=%u build_type=release "
                "compiler=\"%s\" seed=%llu workload=%s trace=%d\n",
                std::thread::hardware_concurrency(), jobs, __VERSION__,
                static_cast<unsigned long long>(args.seed),
                args.workload.c_str(), args.trace ? 1 : 0);
    setLoadDelayUs(args.loadDelayUs);

    // ---- set-up: registry, grid builds, store directories ----
    const WorkDirs dirs = openWorkDirs(args.workdir);
    const std::vector<const FigureDef *> figs = paperFigures();
    const bool fill = args.workload == "paper_sampled_fill";
    const bool warm = args.workload == "paper_warm_cache";
    double buildMs = 0;
    GridSet timed;
    if (fill) {
        for (unsigned k = 0; k < kFillSeeds; ++k) {
            GridSet one = buildGrids(figs, args.seed + k, true,
                                     dirs.resultCache, dirs.ckpt, &buildMs);
            timed.insert(timed.end(), one.begin(), one.end());
        }
    } else {
        timed = buildGrids(figs, args.seed, false,
                           warm ? dirs.resultCache : "", "", &buildMs);
    }
    const double setupS = nowS() - t0;
    if (args.setupOnly) {
        printMetric({"setup_s", setupS, "s"});
        return 0;
    }

    // ---- untimed preparation ----
    std::uint64_t attempted = 0, failed = 0;
    auto check = [&](const GridSet &set, const PassOutput &pass) {
        attempted += cellCount(set);
        failed += pass.thrown + checkCells(set, pass);
    };
    // The sampled-estimator error pairs sampled and detailed records of
    // a panel of seeds; what the timed grids do not already hold runs
    // here. A traced run prints no end-to-end metric and skips it.
    IpcTable sampledIpc, fullIpc;
    for (std::uint64_t seed = args.seed;
         !args.trace && seed < args.seed + kAccuracySeeds; ++seed) {
        GridSet sampled, full;
        if (!fill || seed >= args.seed + kFillSeeds)
            sampled =
                buildGrids(figs, seed, true, dirs.prepCache, dirs.prepCkpt);
        if (fill || seed != args.seed)
            full = buildGrids(figs, seed, false, dirs.prepCache, "");
        for (const auto &[set, into] : {std::pair{&sampled, &sampledIpc},
                                        std::pair{&full, &fullIpc}}) {
            const PassOutput pass = runPass(*set, jobs, "");
            check(*set, pass);
            collectIpc(*into, *set, pass);
        }
    }
    PassOutput fillPass;
    if (warm) {
        fillPass = runPass(timed, jobs, "");
        check(timed, fillPass);
        fillPass.results.clear();  // only its records are compared
    }
    const bool rssReset = resetPeakRss();

    // ---- timed passes ----
    // Each timed pass adds its cells to `attempted` once, and at most that
    // many failures: a cell that fails two checks is one failed cell.
    const std::uint64_t passCells = cellCount(timed);
    PassOutput first;
    auto onePass = [&](unsigned passJobs, const char *sameAs) {
        if (fill) {
            clearDir(dirs.resultCache);
            clearDir(dirs.ckpt);
        }
        const std::uint64_t hits0 = vpr::resultCacheCounters().hits;
        PassOutput p = runPass(timed, passJobs, dirs.out);
        const std::uint64_t hits = vpr::resultCacheCounters().hits - hits0;
        attempted += passCells;
        std::uint64_t bad = p.thrown + checkCells(timed, p);
        if (warm) {
            bad += checkSameRecords("warm replay", fillPass, p);
            // A cell simulated again instead of loaded would still match
            // its record and show only as time, so count it here.
            const std::uint64_t served = passCells - p.thrown;
            if (hits < served) {
                std::fprintf(stderr, "perfbench: check failed: warm pass "
                                     "loaded %llu of %llu cells\n",
                             static_cast<unsigned long long>(hits),
                             static_cast<unsigned long long>(served));
                bad += served - hits;
            }
        }
        if (sameAs)
            bad += checkSameRecords(sameAs, first, p);
        failed += std::min(bad, passCells);
        return p;
    };
    std::vector<double> walls, cpus;
    const double measureStart = nowS();
    // In a traced run the untraced passes only anchor the idle and
    // overhead ratios; they need not fill --seconds.
    const std::size_t minPasses = args.trace ? 1 : 2;
    while (walls.size() < minPasses ||
           (!args.trace && nowS() - measureStart < args.seconds)) {
        PassOutput p = onePass(jobs, walls.empty() ? nullptr : "repeated pass");
        walls.push_back(p.wallS);
        cpus.push_back(p.cpuS);
        if (walls.size() == 1)
            first = std::move(p);
    }
    printDigests(timed, first);

    std::vector<MetricOut> metrics;
    if (args.trace) {
        const PassOutput serial = onePass(1, "one-worker pass");
        TraceInputs in;
        in.timed = timed;
        in.dirs = dirs;
        in.jobs = jobs;
        in.untracedWallS = median(walls);
        in.untracedSerialWallS = serial.wallS;
        in.untraced = &first;
        in.buildMs = buildMs;
        in.clearStores = fill;
        in.spansPath = dirs.root + "/spans.json";
        metrics = tracedRun(in, attempted, failed);
    } else {
        const double cpu = median(cpus);
        collectIpc(fill ? sampledIpc : fullIpc, timed, first);
        const SampledError se = sampledError(sampledIpc, fullIpc);
        paperDeviationPp(sampledIpc, args.seed, "sampled");
        std::printf("# passes %zu cells %llu wall_s p10 %.6f p50 %.6f "
                    "p90 %.6f cpu_s p50 %.6f peak_rss %s\n",
                    walls.size(),
                    static_cast<unsigned long long>(cellCount(timed)),
                    quantile(walls, 0.1), median(walls),
                    quantile(walls, 0.9), cpu,
                    rssReset ? "timed-passes" : "whole-process");
        metrics = {
            {"cpu_s", cpu, "s"},
            {"setup_s", setupS, "s"},
            {"sim_minst_per_cpu_s", passSimInsts(timed, warm) / 1e6 / cpu,
             "Minst/cpu-s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"cell_pass_frac",
             1.0 - static_cast<double>(failed) /
                       static_cast<double>(attempted),
             "fraction"},
            {"paper_dev_pp", paperDeviationPp(fullIpc, args.seed, "detailed"),
             "pp"},
            {"sampled_ipc_err_pct", se.meanErrPct, "%"},
            {"sampled_ci_miss_frac", se.ciMissFrac, "fraction"},
        };
    }
    for (const MetricOut &m : metrics)
        printMetric(m);
    std::printf("result %llu %llu\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    return 0;
}
