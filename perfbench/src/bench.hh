/**
 * @file
 * Shared declarations of the paper-regeneration benchmark binary.
 *
 * The binary runs one workload per process through the simulator's
 * public grid API (FigureDef::build/render, runGrid, writeResultsCsv,
 * the result cache and the checkpoint directory), checks every output
 * and prints its metrics as `name value unit` lines. run.py turns those
 * lines into the benchmark's JSON result.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "figures.hh"

namespace perfbench
{

using vpr::GridCell;
using vpr::SimResults;
using vpr::bench::FigureDef;

/** Seconds on the monotonic clock (the same clock as Python's
 *  time.monotonic(), so run.py can pass its spawn time in). */
double nowS();

/** CPU seconds used so far by every thread of this process. Unlike
 *  wall time it leaves out time the host takes a virtual CPU away. */
double processCpuS();

/** Busy-wait for @p us microseconds (precise, unlike sleeping). */
void spinUs(double us);

/** @p q-quantile (0..1) of @p v by linear interpolation; 0 if empty. */
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double> &v) { return quantile(v, 0.5); }

/** 16-hex-digit FNV-1a digest of @p bytes. */
std::string digestHex(const std::string &bytes);

/** @name Result-cache load wrapper (support.cc)
 *  The benchmark's own wrapper around the result-cache load, with the
 *  injectable delay the sensitivity self-check uses. @{ */

/** Delay added to every result-cache load (0 = none). */
void setLoadDelayUs(double us);
/** @} */

/** One figure's grid as the workload runs it. */
struct FigureGrid
{
    const FigureDef *def = nullptr;
    std::uint64_t seed = 0;
    std::vector<GridCell> cells;
};

/** The ordered grids one pass runs (one entry per figure and seed). */
using GridSet = std::vector<FigureGrid>;

/** What one pass over a grid set produced. */
struct PassOutput
{
    double wallS = 0;
    double cpuS = 0;  ///< CPU time of every thread of the process
    /** Per grid: results in cell order, and the exported CSV bytes. */
    std::vector<std::vector<SimResults>> results;
    std::vector<std::string> records;
    /** Cells whose grid threw (whole grid counted). */
    std::uint64_t thrown = 0;
};

/** Where a workload keeps its stores and exported records. */
struct WorkDirs
{
    std::string root;
    std::string resultCache;  ///< timed result cache
    std::string ckpt;         ///< timed checkpoint directory
    std::string prepCache;    ///< untimed reference/fill stores
    std::string prepCkpt;
    std::string out;          ///< exported records
};

/** Build (and clear where needed) the directories under @p root. */
WorkDirs openWorkDirs(const std::string &root);

/** Remove every file in @p dir (the directory itself stays). */
void clearDir(const std::string &dir);

/** The six figures the paper regeneration covers, in paper order. */
std::vector<const FigureDef *> paperFigures();

/**
 * Build @p figures' grids with sim.seed = @p seed; with @p sampled each
 * figure also takes its own --sampling-preset geometry. Non-empty
 * @p resultCache / @p ckpt attach the stores to every cell.
 * @p buildMs accumulates the time spent in FigureDef::build.
 */
GridSet buildGrids(const std::vector<const FigureDef *> &figures,
                   std::uint64_t seed, bool sampled,
                   const std::string &resultCache, const std::string &ckpt,
                   double *buildMs = nullptr);

/** Run, render and export every grid of @p set on @p jobs workers.
 *  Exported records also land in @p outDir (empty = memory only). */
PassOutput runPass(const GridSet &set, unsigned jobs,
                   const std::string &outDir);

/** Simulated instructions one cell stands for, from its config:
 *  detailed (warm-up included) plus fast-forwarded. */
std::uint64_t cellSimInsts(const GridCell &cell);

/** @name Output checks
 *  Each returns the number of failing cells and prints one line per
 *  failure to stderr. @{ */
std::uint64_t checkCells(const GridSet &set, const PassOutput &pass);
/** Row-by-row byte comparison of two passes' exported records. */
std::uint64_t checkSameRecords(const std::string &what,
                               const PassOutput &expect,
                               const PassOutput &got);
/** @} */

/** Sampled-estimator accuracy over paired cells. */
struct SampledError
{
    double meanErrPct = 0;   ///< mean |sampled - full| / full, in %
    double ciMissFrac = 0;   ///< share with full outside sampled ci95
    std::size_t cells = 0;
};

/** Per cell of one (figure, seed) grid: core.ipc and, for sampled
 *  records, the estimator's mean and ci95. */
struct IpcRecord
{
    double ipc = 0;
    double sampledMean = 0;
    double ci95 = 0;
};
using IpcTable =
    std::map<std::pair<std::string, std::uint64_t>, std::vector<IpcRecord>>;

/** Add every grid of @p set that ran to completion in @p pass. */
void collectIpc(IpcTable &into, const GridSet &set, const PassOutput &pass);

/** Mean absolute deviation (percentage points) from the paper's five
 *  quantitative claims — fig7 +31/+19/+8% at 48/64/96 registers and
 *  table2 +19% (miss=50) / +12% (miss=20) — of @p seed's table2 and
 *  fig7 records; NaN when either is missing. Prints the five measured
 *  improvements under @p label. */
double paperDeviationPp(const IpcTable &records, std::uint64_t seed,
                        const char *label);

/** Pair every sampled grid with the detailed grid of the same figure
 *  and seed, cell by cell, and compare core.ipc. */
SampledError sampledError(const IpcTable &sampled, const IpcTable &full);

/** One printed metric. */
struct MetricOut
{
    std::string name;
    double value;
    std::string unit;
};

/** Arguments of one traced run (traced.cc). */
struct TraceInputs
{
    GridSet timed;           ///< one pass worth of grids
    WorkDirs dirs;
    unsigned jobs = 1;
    double untracedWallS = 0;   ///< median untraced pass at @ref jobs
    double untracedSerialWallS = 0;  ///< untraced pass on one worker
    const PassOutput *untraced = nullptr;  ///< records to match
    double buildMs = 0;
    /** Clear the timed stores before the replay (sampled fill). */
    bool clearStores = false;
    std::string spansPath;   ///< where the span dump goes
};

/**
 * Replay @p in.timed serially with spans around every layer call, run
 * the probes, and return the per-layer metrics. @p failed accumulates
 * cells whose traced records differ from the untraced run's.
 */
std::vector<MetricOut> tracedRun(const TraceInputs &in,
                                 std::uint64_t &attempted,
                                 std::uint64_t &failed);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
