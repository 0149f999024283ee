/**
 * @file
 * The traced run: a serial replay of one pass of the workload's cells
 * with a span around every call into a layer's public functions, plus
 * probes that time single calls into Core and TraceStream on a warmed
 * simulator. Spans are kept in memory and written out at the end.
 *
 * The replay walks the same steps as the engine's runCell (result-cache
 * load, pooled Simulator reinit or construction, run, result-cache
 * store), so its exported records must equal the untraced run's byte
 * for byte; any difference is counted as a failed cell.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "alloc_count.hh"
#include "bench.hh"
#include "common/io/zio.hh"
#include "common/state.hh"
#include "sim/experiment.hh"
#include "sim/result_cache.hh"
#include "sim/results_io.hh"
#include "trace/kernels/kernels.hh"

namespace perfbench
{

namespace
{

/** One timed interval; parent -1 = root. */
struct Span
{
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;

    double us() const { return (end - start) * 1e6; }
};

class Tracer
{
  public:
    /** Reserve room up front so recording allocates nothing inside the
     *  spans it times. */
    explicit Tracer(std::size_t capacity) { spans.reserve(capacity); }

    int
    open(const char *name, int parent = -1)
    {
        spans.push_back({name, nowS(), 0, parent});
        return static_cast<int>(spans.size() - 1);
    }

    void close(int id) { spans[id].end = nowS(); }

    /** Rename an open span once its outcome is known. */
    void rename(int id, const char *name) { spans[id].name = name; }

    const std::vector<Span> &all() const { return spans; }

    void
    write(const std::string &path) const
    {
        std::ofstream f(path, std::ios::trunc);
        f << "[\n";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            char line[160];
            std::snprintf(line, sizeof line,
                          "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                          "\"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                          i, s.name.c_str(), s.parent,
                          (s.start - spans[0].start) * 1e6,
                          (s.end - spans[0].start) * 1e6,
                          i + 1 < spans.size() ? "," : "");
            f << line;
        }
        f << "]\n";
    }

  private:
    std::vector<Span> spans;
};

/** What the replay learned about the simulated cells. */
struct ReplayTally
{
    std::uint64_t allocs = 0;
    std::uint64_t statsWalks = 0;
    std::uint64_t ckptCells = 0;      ///< simulated cells with a skip
    std::size_t ckptFilesSeen = 0;    ///< checkpoint files so far
    std::uint64_t ffInsts = 0;        ///< fast-forwarded in this replay
    std::uint64_t detailedInsts = 0;
    /** Detailed cycles per probe scheme (conventional, vp_wb, vp_iss). */
    double detailedCycles[3] = {0, 0, 0};
    double runNs = 0;
};

std::size_t
schemeSlot(vpr::RenameScheme s)
{
    switch (s) {
      case vpr::RenameScheme::VPAllocAtWriteback:
        return 1;
      case vpr::RenameScheme::VPAllocAtIssue:
        return 2;
      default:
        return 0;  // conventional, with or without early release
    }
}

std::size_t
fileCount(const std::string &dir)
{
    std::size_t n = 0;
    if (!dir.empty())
        for (const auto &e : std::filesystem::directory_iterator(dir))
            n += e.is_regular_file();
    return n;
}

std::uint64_t
fileBytes(const std::string &dir)
{
    std::uint64_t bytes = 0;
    if (!dir.empty())
        for (const vpr::CacheFileInfo &f : vpr::listCacheFiles({dir}))
            bytes += f.sizeBytes;
    return bytes;
}

/** The engine's runCell, step by step, with a span around each call. */
SimResults
replayCell(const GridCell &cell, Tracer &tr, int cellSpan,
           std::unique_ptr<vpr::Simulator> &pooled, ReplayTally &tally)
{
    if (cell.makeStream)
        throw std::runtime_error("custom-stream cells are not replayed");
    const std::string &cacheDir = cell.config.resultCache.dir;
    const bool cacheable = !cacheDir.empty();
    if (cacheable) {
        SimResults cached;
        const int s = tr.open("load", cellSpan);
        const bool hit = vpr::loadCachedResult(cacheDir, cell, cached);
        tr.close(s);
        if (hit)
            return cached;
    }

    vpr::SimConfig config = cell.config;
    vpr::applyInstructionScale(config);
    const bool skips = !config.ckpt.dir.empty() && config.skipInsts > 0;

    const int s = tr.open("reinit", cellSpan);
    if (!config.pool || !pooled || !pooled->reinit(cell.benchmark, config)) {
        tr.rename(s, "construct");
        pooled = std::make_unique<vpr::Simulator>(cell.benchmark, config);
    }
    tr.close(s);
    std::unique_ptr<vpr::Simulator> sim = std::move(pooled);

    const int r = tr.open("run", cellSpan);
    SimResults results = sim->run();  // a throw drops the simulator
    tr.close(r);
    tally.runNs += tr.all()[r].us() * 1e3;

    // A skip that wrote no new checkpoint restored one instead of
    // fast-forwarding (the replay is the directory's only writer); the
    // restored state carries its skip in the functional-retire count.
    bool restored = false;
    if (skips) {
        const int scan = tr.open("ckpt_scan", cellSpan);
        const std::size_t files = fileCount(config.ckpt.dir);
        tr.close(scan);
        restored = files == tally.ckptFilesSeen;
        tally.ckptFilesSeen = files;
    }
    const vpr::Core &core = sim->core();
    tally.ckptCells += skips;
    tally.ffInsts += core.functionallyRetired() -
                     (restored ? config.skipInsts : 0);
    tally.detailedInsts += core.committedInsts();
    tally.detailedCycles[schemeSlot(config.core.scheme)] +=
        static_cast<double>(core.cycle() - core.functionallyRetired());
    tally.statsWalks +=
        config.sampling.enable
            ? results.metrics.counter("core.ipc.sampled.intervals")
            : 1;
    if (config.pool)
        pooled = std::move(sim);

    if (cacheable && cell.config.resultCache.save) {
        const int st = tr.open("store", cellSpan);
        vpr::storeCachedResult(cacheDir, cell, results);
        tr.close(st);
    }
    return results;
}

/** @name Probes: single calls into one layer on a warmed simulator @{ */

vpr::SimConfig
probeConfig(vpr::RenameScheme scheme, std::uint64_t seed)
{
    vpr::SimConfig cfg = vpr::bench::experimentConfig();
    cfg.seed = seed;
    cfg.setScheme(scheme);
    if (scheme != vpr::RenameScheme::Conventional)
        cfg.setNrr(32);
    return cfg;
}

/** ns per detailed cycle of Core::runUntilCommitted over the nine
 *  kernels, after a detailed warm-up. */
double
probeNsPerCycle(vpr::RenameScheme scheme, std::uint64_t seed)
{
    double ns = 0, cycles = 0;
    for (const std::string &bench : vpr::benchmarkNames()) {
        vpr::Simulator sim(bench, probeConfig(scheme, seed));
        vpr::Core &core = sim.core();
        core.runUntilCommitted(20000);
        const vpr::Cycle c0 = core.cycle();
        const double t0 = nowS();
        core.runUntilCommitted(core.committedInsts() + 30000);
        ns += (nowS() - t0) * 1e9;
        cycles += static_cast<double>(core.cycle() - c0);
    }
    return ns / cycles;
}

/** ns per instruction of Core::fastForward with functional warming. */
double
probeFfNsPerInst(std::uint64_t seed)
{
    double ns = 0, insts = 0;
    for (const std::string &bench : vpr::benchmarkNames()) {
        vpr::Simulator sim(
            bench, probeConfig(vpr::RenameScheme::Conventional, seed));
        sim.core().fastForward(20000, true);
        const double t0 = nowS();
        insts += static_cast<double>(sim.core().fastForward(400000, true));
        ns += (nowS() - t0) * 1e9;
    }
    return ns / insts;
}

/** ns per record of TraceStream::nextBatch, median over the kernels. */
double
probeTraceNsPerInst(std::uint64_t seed)
{
    std::vector<double> perKernel;
    std::vector<vpr::TraceRecord> buf(256);
    for (const std::string &bench : vpr::benchmarkNames()) {
        std::unique_ptr<vpr::TraceStream> s =
            vpr::makeBenchmarkStream(bench, seed);
        std::size_t n = 0;
        const double t0 = nowS();
        while (n < 400000)
            n += s->nextBatch(buf.data(), buf.size());
        perKernel.push_back((nowS() - t0) * 1e9 / static_cast<double>(n));
    }
    return median(perKernel);
}

struct CkptProbe
{
    double saveUs = 0;
    double restoreUs = 0;
};

/** Functional-scope checkpoint save (drain + visitState + pack +
 *  vprzPack) and restore (vprzUnpack + unpack + visitState into a fresh
 *  core) after the skip, median over the kernels. */
CkptProbe
probeCheckpoint(std::uint64_t seed)
{
    std::vector<double> save, restore;
    for (const std::string &bench : vpr::benchmarkNames()) {
        vpr::SimConfig cfg =
            probeConfig(vpr::RenameScheme::Conventional, seed);
        vpr::Simulator sim(bench, cfg);
        sim.core().fastForward(cfg.skipInsts, true);

        double t0 = nowS();
        sim.core().drainForCheckpoint();
        vpr::StateSaver saver;
        sim.core().visitState(saver, vpr::CkptScope::Functional);
        const std::string bytes = vpr::vprzPack(
            vpr::packCheckpoint(vpr::CkptScope::Functional, 1, saver.take()),
            "ckpt", true);
        save.push_back((nowS() - t0) * 1e6);

        vpr::Core fresh(sim.core().stream(), cfg.core);
        t0 = nowS();
        const std::string payload = vpr::unpackCheckpoint(
            vpr::vprzUnpack(bytes, "ckpt"), vpr::CkptScope::Functional, 1);
        vpr::StateLoader loader(payload);
        fresh.visitState(loader, vpr::CkptScope::Functional);
        restore.push_back((nowS() - t0) * 1e6);
        if (!loader.exhausted())
            throw std::runtime_error("checkpoint probe left bytes over");
    }
    return {median(save), median(restore)};
}

/** µs per Core::visitStats walk into a warm record. */
double
probeStatsWalkUs(std::uint64_t seed)
{
    vpr::Simulator sim("compress",
                       probeConfig(vpr::RenameScheme::Conventional, seed));
    sim.core().runUntilCommitted(20000);
    vpr::MetricsRecord rec;
    sim.core().visitStats(rec);
    std::vector<double> us;
    for (int i = 0; i < 200; ++i) {
        const double t0 = nowS();
        sim.core().visitStats(rec);
        us.push_back((nowS() - t0) * 1e6);
    }
    return median(us);
}

/** @} */

/** Σ counter / Σ commit.committed × 1000 over every record. */
double
perKilo(const std::vector<std::vector<SimResults>> &all, const char *name)
{
    double num = 0, committed = 0;
    for (const auto &grid : all)
        for (const SimResults &r : grid) {
            num += static_cast<double>(r.metrics.counter(name));
            committed += static_cast<double>(r.committed());
        }
    return committed > 0 ? num / committed * 1000.0 : 0.0;
}

} // namespace

std::vector<MetricOut>
tracedRun(const TraceInputs &in, std::uint64_t &attempted,
          std::uint64_t &failed)
{
    const vpr::ResultCacheCounters &rc = vpr::resultCacheCounters();
    const std::uint64_t hits0 = rc.hits, misses0 = rc.misses,
                        corrupt0 = rc.corrupt, stores0 = rc.stores;
    if (in.clearStores) {
        clearDir(in.dirs.resultCache);
        clearDir(in.dirs.ckpt);
    }

    std::size_t cellCount = 0;
    for (const FigureGrid &g : in.timed)
        cellCount += g.cells.size();
    attempted += cellCount;

    Tracer tr(8 * cellCount);
    ReplayTally tally;
    tally.ckptFilesSeen = fileCount(in.dirs.ckpt);
    PassOutput traced;
    traced.results.resize(in.timed.size());
    traced.records.resize(in.timed.size());
    std::unique_ptr<vpr::Simulator> pooled;
    std::uint64_t exportBytes = 0;
    const double start = nowS();
    for (std::size_t i = 0; i < in.timed.size(); ++i) {
        const FigureGrid &g = in.timed[i];
        std::vector<SimResults> &results = traced.results[i];
        try {
            for (const GridCell &cell : g.cells) {
                const int cs = tr.open("cell");
                vpr::testsupport::AllocGuard allocs;
                results.push_back(replayCell(cell, tr, cs, pooled, tally));
                tally.allocs += allocs.count();
                tr.close(cs);
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: traced %s threw: %s\n",
                         g.def->name.c_str(), e.what());
            pooled.reset();
            failed += g.cells.size();
            results.clear();
            continue;
        }
        int s = tr.open("render");
        std::ostringstream table;
        g.def->render(g.cells, results, table);
        tr.close(s);
        s = tr.open("export");
        std::ostringstream csv;
        vpr::writeResultsCsv(csv, g.def->name, vpr::ShardSpec{},
                             vpr::shardCellIndices(g.cells.size(), {}),
                             g.cells, results);
        traced.records[i] = csv.str();
        tr.close(s);
        exportBytes += traced.records[i].size();
    }
    const double tracedWallS = nowS() - start;
    failed += checkSameRecords("traced replay", *in.untraced, traced);
    tr.write(in.spansPath);

    std::vector<double> cellMs, loadUs, storeUs, constructUs, reinitUs;
    double renderMs = 0, exportMs = 0, cellSumS = 0;
    for (const Span &s : tr.all()) {
        if (s.name == "cell") {
            cellMs.push_back(s.us() / 1e3);
            cellSumS += s.us() / 1e6;
        } else if (s.name == "load") {
            loadUs.push_back(s.us());
        } else if (s.name == "store") {
            storeUs.push_back(s.us());
        } else if (s.name == "construct") {
            constructUs.push_back(s.us());
        } else if (s.name == "reinit") {
            reinitUs.push_back(s.us());
        } else if (s.name == "render") {
            renderMs += s.us() / 1e3;
        } else if (s.name == "export") {
            exportMs += s.us() / 1e3;
        }
    }

    const std::uint64_t seed = in.timed.front().seed;
    const double nsPerCycle[3] = {
        probeNsPerCycle(vpr::RenameScheme::Conventional, seed),
        probeNsPerCycle(vpr::RenameScheme::VPAllocAtWriteback, seed),
        probeNsPerCycle(vpr::RenameScheme::VPAllocAtIssue, seed)};
    const double ffNs = probeFfNsPerInst(seed);
    const CkptProbe ckpt = probeCheckpoint(seed);
    double detailedNs = 0;
    for (int k = 0; k < 3; ++k)
        detailedNs += tally.detailedCycles[k] * nsPerCycle[k];
    const double runNs = tally.runNs > 0 ? tally.runNs : 1;
    const double detailedShare = detailedNs / runNs;
    const double ffShare = static_cast<double>(tally.ffInsts) * ffNs / runNs;

    const double cells = static_cast<double>(cellMs.size());
    const double hits = static_cast<double>(rc.hits - hits0);
    const double misses = static_cast<double>(rc.misses - misses0);
    const double simulated =
        static_cast<double>(constructUs.size() + reinitUs.size());
    const std::size_t ckptFiles = fileCount(in.dirs.ckpt);
    auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    return {
        {"figures.build_ms", in.buildMs, "ms"},
        {"figures.render_ms", renderMs, "ms"},
        {"results_io.export_ms", exportMs, "ms"},
        {"results_io.export_bytes", static_cast<double>(exportBytes),
         "bytes"},
        {"engine.cells", cells, "count"},
        {"engine.cell_ms.p50", quantile(cellMs, 0.5), "ms"},
        {"engine.cell_ms.p90", quantile(cellMs, 0.9), "ms"},
        {"engine.idle_frac",
         1.0 - cellSumS / (in.jobs * in.untracedWallS), "fraction"},
        {"simulator.construct.count",
         static_cast<double>(constructUs.size()), "count"},
        {"simulator.construct_us.p50", quantile(constructUs, 0.5), "us"},
        {"simulator.reinit.count", static_cast<double>(reinitUs.size()),
         "count"},
        {"simulator.reinit_us.p50", quantile(reinitUs, 0.5), "us"},
        {"simulator.reinit.hit_frac",
         frac(static_cast<double>(reinitUs.size()), simulated), "fraction"},
        {"simulator.allocs_per_cell",
         frac(static_cast<double>(tally.allocs), cells), "count"},
        {"simulator.run_ms.sum", tally.runNs / 1e6, "ms"},
        {"result_cache.hits", hits, "count"},
        {"result_cache.misses", misses, "count"},
        {"result_cache.corrupt", static_cast<double>(rc.corrupt - corrupt0),
         "count"},
        {"result_cache.stores", static_cast<double>(rc.stores - stores0),
         "count"},
        {"result_cache.hit_frac", frac(hits, hits + misses), "fraction"},
        {"result_cache.load_us.p50", quantile(loadUs, 0.5), "us"},
        {"result_cache.load_us.p90", quantile(loadUs, 0.9), "us"},
        {"result_cache.store_us.p50", quantile(storeUs, 0.5), "us"},
        {"result_cache.bytes",
         static_cast<double>(fileBytes(in.dirs.resultCache)), "bytes"},
        {"checkpoint.files", static_cast<double>(ckptFiles), "count"},
        {"checkpoint.bytes", static_cast<double>(fileBytes(in.dirs.ckpt)),
         "bytes"},
        {"checkpoint.reuse_frac",
         tally.ckptCells
             ? 1.0 - static_cast<double>(ckptFiles) /
                         static_cast<double>(tally.ckptCells)
             : 0.0,
         "fraction"},
        {"checkpoint.save_us", ckpt.saveUs, "us"},
        {"checkpoint.restore_us", ckpt.restoreUs, "us"},
        {"stats.walks", static_cast<double>(tally.statsWalks), "count"},
        {"stats.walk_us", probeStatsWalkUs(seed), "us"},
        {"core.ns_per_cycle.conventional", nsPerCycle[0], "ns"},
        {"core.ns_per_cycle.vp_writeback", nsPerCycle[1], "ns"},
        {"core.ns_per_cycle.vp_issue", nsPerCycle[2], "ns"},
        {"core.detailed_minst",
         static_cast<double>(tally.detailedInsts) / 1e6, "Minst"},
        {"core.detailed_share", detailedShare, "fraction"},
        {"ff.minst", static_cast<double>(tally.ffInsts) / 1e6, "Minst"},
        {"ff.ns_per_inst", ffNs, "ns"},
        {"core.ff_share", ffShare, "fraction"},
        {"trace.ns_per_inst", probeTraceNsPerInst(seed), "ns"},
        {"simulator.run_residual_frac", 1.0 - detailedShare - ffShare,
         "fraction"},
        {"core.exec_per_commit",
         perKilo(traced.results, "commit.committed_executions") / 1000.0,
         "ratio"},
        {"complete.wb_rejections_pki",
         perKilo(traced.results, "complete.wb_rejections"), "1/kinst"},
        {"rename.stall_reg_pki", perKilo(traced.results, "rename.stall_reg"),
         "1/kinst"},
        {"core.squashed_pki", perKilo(traced.results, "core.squashed"),
         "1/kinst"},
        {"fetch.mispredicts_pki",
         perKilo(traced.results, "fetch.mispredicts"), "1/kinst"},
        {"memory.cache_misses_pki",
         perKilo(traced.results, "memory.cache_misses"), "1/kinst"},
        {"tracing.overhead_frac", tracedWallS / in.untracedSerialWallS - 1.0,
         "fraction"},
    };
}

} // namespace perfbench
