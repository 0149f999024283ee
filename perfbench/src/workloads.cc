/**
 * @file
 * Grid sets, timed passes, output checks and the simulated-statistic
 * end-to-end metrics (paper deviation, sampled-estimator error).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.hh"
#include "sim/experiment.hh"
#include "sim/results_io.hh"
#include "trace/kernels/kernels.hh"

namespace perfbench
{

namespace fs = std::filesystem;

void
clearDir(const std::string &dir)
{
    for (const fs::directory_entry &e : fs::directory_iterator(dir))
        fs::remove_all(e.path());
}

WorkDirs
openWorkDirs(const std::string &root)
{
    WorkDirs d;
    d.root = root;
    d.resultCache = root + "/result_cache";
    d.ckpt = root + "/ckpt";
    d.prepCache = root + "/prep_result_cache";
    d.prepCkpt = root + "/prep_ckpt";
    d.out = root + "/out";
    for (const std::string *dir :
         {&d.resultCache, &d.ckpt, &d.prepCache, &d.prepCkpt, &d.out}) {
        fs::create_directories(*dir);
        clearDir(*dir);
    }
    return d;
}

std::vector<const FigureDef *>
paperFigures()
{
    std::vector<const FigureDef *> figs;
    for (const char *name :
         {"table2_ipc", "fig4_nrr_writeback", "fig5_nrr_issue",
          "fig6_wb_vs_issue", "fig7_regfile_size", "regpressure"}) {
        const FigureDef *def = vpr::bench::findFigure(name);
        if (!def)
            throw std::runtime_error(std::string("no figure ") + name);
        figs.push_back(def);
    }
    return figs;
}

GridSet
buildGrids(const std::vector<const FigureDef *> &figures, std::uint64_t seed,
           bool sampled, const std::string &resultCache,
           const std::string &ckpt, double *buildMs)
{
    GridSet set;
    for (const FigureDef *def : figures) {
        FigureGrid grid;
        grid.def = def;
        grid.seed = seed;
        const double t0 = nowS();
        grid.cells = def->build();
        if (buildMs)
            *buildMs += (nowS() - t0) * 1e3;
        // The same settings --sampling-preset=<figure>, --result-cache
        // and --ckpt-dir apply, plus the workload seed.
        const vpr::bench::SamplingPreset *preset =
            sampled ? vpr::bench::findSamplingPreset(def->name) : nullptr;
        if (sampled && !preset)
            throw std::runtime_error("no sampling preset for " + def->name);
        for (GridCell &cell : grid.cells) {
            vpr::SimConfig &cfg = cell.config;
            cfg.seed = seed;
            if (preset) {
                cfg.sampling.enable = true;
                cfg.sampling.periodInsts = preset->periodInsts;
                cfg.sampling.warmupInsts = preset->warmupInsts;
                cfg.sampling.detailedInsts = preset->detailedInsts;
            }
            cfg.resultCache.dir = resultCache;
            cfg.ckpt.dir = ckpt;
        }
        set.push_back(std::move(grid));
    }
    return set;
}

PassOutput
runPass(const GridSet &set, unsigned jobs, const std::string &outDir)
{
    PassOutput p;
    p.results.resize(set.size());
    p.records.resize(set.size());
    const double start = nowS();
    const double cpuStart = processCpuS();
    for (std::size_t i = 0; i < set.size(); ++i) {
        const FigureGrid &g = set[i];
        try {
            p.results[i] = vpr::runGrid(g.cells, jobs);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: %s (seed %llu) threw: %s\n",
                         g.def->name.c_str(),
                         static_cast<unsigned long long>(g.seed), e.what());
            p.thrown += g.cells.size();
            continue;
        }

        std::ostringstream table;
        g.def->render(g.cells, p.results[i], table);

        std::ostringstream csv;
        vpr::writeResultsCsv(csv, g.def->name, vpr::ShardSpec{},
                             vpr::shardCellIndices(g.cells.size(), {}),
                             g.cells, p.results[i]);
        p.records[i] = csv.str();
        if (!outDir.empty()) {
            std::ofstream f(outDir + "/" + g.def->name + "-s" +
                                std::to_string(g.seed) + ".csv",
                            std::ios::binary | std::ios::trunc);
            f.write(p.records[i].data(),
                    static_cast<std::streamsize>(p.records[i].size()));
            if (!f)
                throw std::runtime_error("cannot write records to " +
                                         outDir);
        }
    }
    p.wallS = nowS() - start;
    p.cpuS = processCpuS() - cpuStart;
    return p;
}

std::uint64_t
cellSimInsts(const GridCell &cell)
{
    vpr::SimConfig cfg = cell.config;
    vpr::applyInstructionScale(cfg);
    if (!cfg.sampling.enable)
        return cfg.skipInsts + cfg.measureInsts;
    const std::uint64_t period = cfg.sampling.periodInsts;
    return cfg.skipInsts + cfg.measureInsts / period * period;
}

namespace
{

void
reportFailure(std::uint64_t &failures, const std::string &what)
{
    // Every failure is counted; the first few are also named.
    if (failures++ < 8)
        std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

std::vector<std::string>
splitLines(const std::string &s)
{
    std::vector<std::string> lines;
    std::istringstream is(s);
    for (std::string line; std::getline(is, line);)
        lines.push_back(line);
    return lines;
}

} // namespace

std::uint64_t
checkCells(const GridSet &set, const PassOutput &pass)
{
    std::uint64_t failures = 0;
    for (std::size_t i = 0; i < set.size(); ++i) {
        const FigureGrid &g = set[i];
        if (pass.results[i].size() != g.cells.size())
            continue;  // the grid threw; counted by the caller
        for (std::size_t c = 0; c < g.cells.size(); ++c) {
            const vpr::MetricsRecord &m = pass.results[i][c].metrics;
            vpr::SimConfig cfg = g.cells[c].config;
            vpr::applyInstructionScale(cfg);
            const std::string where = g.def->name + " seed " +
                                      std::to_string(g.seed) + " cell " +
                                      std::to_string(c);
            const double ipc = m.has("core.ipc") ? m.real("core.ipc") : 0;
            if (!(std::isfinite(ipc) && ipc > 0)) {
                reportFailure(failures, where + ": no finite core.ipc");
            } else if (!cfg.sampling.enable) {
                // The measured interval ends at the cycle boundary where
                // the budget is reached, so the last cycle may retire up
                // to commitWidth - 1 instructions past it; anything else
                // (a short run, a runaway one) is a failure.
                const std::uint64_t got = m.counter("commit.committed");
                if (got < cfg.measureInsts ||
                    got >= cfg.measureInsts + cfg.core.commitWidth)
                    reportFailure(failures,
                                  where + ": committed " +
                                      std::to_string(got) + " of a " +
                                      std::to_string(cfg.measureInsts) +
                                      "-instruction budget");
            } else {
                const std::uint64_t n =
                    m.counter("core.ipc.sampled.intervals");
                const double ci = m.real("core.ipc.sampled.ci95");
                if (n < 2 || !std::isfinite(ci))
                    reportFailure(failures,
                                  where + ": " + std::to_string(n) +
                                      " intervals, ci95 " +
                                      std::to_string(ci));
            }
        }
    }
    return failures;
}

std::uint64_t
checkSameRecords(const std::string &what, const PassOutput &expect,
                 const PassOutput &got)
{
    std::uint64_t failures = 0;
    for (std::size_t i = 0; i < expect.records.size(); ++i) {
        // A grid that threw has no records; its own pass counted it.
        if (got.records[i] == expect.records[i] ||
            got.records[i].empty() || expect.records[i].empty())
            continue;
        const std::vector<std::string> a = splitLines(expect.records[i]);
        const std::vector<std::string> b = splitLines(got.records[i]);
        // Two leading lines (metadata comment + header), then one row
        // per cell.
        const std::size_t cells = a.size() > 2 ? a.size() - 2 : 0;
        if (a.size() != b.size() || a.size() < 2 || a[0] != b[0] ||
            a[1] != b[1]) {
            for (std::size_t c = 0; c < std::max<std::size_t>(cells, 1); ++c)
                reportFailure(failures,
                              what + ": grid " + std::to_string(i) +
                                  " header or row count differs");
            continue;
        }
        for (std::size_t r = 2; r < a.size(); ++r)
            if (a[r] != b[r])
                reportFailure(failures, what + ": grid " +
                                            std::to_string(i) + " row " +
                                            std::to_string(r - 2) +
                                            " differs");
    }
    return failures;
}

namespace
{

/** hmean(vp) / hmean(conv) - 1, in percent, over the nine benchmarks;
 *  conv cell of benchmark b at offset + stride * b, vp right after. */
double
improvementPct(const std::vector<IpcRecord> &r, std::size_t offset,
               std::size_t stride)
{
    std::vector<double> conv, vp;
    for (std::size_t b = 0; b < vpr::benchmarkNames().size(); ++b) {
        conv.push_back(r[offset + stride * b].ipc);
        vp.push_back(r[offset + stride * b + 1].ipc);
    }
    return (vpr::harmonicMean(vp) / vpr::harmonicMean(conv) - 1.0) * 100.0;
}

} // namespace

double
paperDeviationPp(const IpcTable &records, std::uint64_t seed,
                 const char *label)
{
    const auto fig7 = records.find({"fig7_regfile_size", seed});
    const auto table2 = records.find({"table2_ipc", seed});
    if (fig7 == records.end() || table2 == records.end())
        return std::nan("");
    const std::size_t nBench = vpr::benchmarkNames().size();
    // fig7: per benchmark, (conv, vp) pairs at 48/64/96 registers.
    // table2: per miss penalty (50 then 20), (conv, vp) per benchmark.
    const double measured[] = {improvementPct(fig7->second, 0, 6),
                               improvementPct(fig7->second, 2, 6),
                               improvementPct(fig7->second, 4, 6),
                               improvementPct(table2->second, 0, 2),
                               improvementPct(table2->second, 2 * nBench, 2)};
    const double claimed[] = {31, 19, 8, 19, 12};
    double dev = 0;
    std::printf("# paper_claims %s seed %llu:", label,
                static_cast<unsigned long long>(seed));
    for (int k = 0; k < 5; ++k) {
        std::printf(" %+.3f%% (paper %+.0f%%)", measured[k], claimed[k]);
        dev += std::fabs(measured[k] - claimed[k]);
    }
    std::printf("\n");
    return dev / 5.0;
}

void
collectIpc(IpcTable &into, const GridSet &set, const PassOutput &pass)
{
    for (std::size_t i = 0; i < set.size(); ++i) {
        if (pass.results[i].size() != set[i].cells.size())
            continue;
        std::vector<IpcRecord> &rows =
            into[{set[i].def->name, set[i].seed}];
        for (const SimResults &r : pass.results[i]) {
            IpcRecord rec;
            rec.ipc = r.ipc();
            if (r.metrics.has("core.ipc.sampled.mean")) {
                rec.sampledMean = r.metrics.real("core.ipc.sampled.mean");
                rec.ci95 = r.metrics.real("core.ipc.sampled.ci95");
            }
            rows.push_back(rec);
        }
    }
}

SampledError
sampledError(const IpcTable &sampled, const IpcTable &full)
{
    SampledError e;
    std::size_t misses = 0;
    double errSum = 0;
    for (const auto &[key, cells] : sampled) {
        const auto ref = full.find(key);
        if (ref == full.end() || ref->second.size() != cells.size())
            continue;
        std::size_t gridMisses = 0;
        double gridErr = 0;
        for (std::size_t c = 0; c < cells.size(); ++c) {
            const double f = ref->second[c].ipc;
            gridErr += std::fabs(cells[c].ipc - f) / f;
            gridMisses += std::fabs(cells[c].sampledMean - f) > cells[c].ci95;
        }
        std::printf("# sampled_error %s-s%llu cells %zu mean_err %.3f%% "
                    "ci_misses %zu\n",
                    key.first.c_str(),
                    static_cast<unsigned long long>(key.second), cells.size(),
                    gridErr / static_cast<double>(cells.size()) * 100,
                    gridMisses);
        errSum += gridErr;
        misses += gridMisses;
        e.cells += cells.size();
    }
    if (e.cells) {
        e.meanErrPct = errSum / static_cast<double>(e.cells) * 100.0;
        e.ciMissFrac =
            static_cast<double>(misses) / static_cast<double>(e.cells);
    }
    return e;
}

} // namespace perfbench
