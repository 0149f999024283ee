#include "sim/simulator.hh"

#include <iomanip>
#include <iostream>

#include "common/logging.hh"
#include "common/random.hh"
#include "sim/params.hh"
#include "sim/store.hh"
#include "trace/kernels/kernels.hh"

namespace vpr
{

namespace
{

/** Component salt for deriveSeed: the wrong-path synthesis RNG. */
constexpr std::uint64_t kWrongPathSalt = 0x77f00dull;

/** Thread the run's master seed into every stochastic component the
 *  config controls; with seed 0 the per-component defaults apply. */
void
threadSeed(SimConfig &cfg)
{
    if (cfg.seed != 0)
        cfg.core.fetch.wrongPathSeed =
            deriveSeed(cfg.seed, kWrongPathSalt);
}

/** Provenance keys of what a functional fast-forward warms: the trace
 *  stream is keyed by "seed" and the stream identity, the warmed
 *  structures by the BHT geometry and the whole cache subtree. */
bool
warmKey(const std::string &name)
{
    return name == "seed" || name == "skip_insts" ||
           name == "sim.sampling.functional_warming" ||
           name == "core.fetch.bht_entries" ||
           name.rfind("core.cache.", 0) == 0;
}

} // namespace

std::uint64_t
warmStateDigest(const SimConfig &cfg, const std::string &benchmark,
                const std::string &streamIdentity)
{
    std::uint64_t h = fnv1a("ckpt", 4);
    const std::uint64_t version = kStateFormatVersion;
    h = fnv1a(&version, sizeof(version), h);
    for (const auto &[name, value] : configProvenance(cfg)) {
        if (!warmKey(name))
            continue;
        const std::string line = name + "=" + value + "\n";
        h = fnv1a(line.data(), line.size(), h);
    }
    h = fnv1a(benchmark.data(), benchmark.size(), h);
    h = fnv1a(streamIdentity.data(), streamIdentity.size(), h);
    return h;
}

Simulator::Simulator(TraceStream &externalStream, const SimConfig &config)
    : cfg(config), stream(&externalStream)
{
    cfg.validate();
    threadSeed(cfg);
    benchName = stream->identity();
    theCore = std::make_unique<Core>(*stream, cfg.core);
}

Simulator::Simulator(const std::string &benchmark, const SimConfig &config)
    : cfg(config), benchName(benchmark)
{
    cfg.validate();
    threadSeed(cfg);
    ownedStream = makeBenchmarkStream(benchmark, cfg.seed);
    stream = ownedStream.get();
    theCore = std::make_unique<Core>(*stream, cfg.core);
}

void
Simulator::rebuildCore()
{
    theCore = std::make_unique<Core>(*stream, cfg.core);
}

bool
Simulator::reinit(const std::string &benchmark, const SimConfig &config)
{
    // Reuse needs the same stream: owned (we may rewind it), the same
    // benchmark, and the same seed (the kernel stream bakes the seed in
    // at construction).
    if (!ownedStream || benchmark != benchName)
        return false;
    SimConfig fresh = config;
    fresh.validate();
    threadSeed(fresh);
    if (fresh.seed != cfg.seed)
        return false;

    // Same core-level provenance (both sides seed-threaded) means the
    // constructed core would be structurally and behaviourally
    // identical, so the existing one is reinitialised in place; any
    // difference falls back to reconstruction. Run-control parameters
    // (skip/measure/sampling) never affect core construction.
    const auto provA = configProvenance(cfg);
    const auto provB = configProvenance(fresh);
    bool sameCore = provA.size() == provB.size();
    for (std::size_t i = 0; sameCore && i < provA.size(); ++i) {
        if (provA[i].first.compare(0, 5, "core.") != 0)
            continue;
        sameCore = provA[i] == provB[i];
    }

    cfg = fresh;
    stream->reset();
    if (sameCore)
        theCore->reinit();
    else
        rebuildCore();
    return true;
}

bool
Simulator::ckptActive() const
{
    return !cfg.ckpt.dir.empty() && !stream->identity().empty();
}

bool
Simulator::restoreCheckpoint(std::uint64_t digest)
{
    bool touched = false;
    const bool hit = checkpointStore().load(
        cfg.ckpt.dir, benchName, digest, [&](std::string_view raw) {
            const std::string_view payload =
                checkpointPayload(raw, CkptScope::Functional, digest);
            touched = true;
            rebuildCore();
            StateLoader loader(payload);
            theCore->visitState(loader, CkptScope::Functional);
            if (!loader.exhausted())
                throw CkptError("trailing bytes after checkpoint state");
        });
    if (!hit && touched) {
        // The failed load may have half-mutated the core and advanced
        // the stream; rebuild both before the cold fallback.
        stream->reset();
        rebuildCore();
    }
    return hit;
}

void
Simulator::saveCheckpoint(std::uint64_t digest)
{
    // A fast-forward leaves the core drained: nothing is in flight.
    StateSaver saver;
    theCore->visitState(saver, CkptScope::Functional);
    checkpointStore().save(
        cfg.ckpt.dir, benchName, digest,
        packCheckpoint(CkptScope::Functional, digest, saver.take()));
}

SimResults
Simulator::run()
{
    if (cfg.sampling.enable)
        return runSampled();

    Core &c = *theCore;
    if (cfg.skipInsts > 0)
        c.runUntilCommitted(cfg.skipInsts);
    c.resetStats();
    std::uint64_t target = c.committedInsts() + cfg.measureInsts;
    c.runUntilCommitted(target);

    SimResults r;
    collectMetrics(r.metrics);
    return r;
}

SimResults
Simulator::runSampled()
{
    const SamplingConfig &sp = cfg.sampling;
    // Per validate(): detailedInsts >= 1, warmup+detailed <= period,
    // period <= measure, so ffInsts and nIntervals are well defined.
    const std::uint64_t ffInsts =
        sp.periodInsts - sp.warmupInsts - sp.detailedInsts;
    const std::uint64_t nIntervals = cfg.measureInsts / sp.periodInsts;

    // The initial skip goes through the same functional-warming path as
    // the inter-interval fast-forwards — that is the whole point of
    // sampling: the paper's 100M-skip warm-up becomes nearly free.
    // The fast-forward only warms the trace position, BHT and caches,
    // so one checkpoint of it is shared by every cell of a scheme x
    // regfile-size sweep grid, and a restored core measures exactly as
    // a fast-forwarded one.
    if (cfg.skipInsts > 0 && ckptActive()) {
        const std::uint64_t digest =
            warmStateDigest(cfg, benchName, stream->identity());
        // Grid cells that share the warm key and start together
        // fast-forward once: the others wait here, then restore.
        const ContentStore::Claim claim(checkpointStore(), cfg.ckpt.dir,
                                        benchName, digest);
        if (!restoreCheckpoint(digest)) {
            theCore->fastForward(cfg.skipInsts, sp.functionalWarming);
            saveCheckpoint(digest);
        }
    } else if (cfg.skipInsts > 0) {
        theCore->fastForward(cfg.skipInsts, sp.functionalWarming);
    }
    // A restore replaces the core; bind after it.
    Core &c = *theCore;

    stats::SampleEstimator ipcSampled{
        "ipc.sampled", "sampled-IPC estimator over detailed intervals"};
    // Companion to the point estimator: the full shape of the
    // per-interval IPC observations, in milli-IPC so the integer
    // histogram keeps three decimals of resolution. An 8-wide core
    // cannot exceed IPC 8, so the range is exact.
    stats::Distribution ipcDist = stats::Distribution::evenBuckets(
        "ipc.sampled.dist", "per-interval IPC observations (milli-IPC)",
        0, 8000, 16);

    // One record, revisited in place every interval: the stats tree's
    // schema is fixed after construction, so walks after the first
    // overwrite values without rebuilding names — record construction
    // would otherwise dominate short sampled runs. Parallel arrays
    // accumulate the per-column aggregates; UInt metrics (counters,
    // histogram buckets) sum across intervals, Real metrics (rates,
    // ratios) take the unweighted mean — for core.ipc that mean of
    // interval IPCs *is* the SMARTS point estimator the
    // core.ipc.sampled.* stats quantify.
    SimResults r;
    MetricsRecord &rec = r.metrics;
    std::vector<std::uint64_t> usum;
    std::vector<double> rsum;
    std::uint64_t measured = 0;
    for (std::uint64_t i = 0; i < nIntervals; ++i) {
        if (ffInsts > 0)
            c.fastForward(ffInsts, sp.functionalWarming);
        if (sp.warmupInsts > 0)
            c.runUntilCommitted(c.committedInsts() + sp.warmupInsts);
        c.resetStats();
        c.runUntilCommitted(c.committedInsts() + sp.detailedInsts);

        c.visitStats(rec);
        if (nIntervals > 1) {
            const std::vector<Metric> &cols = rec.all();
            if (measured == 0) {
                usum.assign(cols.size(), 0);
                rsum.assign(cols.size(), 0.0);
            }
            VPR_ASSERT(cols.size() == usum.size(),
                       "interval metric schema changed mid-run");
            for (std::size_t k = 0; k < cols.size(); ++k) {
                if (cols[k].kind == Metric::Kind::UInt)
                    usum[k] += cols[k].uval;
                else
                    rsum[k] += cols[k].rval;
            }
        }
        const double ipc = rec.real("core.ipc");
        ipcSampled.sample(ipc);
        ipcDist.sample(static_cast<std::uint64_t>(ipc * 1000.0 + 0.5));
        ++measured;
        if (c.done())
            break;
    }
    VPR_ASSERT(measured > 0, "sampled run measured zero intervals");

    // Fold the accumulated aggregates back into the record. A run that
    // measured a single interval is already its own aggregate (sum and
    // mean of one sample), so the record stands as visited.
    if (measured > 1) {
        for (std::size_t k = 0; k < rec.all().size(); ++k) {
            const Metric &m = rec.all()[k];
            if (m.kind == Metric::Kind::UInt)
                rec.setUInt(m.nameSym, m.descSym, usum[k]);
            else
                rec.setReal(m.nameSym, m.descSym,
                            rsum[k] / static_cast<double>(measured));
        }
    }

    // Append the estimator through the same group/visit machinery as
    // every other stat so it lands as core.ipc.sampled.* in the schema.
    stats::StatGroup sampledGroup{"core"};
    sampledGroup.add(&ipcSampled);
    sampledGroup.add(&ipcDist);
    sampledGroup.visit(rec);
    return r;
}

void
Simulator::collectMetrics(MetricsRecord &m)
{
    // The record is one walk of the core's stats tree: every component
    // and stage owns its StatGroup, so a stat added anywhere appears
    // here (and in every exporter downstream) with no glue.
    theCore->visitStats(m);
}

void
Simulator::printReport(std::ostream &os, const SimResults &r) const
{
    os << "scheme            " << renameSchemeName(cfg.core.scheme)
       << "\n";
    os << "physRegs/file     " << cfg.core.rename.numPhysRegs << "\n";
    os << "NRR (int/fp)      " << cfg.core.rename.nrrInt << "/"
       << cfg.core.rename.nrrFp << "\n";
    if (r.metrics.has("core.ipc.sampled.mean")) {
        os << "sampled ipc       " << std::fixed << std::setprecision(4)
           << r.metrics.real("core.ipc.sampled.mean") << " +/- "
           << r.metrics.real("core.ipc.sampled.ci95")
           << std::defaultfloat << "  (95% CI over "
           << r.metrics.counter("core.ipc.sampled.intervals")
           << " intervals)\n";
    }
    // The record is self-describing: one line per metric. Histogram
    // buckets are elided — the moments summarize each distribution and
    // the full shape travels in the --out record files.
    for (const Metric &m : r.metrics.all()) {
        if (m.name().find(".hist[") != std::string::npos)
            continue;
        os << std::left << std::setw(32) << m.name() << " "
           << std::right << std::setw(14);
        if (m.kind == Metric::Kind::UInt)
            os << m.uval;
        else
            os << std::fixed << std::setprecision(4) << m.rval
               << std::defaultfloat;
        os << "  # " << m.desc() << "\n";
    }
}

} // namespace vpr
