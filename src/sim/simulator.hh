/**
 * @file
 * Simulator: owns a trace stream and a core, runs the warm-up /
 * measurement protocol, and reports results.
 */

#ifndef VPR_SIM_SIMULATOR_HH
#define VPR_SIM_SIMULATOR_HH

#include <memory>
#include <ostream>
#include <string>

#include "sim/config.hh"
#include "sim/metrics.hh"
#include "trace/stream.hh"

namespace vpr
{

/**
 * Results of one measured simulation interval: a self-describing
 * MetricsRecord keyed by stable metric names, produced by visiting the
 * core's stat groups. The named accessors below are conveniences over
 * the record; exporters iterate metrics.all() and need no per-field
 * knowledge.
 */
struct SimResults
{
    MetricsRecord metrics;

    /** Convenience lookups over the record. @{ */
    double ipc() const { return metrics.real("core.ipc"); }
    std::uint64_t cycles() const { return metrics.counter("core.cycles"); }

    std::uint64_t
    committed() const
    {
        return metrics.counter("commit.committed");
    }

    std::uint64_t issued() const { return metrics.counter("issue.issued"); }

    std::uint64_t
    squashed() const
    {
        return metrics.counter("core.squashed");
    }

    std::uint64_t
    mispredicts() const
    {
        return metrics.counter("fetch.mispredicts");
    }

    std::uint64_t
    wbRejections() const
    {
        return metrics.counter("complete.wb_rejections");
    }

    std::uint64_t
    renameStallReg() const
    {
        return metrics.counter("rename.stall_reg");
    }

    double
    executionsPerCommit() const
    {
        return metrics.real("core.exec_per_commit");
    }

    double
    cacheMissRate() const
    {
        return metrics.real("memory.cache_miss_rate");
    }

    double bhtAccuracy() const { return metrics.real("branch.bht_accuracy"); }

    double
    meanHoldCyclesInt() const
    {
        return metrics.real("rename.mean_hold_cycles_int");
    }

    double
    meanHoldCyclesFp() const
    {
        return metrics.real("rename.mean_hold_cycles_fp");
    }

    double
    avgBusyIntRegs() const
    {
        return metrics.real("regfile.occupancy.int.mean");
    }

    double
    avgBusyFpRegs() const
    {
        return metrics.real("regfile.occupancy.fp.mean");
    }

    double
    robOccupancyMean() const
    {
        return metrics.real("rob.occupancy.mean");
    }

    double
    regLifetimeMean(RegClass cls) const
    {
        return metrics.real(cls == RegClass::Int
                                ? "rename.vp.lifetime.int.mean"
                                : "rename.vp.lifetime.fp.mean");
    }
    /** @} */
};

/**
 * The warm-key digest of a sampled run's initial fast-forward: it names
 * the run's checkpoint in the checkpoint store (sim/store.hh) and is
 * checked again inside the file on load. It hashes exactly what the
 * fast-forward warms (the trace seed, the skip length, functional
 * warming, the BHT and the cache subtree of @p cfg's provenance), the
 * benchmark, the stream identity and the state-format version, and
 * nothing else: the rename scheme, register-file size and core widths
 * do not enter, so one checkpoint serves every cell of a scheme x
 * regfile-size sweep.
 */
std::uint64_t warmStateDigest(const SimConfig &cfg,
                              const std::string &benchmark,
                              const std::string &streamIdentity);

/** One simulation run: stream + core + measurement protocol. */
class Simulator
{
  public:
    /** Build with an externally owned stream. */
    Simulator(TraceStream &stream, const SimConfig &config);

    /** Build by benchmark name (owns the stream). */
    Simulator(const std::string &benchmark, const SimConfig &config);

    /**
     * Re-arm this simulator for another run as if freshly constructed
     * with (@p benchmark, @p config): rewind the owned stream and return
     * the core to its constructed state in place — reusing every
     * allocation the previous cell warmed up — or rebuild the core when
     * the core-level configuration differs. Results are asserted
     * byte-identical to a fresh construction by the determinism suite.
     *
     * @return false (simulator untouched) when reuse is impossible: the
     * stream is externally owned, the benchmark differs, or the seed
     * differs (the owned stream was built with the old seed).
     */
    bool reinit(const std::string &benchmark, const SimConfig &config);

    /**
     * Run the measurement protocol and return stats. With sampling off
     * (the default): warm up for skipInsts, measure for measureInsts
     * contiguously. With sim.sampling.enable: fast-forward through
     * skipInsts, then alternate fast-forward / detailed warm-up /
     * measured intervals per the sim.sampling.* geometry; the returned
     * record aggregates the intervals and appends the
     * core.ipc.sampled.{mean,stderr,ci95,intervals} estimator. With
     * sim.ckpt.dir set, a sampled run restores its initial
     * fast-forward from the checkpoint store, or saves it there; the
     * record is the same either way.
     */
    SimResults run();

    /** Print a human-readable report of the last run. */
    void printReport(std::ostream &os, const SimResults &r) const;

    Core &core() { return *theCore; }
    const Core &core() const { return *theCore; }

  private:
    /** The sampled phase machine behind run(). */
    SimResults runSampled();

    /** Build the result record by walking the core's stats tree. */
    void collectMetrics(MetricsRecord &m);

    /** Replace the core with a freshly constructed one (restore target
     *  and cold fallback both start from construction defaults). */
    void rebuildCore();

    /** Checkpointing engaged for this run? Requires a checkpoint
     *  directory and a stream that advertises an identity. */
    bool ckptActive() const;

    /**
     * Restore the initial fast-forward from the checkpoint store; true
     * on a hit (the core is rebuilt and loaded, positioned exactly
     * after the fast-forward). A missing file returns false with the
     * core untouched; a damaged or stale one is counted and warned
     * about by the store, and the stream and core are rebuilt — the
     * caller fast-forwards cold, never to a wrong result.
     */
    bool restoreCheckpoint(std::uint64_t digest);

    /** Save the fast-forwarded core to the checkpoint store. */
    void saveCheckpoint(std::uint64_t digest);

    SimConfig cfg;
    std::string benchName;
    std::unique_ptr<TraceStream> ownedStream;
    TraceStream *stream = nullptr;  ///< the core's stream, owned or not
    std::unique_ptr<Core> theCore;
};

} // namespace vpr

#endif // VPR_SIM_SIMULATOR_HH
