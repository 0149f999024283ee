/**
 * @file
 * Register-file and cache port arbitration.
 *
 * The paper's register files have 16 read and 8 write ports each, and
 * the cache has 3 ports. Reads are consumed at issue within one cycle;
 * writes are scheduled at completion time (completion slips to the next
 * cycle with a free port); cache ports are claimed for the cycle of the
 * access. The arbitration logic lives in regfile_ports.cc so the many
 * stage translation units that include this header stay light.
 */

#ifndef VPR_CORE_REGFILE_PORTS_HH
#define VPR_CORE_REGFILE_PORTS_HH

#include <cstdint>
#include <vector>

#include "common/intmath.hh"
#include "common/types.hh"
#include "isa/reg.hh"

namespace vpr
{

/**
 * Per-cycle counting arbiter used for write and cache ports.
 *
 * Claims live in a cycle-tagged ring: slot cycle & (capacity - 1)
 * holds the count for that cycle (the capacity starts at a power of
 * two and only ever doubles, so the mask is the modulo), with the
 * owning cycle stored alongside so a slot left over from a lapped
 * (long-past) cycle reads as free. The
 * arbiter allocates only when the claim horizon outgrows the ring —
 * the steady-state claim/prune cycle of the pipeline loop touches no
 * allocator at all, where the previous std::map spent one node per
 * (cycle, class) claimed. pruneBefore is a watermark store: slots are
 * invalidated lazily on their next use.
 */
class PortSchedule
{
  public:
    explicit PortSchedule(unsigned portsPerCycle)
        : ports(portsPerCycle), counts(kInitialSlots, 0),
          tags(kInitialSlots, kNoCycle)
    {}

    /** Claim a port at exactly @p cycle; false if none left. */
    bool
    tryClaim(Cycle cycle)
    {
        unsigned &used = slotFor(cycle);
        if (used >= ports)
            return false;
        ++used;
        return true;
    }

    /** First cycle >= @p earliest with a free port; claims it. */
    Cycle
    claimFirstFree(Cycle earliest)
    {
        Cycle c = earliest;
        while (!tryClaim(c))
            ++c;
        return c;
    }

    /** Drop bookkeeping for cycles before @p now. */
    void pruneBefore(Cycle now) { base = now > base ? now : base; }

    unsigned portsPerCycle() const { return ports; }

    /** Ports already claimed at @p cycle (tests). */
    unsigned used(Cycle cycle) const;

    void clear();

  private:
    /** A write scheduled past the miss penalty is rare; 1024 slots
     *  cover any realistic claim horizon without ever growing. */
    static constexpr std::size_t kInitialSlots = 1024;
    static_assert(isPowerOf2(kInitialSlots),
                  "the slot mask needs a power-of-two ring");

    unsigned &slotFor(Cycle cycle);
    void grow(Cycle needed);

    std::size_t
    slotOf(Cycle cycle) const
    {
        return cycle & (counts.size() - 1);
    }

    unsigned ports;
    /** Claims at cycle c live in slot slotOf(c)... @{ */
    std::vector<unsigned> counts;
    /** ...owned by cycle tags[slot]; kNoCycle or a pruned tag = free. */
    std::vector<Cycle> tags;
    /** @} */
    /** Claims below this watermark are dead (pruneBefore). */
    Cycle base = 0;
};

/** Read/write port tracking for both register files. */
class RegFilePorts
{
  public:
    RegFilePorts(unsigned readPorts, unsigned writePorts)
        : nReadPorts(readPorts),
          writes{PortSchedule(writePorts), PortSchedule(writePorts)}
    {}

    /** Start a cycle: read ports replenish. */
    void beginCycle(Cycle now);

    /** Could @p nInt integer and @p nFp FP reads be claimed now? */
    bool canClaimReads(unsigned nInt, unsigned nFp) const;

    /** Claim read ports for one issuing instruction (both classes). */
    bool tryClaimReads(unsigned nInt, unsigned nFp);

    /** Undo a claim made this cycle (issue aborted later in the chain). */
    void unclaimReads(unsigned nInt, unsigned nFp);

    /** Schedule a result write at the first free cycle >= earliest. */
    Cycle scheduleWrite(RegClass cls, Cycle earliest);

    unsigned readPortsPerCycle() const { return nReadPorts; }
    unsigned
    writePortsPerCycle() const
    {
        return writes[0].portsPerCycle();
    }

    /** Return to the constructed state: no reads claimed, no writes
     *  scheduled (simulator reuse between grid cells). */
    void
    clear()
    {
        readsUsed[0] = readsUsed[1] = 0;
        writes[0].clear();
        writes[1].clear();
    }

  private:
    unsigned nReadPorts;
    unsigned readsUsed[kNumRegClasses] = {0, 0};
    PortSchedule writes[kNumRegClasses];
};

} // namespace vpr

#endif // VPR_CORE_REGFILE_PORTS_HH
