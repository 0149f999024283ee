/**
 * @file
 * Issue stage: oldest-first selection over ready IQ entries constrained
 * by functional units, register-file read ports, cache ports, memory
 * disambiguation and the renamer's issue gate. Completion events it
 * schedules land in the CompletionQueue latch consumed by the complete
 * stage.
 *
 * Selection is event-driven: the stage merges the IQ's newly published
 * ready instructions with its own parked entries (per-FU stall lists
 * gated on unit availability, per-class register-wait lists gated on
 * the renamer's issue gate, a retry list for the per-cycle resources,
 * and the LSQ's released hold subscriptions), sorts the merged
 * candidates by age and attempts them oldest first — the whole
 * instruction queue is never walked. Entries that fail a structural
 * check are re-parked on the matching list; holds park inside the LSQ
 * until the blocking store resolves. The schedule is the one an
 * oldest-first walk over every queue entry would produce.
 *
 * Parking is exact because a failed attempt has no side effects: an
 * entry left out of a cycle's candidates is one a full-queue walk
 * would have attempted and failed. A register-wait entry is re-tested only when
 * RenameManager::issueGateEpoch says its class's gate inputs moved,
 * and merged only if RenameManager::issueGateOpen passes; within one
 * issue tick the gate can only close (each allocation takes a free
 * register), so an entry that fails the test at the merge would fail
 * its attempt too.
 */

#ifndef VPR_CORE_STAGES_ISSUE_STAGE_HH
#define VPR_CORE_STAGES_ISSUE_STAGE_HH

#include <array>
#include <vector>

#include "common/stats.hh"
#include "core/stages/latches.hh"
#include "core/stages/pipeline_state.hh"
#include "core/stages/stage.hh"

namespace vpr
{

/** The issue/execute stage. */
class IssueStage : public Stage
{
  public:
    IssueStage(PipelineState &state, CompletionQueue &completionQueue);

    const char *name() const override { return "issue"; }

    void tick() override;

    void
    squash(InstSeqNum) override
    {
        // Parked entries of squashed instructions go stale through the
        // seq + inIq check and are dropped at the next merge; nothing
        // to walk here.
    }

    /** Drop carried-over candidates and stall queues (simulator reuse
     *  between grid cells). Capacities stay resident. */
    void
    reinit()
    {
        cand.clear();
        retryQ.clear();
        for (auto &q : fuStallQ)
            q.clear();
        for (auto &q : regWaitQ)
            q.clear();
    }

  private:
    /** Why an issue attempt did not issue. */
    enum class Outcome : std::uint8_t
    {
        Issued,    ///< side effects committed, instruction left the IQ
        Hold,      ///< LSQ disambiguation hold (blocker identifies why)
        NoFu,      ///< all functional units of the class busy
        RegWait,   ///< the renamer's issue gate denied a register
        Resource,  ///< per-cycle resource (read ports, cache)
    };

    /** One attempt's verdict, with the LSQ blocker for holds. */
    struct Attempt
    {
        Outcome outcome;
        LoadHold hold = LoadHold::Ready;
        const DynInst *blocker = nullptr;
    };

    /** Try to issue one instruction (all structural checks in order);
     *  commits the side effects only when it issues. */
    Attempt tryIssueOne(DynInst *inst);

    /** Append the register-wait entries of every class whose gate
     *  inputs moved since the last tick and whose gate now passes. */
    void mergeRegisterWaits();

    PipelineState &s;
    CompletionQueue &completions;

    /** This cycle's merged, age-sorted candidates (member to reuse the
     *  allocation across cycles). */
    std::vector<ReadyRef> cand;
    /** Ready entries that failed a per-cycle resource; retried next
     *  cycle, exactly when a full-queue walk would retry them. */
    std::vector<ReadyRef> retryQ;
    /** Ready entries stalled on a busy FU class; merged back the first
     *  cycle a unit is available again (until then every attempt would
     *  fail the same availability check). */
    std::array<std::vector<ReadyRef>, kNumFUTypes> fuStallQ;
    /** Ready entries the renamer's issue gate denied, per destination
     *  class (VP issue allocation). Until the class's gate epoch moves
     *  every attempt would fail the same gate. */
    std::array<std::vector<ReadyRef>, kNumRegClasses> regWaitQ;
    /** Each class's gate epoch at the end of the last tick. */
    std::array<std::uint64_t, kNumRegClasses> regWaitEpoch{};

    stats::StatGroup group{"issue"};
    stats::Scalar issued{"issued", "instructions issued"};
    stats::Counter2D byClass;
    /** Fetch-to-first-issue latency per op class (satellite of the
     *  event-driven scheduler work; re-executions are not resampled). */
    std::vector<stats::Distribution> fetchToIssue;
};

} // namespace vpr

#endif // VPR_CORE_STAGES_ISSUE_STAGE_HH
