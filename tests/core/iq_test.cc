/** @file Unit tests for the instruction queue. */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <vector>

#include "core/iq.hh"

namespace vpr
{
namespace
{

/** An IQ over its own ROB (production wiring: PipelineState). Tests
 *  allocate instructions as ROB entries, with ascending sequence
 *  numbers as rename assigns them. */
struct IqFixture
{
    explicit IqFixture(std::size_t cap, std::size_t robSize = 256)
        : hot(robSize), rob(robSize, hot), iq(cap, rob)
    {
    }

    /** Allocate the next ROB entry as an ALU op with sequence @p seq. */
    DynInst *
    alu(InstSeqNum seq)
    {
        DynInst *d = rob.allocate();
        d->si = StaticInst::alu(RegId::intReg(1), RegId::intReg(2),
                                RegId::intReg(3));
        d->setSeq(seq);
        return d;
    }

    /** An ALU op whose first source waits on (@p cls, @p tag). */
    DynInst *
    waiter(InstSeqNum seq, RegClass cls, std::uint16_t tag)
    {
        DynInst *d = alu(seq);
        d->src[0].valid = true;
        d->src[0].cls = cls;
        d->src[0].tag = tag;
        return d;
    }

    /** The IQ members, oldest first. */
    std::vector<DynInst *>
    members()
    {
        std::vector<DynInst *> out;
        iq.forEachEntry([&out](DynInst *d) { out.push_back(d); });
        return out;
    }

    /** Branch recovery as PipelineState::squashYoungerThan does it:
     *  pop the ROB tail down to @p keep, dropping IQ membership. */
    void
    squashYoungerThan(InstSeqNum keep)
    {
        while (!rob.empty() && rob.tail().seq() > keep) {
            if (rob.tail().inIq())
                iq.remove(&rob.tail());
            rob.squashTail();
        }
    }

    /** Retire ROB heads that already left the IQ (long random runs
     *  would otherwise fill the ROB). */
    void
    retire()
    {
        while (!rob.empty() && !rob.head().inIq())
            rob.commitHead();
    }

    InstHotPool hot;
    Rob rob;
    InstQueue iq;
};

std::vector<InstSeqNum>
seqsOf(const std::vector<DynInst *> &insts)
{
    std::vector<InstSeqNum> out;
    for (const DynInst *d : insts)
        out.push_back(d->seq());
    return out;
}

TEST(InstQueue, InsertKeepsAgeOrder)
{
    IqFixture f(8);
    DynInst *a = f.alu(1), *b = f.alu(2), *c = f.alu(3);
    f.iq.insert(a);
    f.iq.insert(c);
    // Re-insertion of an older instruction (write-back squash path).
    f.iq.insert(b);
    ASSERT_EQ(f.iq.size(), 3u);
    EXPECT_EQ(seqsOf(f.members()),
              (std::vector<InstSeqNum>{1, 2, 3}));
}

TEST(InstQueue, RemoveSpecificEntry)
{
    IqFixture f(8);
    DynInst *a = f.alu(1), *b = f.alu(2);
    f.iq.insert(a);
    f.iq.insert(b);
    f.iq.remove(a);
    ASSERT_EQ(f.iq.size(), 1u);
    EXPECT_FALSE(a->inIq());
    EXPECT_EQ(seqsOf(f.members()), (std::vector<InstSeqNum>{2}));
}

TEST(InstQueue, NonMembersInTheRobAreSkipped)
{
    // The walk goes over the ROB: entries that issued (or were never
    // queued) are there but are not members.
    IqFixture f(8);
    DynInst *a = f.alu(1);
    f.alu(2);  // in the ROB, never inserted
    DynInst *c = f.alu(3);
    f.iq.insert(a);
    f.iq.insert(c);
    EXPECT_EQ(seqsOf(f.members()), (std::vector<InstSeqNum>{1, 3}));
    f.iq.remove(a);
    EXPECT_EQ(seqsOf(f.members()), (std::vector<InstSeqNum>{3}));
}

TEST(InstQueue, ClearDropsEveryMembership)
{
    IqFixture f(8);
    DynInst *a = f.alu(1), *b = f.alu(2);
    f.iq.insert(a);
    f.iq.insert(b);
    f.iq.clear();
    EXPECT_TRUE(f.iq.empty());
    EXPECT_FALSE(a->inIq());
    EXPECT_FALSE(b->inIq());
    EXPECT_TRUE(f.members().empty());
}

TEST(InstQueue, WakeupMatchesClassAndTag)
{
    IqFixture f(8);
    DynInst *a = f.alu(1);
    a->src[0].valid = true;
    a->src[0].cls = RegClass::Int;
    a->src[0].tag = 40;
    a->src[1].valid = true;
    a->src[1].cls = RegClass::Float;
    a->src[1].tag = 40;  // same tag number, different class!
    f.iq.insert(a);

    EXPECT_EQ(f.iq.wakeup(RegClass::Int, 40, 7), 1u);
    EXPECT_TRUE(a->src[0].ready);
    EXPECT_EQ(a->src[0].tag, 7);      // captured the physical register
    EXPECT_FALSE(a->src[1].ready);    // FP operand untouched
}

TEST(InstQueue, WakeupIgnoresAlreadyReady)
{
    IqFixture f(8);
    DynInst *a = f.alu(1);
    a->src[0].valid = true;
    a->src[0].cls = RegClass::Int;
    a->src[0].tag = 40;
    a->src[0].ready = true;
    f.iq.insert(a);
    EXPECT_EQ(f.iq.wakeup(RegClass::Int, 40, 9), 0u);
    EXPECT_EQ(a->src[0].tag, 40);
}

TEST(InstQueue, WakeupHitsAllWaiters)
{
    IqFixture f(8);
    DynInst *a = f.waiter(1, RegClass::Float, 99);
    DynInst *b = f.waiter(2, RegClass::Float, 99);
    f.iq.insert(a);
    f.iq.insert(b);
    EXPECT_EQ(f.iq.wakeup(RegClass::Float, 99, 3), 2u);
    EXPECT_TRUE(a->src[0].ready && b->src[0].ready);
}

TEST(InstQueue, SquashYoungerThanDropsTail)
{
    IqFixture f(8);
    DynInst *a = f.alu(1), *b = f.alu(5), *c = f.alu(9);
    f.iq.insert(a);
    f.iq.insert(b);
    f.iq.insert(c);
    f.squashYoungerThan(5);
    ASSERT_EQ(f.iq.size(), 2u);
    EXPECT_EQ(seqsOf(f.members()), (std::vector<InstSeqNum>{1, 5}));
    f.squashYoungerThan(0);
    EXPECT_TRUE(f.iq.empty());
}

TEST(InstQueue, CapacityTracking)
{
    IqFixture f(2);
    DynInst *a = f.alu(1), *b = f.alu(2);
    EXPECT_FALSE(f.iq.full());
    f.iq.insert(a);
    f.iq.insert(b);
    EXPECT_TRUE(f.iq.full());
    f.iq.remove(a);
    EXPECT_FALSE(f.iq.full());
}

TEST(InstQueueDeath, InsertIntoFullPanics)
{
    IqFixture f(1);
    DynInst *a = f.alu(1), *b = f.alu(2);
    f.iq.insert(a);
    EXPECT_DEATH(f.iq.insert(b), "full IQ");
}

TEST(InstQueueDeath, DuplicateInsertPanics)
{
    IqFixture f(4);
    DynInst *a = f.alu(1), *b = f.alu(2);
    f.iq.insert(a);
    f.iq.insert(b);
    EXPECT_DEATH(f.iq.insert(a), "duplicate IQ entry");
}

TEST(InstQueueDeath, RemoveAbsentPanics)
{
    IqFixture f(4);
    DynInst *a = f.alu(1);
    EXPECT_DEATH(f.iq.remove(a), "not present");
}

// --- per-tag wait-list wakeup ---------------------------------------------

TEST(InstQueueWaitList, RemovedEntryIsNotWoken)
{
    IqFixture f(8);
    DynInst *a = f.waiter(1, RegClass::Int, 40);
    DynInst *b = f.waiter(2, RegClass::Int, 40);
    f.iq.insert(a);
    f.iq.insert(b);
    f.iq.remove(a);  // e.g. issued before the broadcast
    EXPECT_EQ(f.iq.wakeup(RegClass::Int, 40, 7), 1u);
    EXPECT_FALSE(a->src[0].ready);
    EXPECT_TRUE(b->src[0].ready);
}

TEST(InstQueueWaitList, SquashedEntryIsNotWoken)
{
    IqFixture f(8);
    DynInst *a = f.waiter(1, RegClass::Float, 9);
    DynInst *b = f.waiter(5, RegClass::Float, 9);
    f.iq.insert(a);
    f.iq.insert(b);
    f.squashYoungerThan(1);
    EXPECT_EQ(f.iq.wakeup(RegClass::Float, 9, 3), 1u);
    EXPECT_TRUE(a->src[0].ready);
    EXPECT_FALSE(b->src[0].ready);
}

TEST(InstQueueWaitList, SlotReuseAfterSquashIsDetected)
{
    // A squashed instruction's ROB slot (and hot row) is recycled for a
    // younger one; the stale wait-list entry must not wake the new
    // occupant, while the new occupant's own entry must.
    IqFixture f(8);
    DynInst *old = f.waiter(3, RegClass::Int, 12);
    const HotIdx sl = old->slot;
    f.iq.insert(old);
    f.squashYoungerThan(0);
    ASSERT_TRUE(f.iq.empty());

    // The ROB hands the same storage and hot row to the next rename.
    DynInst *fresh = f.waiter(9, RegClass::Int, 12);
    ASSERT_EQ(fresh, old);
    ASSERT_EQ(fresh->slot, sl);
    f.iq.insert(fresh);
    EXPECT_EQ(f.iq.wakeup(RegClass::Int, 12, 4), 1u);
    EXPECT_TRUE(fresh->src[0].ready);
    EXPECT_EQ(fresh->src[0].tag, 4);
}

TEST(InstQueueWaitList, ReinsertionDoesNotDoubleWake)
{
    // Write-back squash path: an instruction re-enters the queue while
    // its original wait-list entry may still be pending.
    IqFixture f(8);
    DynInst *a = f.waiter(4, RegClass::Int, 17);
    f.iq.insert(a);
    f.iq.remove(a);
    f.iq.insert(a);  // re-inserted, still waiting on tag 17
    EXPECT_EQ(f.iq.wakeup(RegClass::Int, 17, 6), 1u);
    EXPECT_TRUE(a->src[0].ready);
}

// --- ready-list publication -----------------------------------------------

/** Drain helper: newly published entries since the last call. */
std::vector<ReadyRef>
drain(InstQueue &iq)
{
    std::vector<ReadyRef> out;
    iq.drainReadyEvents(out);
    return out;
}

TEST(InstQueueReady, ReadyAtInsertIsPublishedImmediately)
{
    IqFixture f(8);
    DynInst *a = f.alu(1);  // no sources: issue-ready on arrival
    f.iq.insert(a);
    auto out = drain(f.iq);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].inst, a);
    EXPECT_EQ(out[0].seq, 1u);
    EXPECT_EQ(out[0].slot, a->slot);
    EXPECT_TRUE(a->inReadyQ());
    // Published exactly once.
    EXPECT_TRUE(drain(f.iq).empty());
}

TEST(InstQueueReady, PublishedWhenLastSourceWakes)
{
    IqFixture f(8);
    DynInst *a = f.alu(1);
    a->src[0] = {10, RegClass::Int, true, false};
    a->src[1] = {11, RegClass::Float, true, false};
    f.iq.insert(a);
    EXPECT_TRUE(drain(f.iq).empty());
    f.iq.wakeup(RegClass::Int, 10, 70);
    EXPECT_TRUE(drain(f.iq).empty());  // one source still outstanding
    f.iq.wakeup(RegClass::Float, 11, 71);
    auto out = drain(f.iq);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].inst, a);
}

TEST(InstQueueReady, StorePublishesOnAddressOperandOnly)
{
    // A store issues on its address operand (src[1]); the data operand
    // (src[0]) gates completion, not readiness for issue.
    IqFixture f(8);
    DynInst *st = f.rob.allocate();
    st->si = StaticInst::store(RegId::intReg(3), RegId::intReg(2), 0x100);
    st->setSeq(1);
    st->src[0] = {20, RegClass::Int, true, false};  // data
    st->src[1] = {21, RegClass::Int, true, false};  // address base
    f.iq.insert(st);
    EXPECT_TRUE(drain(f.iq).empty());
    f.iq.wakeup(RegClass::Int, 20, 70);  // data wakes: still not ready
    EXPECT_TRUE(drain(f.iq).empty());
    f.iq.wakeup(RegClass::Int, 21, 71);  // address wakes: publish
    auto out = drain(f.iq);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].inst, st);
}

TEST(InstQueueReady, ReinsertionAfterRemoveRepublishes)
{
    // Write-back rejection path: the instruction issued (leaving the
    // queue), got denied a register, and re-enters ready.
    IqFixture f(8);
    DynInst *a = f.alu(1);
    f.iq.insert(a);
    ASSERT_EQ(drain(f.iq).size(), 1u);
    f.iq.remove(a);
    EXPECT_FALSE(a->inReadyQ());
    f.iq.insert(a);
    auto out = drain(f.iq);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].inst, a);
}

/** xorshift64: the random tests' deterministic stimulus. */
struct XorShift
{
    std::uint64_t state;

    std::uint64_t
    operator()()
    {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    }
};

/** Fill @p d's two sources with random (class, tag, ready) triples. */
void
randomSources(DynInst &d, XorShift &next)
{
    for (int si = 0; si < 2; ++si) {
        d.src[si].valid = (next() & 3) != 0;
        d.src[si].cls = (next() & 1) ? RegClass::Int : RegClass::Float;
        d.src[si].tag = static_cast<std::uint16_t>(next() % 48);
        d.src[si].ready = (next() & 3) == 0;
    }
}

TEST(InstQueueReady, MatchesFullScanOnRandomStimulus)
{
    // Random inserts/wakeups/removes/squashes; the set of instructions
    // ever published (and still valid) must equal exactly the resident
    // issue-ready instructions a full-queue scan would select from —
    // no duplicates, no misses.
    IqFixture f(64, 128);
    std::vector<ReadyRef> published;
    XorShift next{0x853c49e6748fea9bull};

    InstSeqNum seq = 0;
    for (int step = 0; step < 4000; ++step) {
        switch (next() % 4) {
          case 0:
          case 1: {  // insert (sometimes a store, sometimes ready)
            f.retire();
            if (f.rob.full() || f.iq.full())
                break;
            DynInst *d = f.rob.allocate();
            if ((next() & 3) == 0) {
                d->si = StaticInst::store(RegId::intReg(3),
                                          RegId::intReg(2), 0x100);
            } else {
                d->si = StaticInst::alu(RegId::intReg(1),
                                        RegId::intReg(2),
                                        RegId::intReg(3));
            }
            d->setSeq(++seq);
            randomSources(*d, next);
            f.iq.insert(d);
            break;
          }
          case 2: {  // remove a random resident entry (issue)
            if (f.iq.empty())
                break;
            const auto members = f.members();
            f.iq.remove(members[next() % members.size()]);
            break;
          }
          case 3: {  // broadcast or squash
            if ((next() & 7) == 0) {
                f.squashYoungerThan(seq > 0 ? next() % seq : 0);
            } else {
                f.iq.wakeup((next() & 1) ? RegClass::Int : RegClass::Float,
                            static_cast<std::uint16_t>(next() % 48),
                            static_cast<std::uint16_t>(64 + next() % 32));
            }
            break;
          }
        }
        if ((next() & 15) == 0)
            f.iq.drainReadyEvents(published);
    }
    f.iq.drainReadyEvents(published);

    // Valid publications, deduplicated by instruction.
    std::set<const DynInst *> readySet;
    for (const ReadyRef &e : published) {
        if (!f.hot.live(e.slot, e.seq) || !f.hot.isInIq(e.slot))
            continue;  // stale: issued, squashed, or slot reused
        EXPECT_TRUE(e.inst->issueOperandsReady());
        EXPECT_TRUE(readySet.insert(e.inst).second)
            << "duplicate publication of sn:" << e.seq;
    }
    // Exactly the entries a full scan would find ready.
    for (const DynInst *inst : f.members()) {
        EXPECT_EQ(readySet.count(inst) == 1, inst->issueOperandsReady())
            << "sn:" << inst->seq();
    }
}

/**
 * Reference model of InstQueue::wakeup(): walk every member oldest
 * first and wake each unready source of class @p cls waiting on
 * @p tag. @return the number of source operands woken.
 */
unsigned
scanWakeup(IqFixture &f, RegClass cls, std::uint16_t tag,
           std::uint16_t physReg)
{
    unsigned n = 0;
    f.iq.forEachEntry([&](DynInst *inst) {
        for (SrcOperand &s : inst->src) {
            if (s.valid && !s.ready && s.cls == cls && s.tag == tag) {
                s.tag = physReg;
                s.ready = true;
                ++n;
            }
        }
    });
    return n;
}

TEST(InstQueueWaitList, MatchesScanReferenceOnRandomStimulus)
{
    // Drive a wait-list queue and the scan reference model with an
    // identical pseudo-random insert/remove/squash/wakeup stimulus;
    // every wakeup must report the same count and leave identical
    // operand state. Each side gets its own ROB and hot pool (parallel
    // universes must not share residency flags); the reference side
    // uses its queue for membership only and never calls wakeup().
    IqFixture fast(64, 128);
    IqFixture ref(64, 128);
    XorShift next{0x9e3779b97f4a7c15ull};

    InstSeqNum seq = 0;
    for (int step = 0; step < 2000; ++step) {
        switch (next() % 4) {
          case 0:
          case 1: {  // insert a fresh instruction
            fast.retire();
            ref.retire();
            ASSERT_EQ(fast.rob.size(), ref.rob.size());
            if (fast.rob.full() || fast.iq.full())
                break;
            ++seq;
            DynInst *d = fast.alu(seq);
            randomSources(*d, next);
            DynInst *r = ref.alu(seq);
            std::copy(std::begin(d->src), std::end(d->src),
                      std::begin(r->src));
            fast.iq.insert(d);
            ref.iq.insert(r);
            break;
          }
          case 2: {  // remove a random resident entry (issue)
            if (fast.iq.empty())
                break;
            const auto fm = fast.members();
            const auto rm = ref.members();
            const std::size_t i = next() % fm.size();
            ASSERT_EQ(fm[i]->seq(), rm[i]->seq());
            fast.iq.remove(fm[i]);
            ref.iq.remove(rm[i]);
            break;
          }
          case 3: {  // broadcast or squash
            if ((next() & 7) == 0) {
                InstSeqNum keep = seq > 0 ? next() % seq : 0;
                fast.squashYoungerThan(keep);
                ref.squashYoungerThan(keep);
            } else {
                RegClass cls =
                    (next() & 1) ? RegClass::Int : RegClass::Float;
                std::uint16_t tag =
                    static_cast<std::uint16_t>(next() % 48);
                std::uint16_t phys =
                    static_cast<std::uint16_t>(64 + next() % 32);
                EXPECT_EQ(fast.iq.wakeup(cls, tag, phys),
                          scanWakeup(ref, cls, tag, phys));
            }
            break;
          }
        }
        ASSERT_EQ(fast.iq.size(), ref.iq.size());
        // Every operand of every in-flight instruction agrees bit for
        // bit between the two implementations.
        ASSERT_EQ(fast.rob.size(), ref.rob.size());
        for (std::size_t i = 0; i < fast.rob.size(); ++i) {
            for (int si = 0; si < 2; ++si) {
                ASSERT_EQ(fast.rob.at(i).src[si].ready,
                          ref.rob.at(i).src[si].ready)
                    << "step " << step << " entry " << i;
                ASSERT_EQ(fast.rob.at(i).src[si].tag,
                          ref.rob.at(i).src[si].tag)
                    << "step " << step << " entry " << i;
            }
        }
    }
}

} // namespace
} // namespace vpr
