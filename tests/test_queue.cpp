/**
 * @file
 * Hardware queue semantics: assignment lifecycle, one push/pop per
 * cycle, next-cycle visibility, and the memory extension penalty.
 */

#include <gtest/gtest.h>

#include "sim/arena.h"
#include "sim/link_state.h"
#include "sim/queue.h"

namespace syscomm::sim {
namespace {

Word
word(MessageId msg, int seq)
{
    Word w;
    w.msg = msg;
    w.seq = seq;
    w.value = seq * 1.0;
    return w;
}

/**
 * Arena-backed free-standing queue/link: HwQueue and LinkState are
 * views over SimArena pools, so each test carries its own arena.
 */
struct TestQueue
{
    SimArena arena;
    HwQueue& q;
    TestQueue(int capacity, int ext_capacity, int ext_penalty)
        : q(arena.buildSingleQueue(capacity, ext_capacity, ext_penalty))
    {}
};

struct TestLink
{
    SimArena arena;
    LinkState& link;
    TestLink(int queues, int capacity)
        : link(arena.buildSingleLink(queues, capacity, 0, 0))
    {}
};

TEST(HwQueue, AssignmentLifecycle)
{
    TestQueue tq(1, 0, 0);
    HwQueue& q = tq.q;
    EXPECT_TRUE(q.isFree());
    q.assign(3, LinkDir::kForward, 2, 0);
    EXPECT_FALSE(q.isFree());
    EXPECT_EQ(q.assignedMsg(), 3);
    EXPECT_EQ(q.wordsRemaining(), 2);
    EXPECT_FALSE(q.canRelease());

    q.settleStats(1);
    q.push(word(3, 0), 1);
    q.settleStats(2);
    (void)q.pop(2);
    EXPECT_FALSE(q.canRelease()); // one word still to pass
    q.settleStats(3);
    q.push(word(3, 1), 3);
    q.settleStats(4);
    (void)q.pop(4);
    EXPECT_TRUE(q.canRelease());
    q.release(4);
    EXPECT_TRUE(q.isFree());
    EXPECT_EQ(q.assignmentsServed(), 1);
}

TEST(HwQueue, WordNotVisibleSameCycle)
{
    TestQueue tq(2, 0, 0);
    HwQueue& q = tq.q;
    q.assign(1, LinkDir::kForward, 1, 0);
    q.settleStats(1);
    q.push(word(1, 0), 1);
    EXPECT_FALSE(q.canPop(1)); // pushed this cycle
    q.settleStats(2);
    EXPECT_TRUE(q.canPop(2));
}

TEST(HwQueue, OnePushOnePopPerCycle)
{
    TestQueue tq(4, 0, 0);
    HwQueue& q = tq.q;
    q.assign(1, LinkDir::kForward, 4, 0);
    q.settleStats(1);
    q.push(word(1, 0), 1);
    EXPECT_FALSE(q.canPush()); // already pushed this cycle
    q.settleStats(2);
    q.push(word(1, 1), 2);
    q.settleStats(3);
    (void)q.pop(3);
    EXPECT_FALSE(q.canPop(3)); // already popped this cycle
}

TEST(HwQueue, CapacityIncludesExtension)
{
    TestQueue tq(1, 2, 0);
    HwQueue& q = tq.q;
    q.assign(1, LinkDir::kForward, 3, 0);
    EXPECT_EQ(q.totalCapacity(), 3);
    q.settleStats(1);
    q.push(word(1, 0), 1);
    q.settleStats(2);
    q.push(word(1, 1), 2); // spills into extension
    q.settleStats(3);
    q.push(word(1, 2), 3);
    EXPECT_TRUE(q.isFull());
    EXPECT_EQ(q.extendedWords(), 2);
}

TEST(HwQueue, ExtensionPenaltyDelaysFront)
{
    TestQueue tq(1, 1, 3);
    HwQueue& q = tq.q;
    q.assign(1, LinkDir::kForward, 2, 0);
    q.settleStats(1);
    q.push(word(1, 0), 1); // hardware slot
    q.settleStats(2);
    q.push(word(1, 1), 2); // extension slot
    q.settleStats(3);
    (void)q.pop(3); // word 0 pops normally
    // Word 1 surfaced at cycle 3 having been extended: ready at 3 + 3.
    q.settleStats(4);
    EXPECT_FALSE(q.canPop(4));
    q.settleStats(5);
    EXPECT_FALSE(q.canPop(5));
    q.settleStats(6);
    EXPECT_TRUE(q.canPop(6));
    EXPECT_EQ(q.pop(6).seq, 1);
}

TEST(HwQueue, StatsAccumulate)
{
    TestQueue tq(2, 0, 0);
    HwQueue& q = tq.q;
    q.settleStats(1); // free: no busy cycle
    q.assign(1, LinkDir::kForward, 1, 1);
    q.settleStats(2);
    q.push(word(1, 0), 2);
    q.settleStats(3);
    EXPECT_EQ(q.busyCycles(), 2);
    EXPECT_EQ(q.occupancySum(), 1); // one word during cycle 3
    EXPECT_EQ(q.wordsPushed(), 1);
}

TEST(LinkStateT, RequestAssignFinish)
{
    TestLink tl(2, 1);
    LinkState& link = tl.link;
    // A crossing's slot is its registration index on the link.
    const int slot = link.addCrossing(5, LinkDir::kForward, 0, 1);
    EXPECT_EQ(slot, 0);
    ASSERT_EQ(link.crossings().size(), 1u);
    const Crossing& c = link.crossings()[0];
    EXPECT_EQ(c.msg, 5);
    EXPECT_EQ(link.numFreeQueues(), 2);

    link.request(slot, 3);
    EXPECT_EQ(c.phase, CrossingPhase::kRequested);
    EXPECT_EQ(c.requestedAt, 3);

    link.assign(slot, 0, 4);
    EXPECT_EQ(c.phase, CrossingPhase::kAssigned);
    EXPECT_EQ(link.numFreeQueues(), 1);
    EXPECT_EQ(link.queue(0).assignedMsg(), 5);
    EXPECT_EQ(link.queue(0).slot(), slot); // the queue knows its crossing

    link.queue(0).settleStats(5);
    link.queue(0).push(word(5, 0), 5);
    link.queue(0).settleStats(6);
    (void)link.queue(0).pop(6);
    link.finish(slot, 6);
    EXPECT_EQ(c.phase, CrossingPhase::kDone);
    EXPECT_EQ(link.numFreeQueues(), 2);
    EXPECT_EQ(link.queue(0).slot(), -1);
}

TEST(LinkStateT, FindFreeQueuePrefersLowestId)
{
    TestLink tl(3, 1);
    LinkState& link = tl.link;
    const int slot = link.addCrossing(1, LinkDir::kForward, 0, 1);
    EXPECT_EQ(link.findFreeQueue(), 0);
    link.assign(slot, 0, 0);
    EXPECT_EQ(link.findFreeQueue(), 1);
}

} // namespace
} // namespace syscomm::sim
