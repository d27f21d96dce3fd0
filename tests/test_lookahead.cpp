/**
 * @file
 * Lookahead crossing-off (paper section 8.1): rules R1/R2, the Fig. 10
 * trace of program P1, and the P2/P3 contrast.
 */

#include <gtest/gtest.h>

#include "algos/paper_figures.h"
#include "core/competing.h"
#include "core/crossoff.h"

namespace syscomm {
namespace {

using algos::fig5P1;
using algos::fig5P2;
using algos::fig5P3;

CrossOffOptions
lookahead(int bound)
{
    CrossOffOptions options;
    options.lookahead = true;
    options.skip_bound = uniformSkipBound(bound);
    return options;
}

TEST(Lookahead, P1DeadlockFreeWithBufferTwo)
{
    // Section 8: "suppose that each queue can buffer two words. Then
    // the run time deadlock ... will not occur."
    Program p = fig5P1();
    EXPECT_FALSE(isDeadlockFree(p));
    EXPECT_FALSE(crossOff(p, lookahead(1)).deadlockFree);
    EXPECT_TRUE(crossOff(p, lookahead(2)).deadlockFree);
}

TEST(Lookahead, Fig10PairSequence)
{
    // Fig. 10: first pair is W(B)/R(B) (skipping two W(A)s), then the
    // A words interleave with the remaining B word... P1 has messages
    // A (2 words) and B (1 word); the first crossed pair must be B.
    Program p = fig5P1();
    CrossOffResult result = crossOff(p, lookahead(2));
    ASSERT_TRUE(result.deadlockFree);
    ASSERT_FALSE(result.sequence.empty());
    EXPECT_EQ(p.message(result.sequence[0].msg).name, "B");
    // Locating W(B) skipped the two W(A)s.
    ASSERT_EQ(result.sequence[0].skippedMessages.size(), 1u);
    EXPECT_EQ(p.message(result.sequence[0].skippedMessages[0]).name, "A");
}

TEST(Lookahead, P2DeadlockFreeWithBufferOne)
{
    // P2 writes face each other; one word of buffering unblocks both.
    Program p = fig5P2();
    EXPECT_FALSE(isDeadlockFree(p));
    EXPECT_TRUE(crossOff(p, lookahead(1)).deadlockFree);
}

TEST(Lookahead, P3DeadlockedAtAnyBound)
{
    // Rule R1: reads can never be skipped. P3 starts with reads on
    // both sides, so no buffering helps.
    Program p = fig5P3();
    EXPECT_FALSE(crossOff(p, lookahead(1)).deadlockFree);
    EXPECT_FALSE(crossOff(p, lookahead(100)).deadlockFree);
    CrossOffOptions unlimited;
    unlimited.lookahead = true;
    unlimited.skip_bound = unlimitedSkipBound();
    EXPECT_FALSE(crossOff(p, unlimited).deadlockFree);
}

TEST(Lookahead, ZeroBoundEqualsBasicProcedure)
{
    for (Program p : {fig5P1(), fig5P2(), fig5P3()}) {
        CrossOffOptions options;
        options.lookahead = true;
        options.skip_bound = zeroSkipBound();
        EXPECT_EQ(crossOff(p, options).deadlockFree,
                  crossOff(p).deadlockFree);
    }
}

TEST(Lookahead, R2BoundIsPerMessage)
{
    // Sender: W(A) W(A) W(B); receiver: R(B) R(A) R(A) — the P1 shape.
    // Give A a bound of 1 (insufficient) and B a large one: still
    // deadlocked, because reaching W(B) skips two writes to A.
    Program p = fig5P1();
    auto a = *p.messageByName("A");
    CrossOffOptions options;
    options.lookahead = true;
    options.skip_bound = [a](MessageId m) { return m == a ? 1 : 100; };
    EXPECT_FALSE(crossOff(p, options).deadlockFree);

    options.skip_bound = [a](MessageId m) { return m == a ? 2 : 0; };
    EXPECT_TRUE(crossOff(p, options).deadlockFree);
}

TEST(Lookahead, RouteCapacityBoundUsesHopCount)
{
    // A message crossing three links with capacity-2 queues may have
    // six words in flight.
    Program p(4);
    MessageId m = p.declareMessage("M", 0, 3);
    p.write(0, m);
    p.read(3, m);
    const CompetingAnalysis competing =
        CompetingAnalysis::analyze(p, Topology::linearArray(4));
    SkipBoundFn bound = routeCapacityBound(competing, 2);
    EXPECT_EQ(bound(m), 6);
}

TEST(Lookahead, DeepInterleaveNeedsMatchingBound)
{
    // Sender emits k words of A then one of B; receiver wants B first.
    for (int k : {1, 2, 5, 9}) {
        Program p(2);
        MessageId a = p.declareMessage("A", 0, 1);
        MessageId b = p.declareMessage("B", 0, 1);
        for (int i = 0; i < k; ++i)
            p.write(0, a);
        p.write(0, b);
        p.read(1, b);
        for (int i = 0; i < k; ++i)
            p.read(1, a);
        EXPECT_FALSE(crossOff(p, lookahead(k - 1)).deadlockFree) << k;
        EXPECT_TRUE(crossOff(p, lookahead(k)).deadlockFree) << k;
        (void)a;
        (void)b;
    }
}

TEST(Lookahead, SkippedMessagesReported)
{
    Program p(2);
    MessageId a = p.declareMessage("A", 0, 1);
    MessageId b = p.declareMessage("B", 0, 1);
    MessageId c = p.declareMessage("C", 0, 1);
    p.write(0, a);
    p.write(0, b);
    p.write(0, c);
    p.read(1, c);
    p.read(1, a);
    p.read(1, b);
    CrossOffResult result = crossOff(p, lookahead(1));
    ASSERT_TRUE(result.deadlockFree);
    // First pair is C; locating its write skips one write to A and one
    // to B.
    EXPECT_EQ(result.sequence[0].msg, c);
    EXPECT_EQ(result.sequence[0].skippedMessages,
              (std::vector<MessageId>{a, b}));
}

} // namespace
} // namespace syscomm
