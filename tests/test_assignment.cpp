/**
 * @file
 * Queue-assignment policies (section 7) at the LinkState level, plus
 * the seed-dependence property ShapeSweep's cell sharing rests on.
 */

#include <gtest/gtest.h>

#include "core/program_gen.h"
#include "sim/arena.h"
#include "sim/assignment.h"
#include "sim/session.h"
#include "test_support.h"

namespace syscomm::sim {
namespace {

/**
 * Arena-backed free-standing link: LinkState is a view over SimArena
 * pools, so the arena must live alongside it.
 */
struct TestLink
{
    SimArena arena;
    LinkState& link;
    explicit TestLink(int queues)
        : link(arena.buildSingleLink(queues, /*capacity=*/1,
                                     /*ext_capacity=*/0,
                                     /*ext_penalty=*/0))
    {}
};

TEST(StaticPolicyT, AssignsEverythingUpFront)
{
    TestLink tl(3);
    LinkState& link = tl.link;
    link.addCrossing(0, LinkDir::kForward, 0, 2);
    link.addCrossing(1, LinkDir::kForward, 0, 2);
    link.addCrossing(2, LinkDir::kBackward, 0, 1);
    StaticPolicy policy;
    std::vector<AssignmentDecision> decisions;
    ASSERT_TRUE(policy.initLink(link, decisions));
    EXPECT_EQ(decisions.size(), 3u);
    EXPECT_EQ(link.numFreeQueues(), 0);
    for (const auto& c : link.crossings())
        EXPECT_EQ(c.phase, CrossingPhase::kAssigned);
}

TEST(StaticPolicyT, FailsWhenShortOnQueues)
{
    TestLink tl(1);
    LinkState& link = tl.link;
    link.addCrossing(0, LinkDir::kForward, 0, 1);
    link.addCrossing(1, LinkDir::kForward, 0, 1);
    StaticPolicy policy;
    std::vector<AssignmentDecision> decisions;
    EXPECT_FALSE(policy.initLink(link, decisions));
}

TEST(FcfsPolicyT, ServesInRequestOrder)
{
    TestLink tl(1);
    LinkState& link = tl.link;
    link.addCrossing(0, LinkDir::kForward, 0, 1);
    link.addCrossing(1, LinkDir::kForward, 0, 1);
    link.request(1, 1); // message 1 asks first
    link.request(0, 2);
    FcfsPolicy policy;
    std::vector<AssignmentDecision> decisions;
    policy.tick(link, 3, decisions);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_EQ(decisions[0].msg, 1);
}

TEST(FcfsPolicyT, TieBrokenByMessageId)
{
    TestLink tl(1);
    LinkState& link = tl.link;
    link.addCrossing(2, LinkDir::kForward, 0, 1);
    link.addCrossing(1, LinkDir::kForward, 0, 1);
    link.request(2, 5);
    link.request(1, 5);
    FcfsPolicy policy;
    std::vector<AssignmentDecision> decisions;
    policy.tick(link, 6, decisions);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_EQ(decisions[0].msg, 1);
}

TEST(CompatiblePolicyT, OrderedByLabelNotArrival)
{
    // Message 1 (label 2) requests first, but message 0 (label 1) must
    // be served first.
    TestLink tl(1);
    LinkState& link = tl.link;
    link.addCrossing(0, LinkDir::kForward, 0, 1);
    link.addCrossing(1, LinkDir::kForward, 0, 1);
    link.request(1, 1);
    CompatiblePolicy policy({1, 2}, false);
    std::vector<AssignmentDecision> decisions;
    policy.tick(link, 2, decisions);
    EXPECT_TRUE(decisions.empty()); // label 1 has not requested yet

    link.request(0, 3);
    policy.tick(link, 4, decisions);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_EQ(decisions[0].msg, 0);

    // Label 2 still waits: label 1 holds the only queue.
    decisions.clear();
    policy.tick(link, 5, decisions);
    EXPECT_TRUE(decisions.empty());
}

TEST(CompatiblePolicyT, SameLabelAssignedSimultaneously)
{
    TestLink tl(2);
    LinkState& link = tl.link;
    link.addCrossing(0, LinkDir::kForward, 0, 1);
    link.addCrossing(1, LinkDir::kForward, 0, 1);
    link.request(0, 1);
    CompatiblePolicy policy({1, 1}, false);
    std::vector<AssignmentDecision> decisions;
    policy.tick(link, 2, decisions);
    // Both or neither: both, since two queues are free and one member
    // requested.
    EXPECT_EQ(decisions.size(), 2u);
}

TEST(CompatiblePolicyT, SameLabelGroupWaitsForEnoughQueues)
{
    TestLink tl(1);
    LinkState& link = tl.link;
    link.addCrossing(0, LinkDir::kForward, 0, 1);
    link.addCrossing(1, LinkDir::kForward, 0, 1);
    link.request(0, 1);
    link.request(1, 1);
    CompatiblePolicy policy({1, 1}, false);
    std::vector<AssignmentDecision> decisions;
    policy.tick(link, 2, decisions);
    EXPECT_TRUE(decisions.empty()); // needs 2 free queues, has 1
}

TEST(CompatiblePolicyT, EagerReservesBeforeRequest)
{
    TestLink tl(1);
    LinkState& link = tl.link;
    link.addCrossing(0, LinkDir::kForward, 0, 1);
    CompatiblePolicy policy({1}, true);
    std::vector<AssignmentDecision> decisions;
    policy.tick(link, 1, decisions);
    ASSERT_EQ(decisions.size(), 1u); // assigned before any request
    EXPECT_EQ(link.crossing(0).phase, CrossingPhase::kAssigned);
}

TEST(CompatiblePolicyT, LargerLabelProceedsAfterRelease)
{
    TestLink tl(1);
    LinkState& link = tl.link;
    link.addCrossing(0, LinkDir::kForward, 0, 1);
    link.addCrossing(1, LinkDir::kForward, 0, 1);
    link.request(0, 1);
    link.request(1, 1);
    CompatiblePolicy policy({1, 2}, false);
    std::vector<AssignmentDecision> decisions;
    policy.tick(link, 2, decisions);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_EQ(decisions[0].msg, 0);

    // Pass message 0's single word through and release its queue.
    link.beginCycle(3);
    Word w;
    w.msg = 0;
    link.queue(0).push(w, 3);
    link.beginCycle(4);
    (void)link.queue(0).pop(4);
    link.finishMsg(0, 4);

    decisions.clear();
    policy.tick(link, 5, decisions);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_EQ(decisions[0].msg, 1);
}

TEST(RandomPolicyT, EventuallyServesEveryRequest)
{
    TestLink tl(2);
    LinkState& link = tl.link;
    link.addCrossing(0, LinkDir::kForward, 0, 1);
    link.addCrossing(1, LinkDir::kForward, 0, 1);
    link.request(0, 1);
    link.request(1, 1);
    RandomPolicy policy(7);
    std::vector<AssignmentDecision> decisions;
    policy.tick(link, 2, decisions);
    EXPECT_EQ(decisions.size(), 2u);
}

TEST(PolicyFactory, NamesAndKinds)
{
    EXPECT_STREQ(policyKindName(PolicyKind::kFcfs), "fcfs");
    EXPECT_STREQ(policyKindName(PolicyKind::kCompatible), "compatible");
    auto p = makePolicy(PolicyKind::kCompatibleEager, {1}, 1);
    EXPECT_EQ(p->name(), "compatible-eager");
    auto s = makePolicy(PolicyKind::kStatic, {}, 1);
    EXPECT_EQ(s->name(), "static");
}

TEST(PolicyReadsSeed, AgreesWithRunsThatDifferOnlyInSeed)
{
    // Contended links (12 messages over 5 links, 2-3 queues each) so
    // a policy that reads the seed has shuffles to make; 12 queues
    // let the static policy run too. For every kind, runs that differ
    // only in seed must be identical exactly when policyReadsSeed
    // says the kind is seed-blind — a new policy that consumes the
    // seed without saying so fails here instead of having ShapeSweep
    // share its rows across seeds.
    Topology topo = Topology::linearArray(6);
    GenOptions gen;
    gen.numMessages = 12;
    gen.maxWords = 4;
    gen.seed = 7;
    gen.interleave = 0.5;
    const Program program = randomDeadlockFreeProgram(topo, gen);
    for (int k = 0; k < kNumPolicyKinds; ++k) {
        const auto kind = static_cast<PolicyKind>(k);
        const std::string name = policyKindName(kind);
        bool seedChangedARun = false;
        for (int queues : {2, 3, 12}) {
            MachineSpec spec;
            spec.topo = topo;
            spec.queuesPerLink = queues;
            SimSession session(program, spec);
            RunRequest base;
            base.policy = kind;
            base.collect = Collect::kAll;
            const RunResult first = session.run(base);
            const std::uint64_t firstDigest = session.machineDigest();
            for (std::uint64_t seed = 2; seed <= 8; ++seed) {
                RunRequest other = base;
                other.seed = seed;
                EXPECT_EQ(runsEquivalent(base, other), !policyReadsSeed(kind))
                    << name;
                const RunResult again = session.run(other);
                const std::string ctx = name + " queues " +
                                        std::to_string(queues) + " seed " +
                                        std::to_string(seed);
                if (!policyReadsSeed(kind)) {
                    expectSameRunResult(again, first, ctx);
                    EXPECT_EQ(session.machineDigest(), firstDigest) << ctx;
                }
                seedChangedARun |= again.status != first.status ||
                                   again.cycles != first.cycles ||
                                   again.events != first.events ||
                                   session.machineDigest() != firstDigest;
            }
        }
        EXPECT_EQ(seedChangedARun, policyReadsSeed(kind)) << name;
    }
}

} // namespace
} // namespace syscomm::sim
