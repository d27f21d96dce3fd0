/**
 * @file
 * Determinism and confluence properties: the crossing-off verdict is
 * independent of pick order (crossing one executable pair never
 * disables another), and the simulator is fully deterministic.
 */

#include <random>

#include <gtest/gtest.h>

#include "core/crossoff.h"
#include "core/program_gen.h"
#include "sim/session.h"
#include "test_support.h"

namespace syscomm {
namespace {

/** Run the engine to exhaustion picking pairs with an RNG. */
bool
randomOrderVerdict(const Program& p, const CrossOffOptions& options,
                   std::uint64_t seed)
{
    CrossOffEngine engine(p, options);
    std::mt19937_64 rng(seed);
    while (!engine.done()) {
        auto pairs = engine.executablePairs();
        if (pairs.empty())
            return false;
        std::uniform_int_distribution<std::size_t> pick(0,
                                                        pairs.size() - 1);
        engine.crossOffPair(pairs[pick(rng)]);
    }
    return true;
}

TEST(Confluence, VerdictIndependentOfPickOrderBasic)
{
    Topology topo = Topology::linearArray(5);
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
        GenOptions gen;
        gen.numMessages = 8;
        gen.maxWords = 4;
        gen.seed = seed;
        Program base = randomDeadlockFreeProgram(topo, gen);
        Program p = perturbProgram(base, 20, seed * 3 + 1);
        bool greedy = crossOff(p).deadlockFree;
        for (std::uint64_t order = 0; order < 5; ++order) {
            EXPECT_EQ(randomOrderVerdict(p, {}, order), greedy)
                << "seed " << seed << " order " << order;
        }
    }
}

TEST(Confluence, VerdictIndependentOfPickOrderLookahead)
{
    Topology topo = Topology::linearArray(4);
    CrossOffOptions options;
    options.lookahead = true;
    options.skip_bound = uniformSkipBound(2);
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
        GenOptions gen;
        gen.numMessages = 6;
        gen.maxWords = 3;
        gen.seed = seed + 500;
        Program base = randomDeadlockFreeProgram(topo, gen);
        Program p = perturbProgram(base, 15, seed * 7 + 2);
        bool greedy = crossOff(p, options).deadlockFree;
        for (std::uint64_t order = 0; order < 5; ++order) {
            EXPECT_EQ(randomOrderVerdict(p, options, order), greedy)
                << "seed " << seed << " order " << order;
        }
    }
}

TEST(Confluence, PairCountIsInvariant)
{
    // Deadlock-free runs always cross exactly one pair per word.
    Topology topo = Topology::linearArray(4);
    GenOptions gen;
    gen.numMessages = 8;
    gen.seed = 77;
    Program p = randomDeadlockFreeProgram(topo, gen);
    CrossOffResult r = crossOff(p);
    ASSERT_TRUE(r.deadlockFree);
    std::int64_t words = 0;
    for (MessageId m = 0; m < p.numMessages(); ++m)
        words += p.messageLength(m);
    EXPECT_EQ(static_cast<std::int64_t>(r.sequence.size()), words);
}

TEST(Determinism, IdenticalRunsProduceIdenticalResults)
{
    Topology topo = Topology::linearArray(5);
    GenOptions gen;
    gen.numMessages = 10;
    gen.maxWords = 4;
    gen.seed = 4242;
    Program p = randomDeadlockFreeProgram(topo, gen);
    MachineSpec spec;
    spec.topo = topo;
    spec.queuesPerLink = 2;

    sim::RunLog aLog(p);
    sim::RunLog bLog(p);
    sim::RunResult a = sim::SimSession(p, spec).run(observedBy(aLog));
    sim::RunResult b = sim::SimSession(p, spec).run(observedBy(bLog));
    ASSERT_EQ(a.status, b.status);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.stats.wordsForwarded, b.stats.wordsForwarded);
    ASSERT_EQ(aLog.events.size(), bLog.events.size());
    for (std::size_t i = 0; i < aLog.events.size(); ++i) {
        EXPECT_EQ(aLog.events[i].cycle, bLog.events[i].cycle);
        EXPECT_EQ(aLog.events[i].msg, bLog.events[i].msg);
        EXPECT_EQ(aLog.events[i].queueId, bLog.events[i].queueId);
    }
}

TEST(Determinism, RandomPolicyDeterministicUnderSeed)
{
    Program p(2);
    MessageId a = p.declareMessage("A", 0, 1);
    MessageId b = p.declareMessage("B", 0, 1);
    for (int i = 0; i < 4; ++i) {
        p.write(0, a);
        p.write(0, b);
        p.read(1, a);
        p.read(1, b);
    }
    MachineSpec spec;
    spec.topo = Topology::linearArray(2);
    spec.queuesPerLink = 2;
    sim::RunRequest request;
    request.policy = sim::PolicyKind::kRandom;
    request.seed = 99;
    sim::RunLog log1(p);
    sim::RunLog log2(p);
    sim::RunResult r1 = sim::SimSession(p, spec).run(observedBy(log1, request));
    sim::RunResult r2 = sim::SimSession(p, spec).run(observedBy(log2, request));
    EXPECT_EQ(r1.status, r2.status);
    EXPECT_EQ(r1.cycles, r2.cycles);
    expectSameLog(log1, log2, "random policy, seed 99");
}

} // namespace
} // namespace syscomm
