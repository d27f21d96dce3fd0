/**
 * @file
 * Classification/run-time equivalence: on a two-cell machine with a
 * dedicated capacity-c queue per message, the lookahead crossing-off
 * procedure with bound c accepts a program **iff** the simulator runs
 * it to completion. This is the tightest empirical statement of the
 * section 8 correspondence between rule R2 and physical buffering.
 */

#include <algorithm>
#include <random>

#include <gtest/gtest.h>

#include "core/crossoff.h"
#include "sim/session.h"
#include "test_support.h"

namespace syscomm {
namespace {

/**
 * A random two-cell program: each message's words appear in order,
 * but the per-cell interleaving across messages is fully shuffled —
 * deadlocks are common.
 */
Program
randomTwoCellProgram(int num_messages, int max_words, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> words_dist(1, max_words);
    std::uniform_int_distribution<int> dir_dist(0, 1);

    Program p(2);
    std::vector<int> words;
    for (int m = 0; m < num_messages; ++m) {
        CellId sender = dir_dist(rng);
        p.declareMessage("M" + std::to_string(m), sender, 1 - sender);
        words.push_back(words_dist(rng));
    }
    // Shuffle each cell's op sequence independently.
    for (CellId cell = 0; cell < 2; ++cell) {
        std::vector<MessageId> tokens;
        for (MessageId m = 0; m < num_messages; ++m) {
            for (int w = 0; w < words[m]; ++w)
                tokens.push_back(m);
        }
        std::shuffle(tokens.begin(), tokens.end(), rng);
        for (MessageId m : tokens) {
            if (p.message(m).sender == cell)
                p.write(cell, m);
            else
                p.read(cell, m);
        }
    }
    return p;
}

class Equivalence : public ::testing::TestWithParam<int>
{};

TEST_P(Equivalence, LookaheadBoundMatchesQueueCapacity)
{
    int capacity = GetParam();
    int accepted = 0, rejected = 0;
    for (std::uint64_t seed = 0; seed < 120; ++seed) {
        Program p = randomTwoCellProgram(4, 3, seed * 11 + capacity);
        ASSERT_TRUE(p.valid());

        CrossOffOptions options;
        options.lookahead = true;
        options.skip_bound = uniformSkipBound(capacity);
        bool classified_free = crossOff(p, options).deadlockFree;

        MachineSpec spec;
        spec.topo = Topology::linearArray(2);
        spec.queuesPerLink = p.numMessages(); // dedicated queues
        spec.queueCapacity = capacity;
        sim::RunRequest request;
        request.policy = sim::PolicyKind::kStatic;
        sim::RunResult r = sim::SimSession(p, spec).run(request);
        bool completed = r.status == sim::RunStatus::kCompleted;

        EXPECT_EQ(classified_free, completed)
            << "capacity " << capacity << " seed " << seed << "\n"
            << (completed ? "" : r.deadlock.render(p));
        (classified_free ? accepted : rejected)++;
    }
    // The sweep must exercise both verdicts to be meaningful.
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(Capacities, Equivalence,
                         ::testing::Values(1, 2, 3, 5),
                         [](const auto& info) {
                             return "cap" + std::to_string(info.param);
                         });

/**
 * Multi-hop variant: random programs over a 4-cell line with shuffled
 * per-cell interleavings; the R2 bound is hops * capacity per message
 * (routeCapacityBound), queues are dedicated (static policy).
 */
Program
randomLineProgram(int cells, int num_messages, int max_words,
                  std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> words_dist(1, max_words);
    std::uniform_int_distribution<CellId> cell_dist(0, cells - 1);

    Program p(cells);
    std::vector<int> words;
    for (int m = 0; m < num_messages; ++m) {
        CellId sender = cell_dist(rng);
        CellId receiver = cell_dist(rng);
        while (receiver == sender)
            receiver = cell_dist(rng);
        p.declareMessage("M" + std::to_string(m), sender, receiver);
        words.push_back(words_dist(rng));
    }
    for (CellId cell = 0; cell < cells; ++cell) {
        std::vector<std::pair<MessageId, bool>> tokens;
        for (MessageId m = 0; m < num_messages; ++m) {
            if (p.message(m).sender == cell) {
                for (int w = 0; w < words[m]; ++w)
                    tokens.push_back({m, true});
            } else if (p.message(m).receiver == cell) {
                for (int w = 0; w < words[m]; ++w)
                    tokens.push_back({m, false});
            }
        }
        std::shuffle(tokens.begin(), tokens.end(), rng);
        for (auto [m, is_write] : tokens) {
            if (is_write)
                p.write(cell, m);
            else
                p.read(cell, m);
        }
    }
    return p;
}

TEST(Equivalence, MultiHopRouteCapacityBoundMatchesRuntime)
{
    Topology topo = Topology::linearArray(4);
    int agree_free = 0, agree_deadlocked = 0;
    for (std::uint64_t seed = 0; seed < 150; ++seed) {
        for (int capacity : {1, 2}) {
            Program p = randomLineProgram(4, 4, 3, seed * 13 + 1);

            auto analysis = CompetingAnalysis::analyze(p, topo);
            CrossOffOptions options;
            options.lookahead = true;
            options.skip_bound = routeCapacityBound(analysis, capacity);
            bool classified_free = crossOff(p, options).deadlockFree;

            MachineSpec spec;
            spec.topo = topo;
            spec.queuesPerLink = std::max(1, analysis.maxOnLink());
            spec.queueCapacity = capacity;
            sim::RunRequest request;
            request.policy = sim::PolicyKind::kStatic;
            sim::RunResult r = sim::SimSession(p, spec).run(request);
            bool completed = r.status == sim::RunStatus::kCompleted;

            EXPECT_EQ(classified_free, completed)
                << "seed " << seed << " capacity " << capacity;
            (classified_free ? agree_free : agree_deadlocked)++;
        }
    }
    EXPECT_GT(agree_free, 0);
    EXPECT_GT(agree_deadlocked, 0);
}

TEST(Equivalence, BiggerBoundNeverRejectsMore)
{
    // Monotonicity of the lookahead classification in the bound.
    for (std::uint64_t seed = 0; seed < 60; ++seed) {
        Program p = randomTwoCellProgram(4, 3, seed + 9000);
        bool prev = false;
        for (int bound : {0, 1, 2, 4, 8}) {
            CrossOffOptions options;
            options.lookahead = true;
            options.skip_bound = uniformSkipBound(bound);
            bool free = crossOff(p, options).deadlockFree;
            if (prev) {
                EXPECT_TRUE(free) << "seed " << seed << " bound " << bound;
            }
            prev = free;
        }
    }
}

TEST(Equivalence, BasicAcceptanceImpliesEveryCapacityCompletes)
{
    // A basically deadlock-free program completes at any capacity.
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        Program p = randomTwoCellProgram(4, 3, seed + 777);
        if (!isDeadlockFree(p))
            continue;
        MachineSpec spec;
        spec.topo = Topology::linearArray(2);
        spec.queuesPerLink = p.numMessages();
        spec.queueCapacity = 1;
        sim::RunRequest request;
        request.policy = sim::PolicyKind::kStatic;
        sim::RunResult r = sim::SimSession(p, spec).run(request);
        EXPECT_EQ(r.status, sim::RunStatus::kCompleted) << seed;
    }
}

} // namespace
} // namespace syscomm
