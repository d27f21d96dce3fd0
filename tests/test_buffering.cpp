/**
 * @file
 * Queue buffering and the iWarp queue extension (paper section 8):
 * capacity widens the deadlock-free class, run-time behavior matches
 * the lookahead classification, and the extension trades capacity for
 * access latency.
 */

#include <gtest/gtest.h>

#include "algos/paper_figures.h"
#include "core/crossoff.h"
#include "sim/session.h"

namespace syscomm {
namespace {

using sim::RunStatus;

/** Sender front-loads k words of A before B; receiver wants B first. */
Program
frontLoaded(int k)
{
    Program p(2);
    MessageId a = p.declareMessage("A", 0, 1);
    MessageId b = p.declareMessage("B", 0, 1);
    for (int i = 0; i < k; ++i)
        p.write(0, a);
    p.write(0, b);
    p.read(1, b);
    for (int i = 0; i < k; ++i)
        p.read(1, a);
    return p;
}

MachineSpec
machine(int queues, int capacity, int ext = 0, int penalty = 0)
{
    MachineSpec s;
    s.topo = Topology::linearArray(2);
    s.queuesPerLink = queues;
    s.queueCapacity = capacity;
    s.extensionCapacity = ext;
    s.extensionPenalty = penalty;
    return s;
}

class BufferSweep : public ::testing::TestWithParam<int>
{};

TEST_P(BufferSweep, RuntimeMatchesLookaheadClassification)
{
    // For the front-loaded program with k skipped writes, lookahead
    // under bound c accepts iff c >= k, and the simulator with
    // capacity-c queues completes iff c >= k.
    int k = GetParam();
    Program p = frontLoaded(k);
    for (int capacity : {1, k - 1, k, k + 2}) {
        if (capacity < 1)
            continue;
        bool accepted =
            isDeadlockFreeWithLookahead(p, uniformSkipBound(capacity));
        sim::RunResult r = sim::SimSession(p, machine(2, capacity)).run();
        bool completed = r.status == RunStatus::kCompleted;
        EXPECT_EQ(accepted, capacity >= k);
        EXPECT_EQ(completed, accepted)
            << "k=" << k << " capacity=" << capacity;
    }
}

INSTANTIATE_TEST_SUITE_P(FrontLoads, BufferSweep,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(Buffering, ExtensionCapacityCountsTowardBound)
{
    // capacity 1 + extension 2 behaves like capacity 3 for
    // classification and completion.
    Program p = frontLoaded(3);
    EXPECT_EQ(sim::SimSession(p, machine(2, 1)).run().status,
              RunStatus::kDeadlocked);
    sim::RunResult r = sim::SimSession(p, machine(2, 1, 2, 4)).run();
    EXPECT_EQ(r.status, RunStatus::kCompleted) << r.statusStr();
    EXPECT_GT(r.stats.extendedWords, 0);
}

TEST(Buffering, ExtensionPenaltySlowsCompletion)
{
    Program p = frontLoaded(4);
    sim::RunResult cheap = sim::SimSession(p, machine(2, 1, 3, 0)).run();
    sim::RunResult costly = sim::SimSession(p, machine(2, 1, 3, 8)).run();
    ASSERT_EQ(cheap.status, RunStatus::kCompleted);
    ASSERT_EQ(costly.status, RunStatus::kCompleted);
    EXPECT_GT(costly.cycles, cheap.cycles);
}

TEST(Buffering, PureHardwareBeatsExtensionAtEqualCapacity)
{
    Program p = frontLoaded(4);
    sim::RunResult hw = sim::SimSession(p, machine(2, 4, 0, 0)).run();
    sim::RunResult ext = sim::SimSession(p, machine(2, 1, 3, 6)).run();
    ASSERT_EQ(hw.status, RunStatus::kCompleted);
    ASSERT_EQ(ext.status, RunStatus::kCompleted);
    EXPECT_LE(hw.cycles, ext.cycles);
}

TEST(Buffering, LookaheadAnalysisUsesTotalCapacity)
{
    Program p = algos::fig5P1(); // needs 2 words of buffering
    MachineSpec m1 = machine(2, 1, 0);
    m1.topo = algos::fig5Topology();
    MachineSpec m2 = machine(2, 1, 1);
    m2.topo = m1.topo;

    const auto compiled = sim::CompiledProgram::compile(p, m1.topo);
    EXPECT_EQ(compiled->analysis(m1)->verdict, LintVerdict::kDeadlock);
    EXPECT_NE(compiled->analysis(m2)->verdict, LintVerdict::kDeadlock);
}

TEST(Buffering, DeeperQueuesNeverBreakCompletion)
{
    // Monotonicity: anything that completes at capacity c completes at
    // capacity c' > c.
    Program p = algos::fig7Program();
    MachineSpec m = machine(1, 1);
    m.topo = algos::fig7Topology();
    Cycle prev_cycles = 0;
    for (int capacity : {1, 2, 4, 8}) {
        m.queueCapacity = capacity;
        sim::RunResult r = sim::SimSession(p, m).run();
        ASSERT_EQ(r.status, RunStatus::kCompleted) << capacity;
        if (prev_cycles) {
            EXPECT_LE(r.cycles, prev_cycles) << capacity;
        }
        prev_cycles = r.cycles;
    }
}

} // namespace
} // namespace syscomm
