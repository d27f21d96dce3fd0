/**
 * @file
 * Statistics accounting invariants of the simulator.
 */

#include <gtest/gtest.h>

#include "algos/fir.h"
#include "algos/paper_figures.h"
#include "core/program_gen.h"
#include "sim/session.h"

namespace syscomm {
namespace {

using sim::RunStatus;

TEST(Stats, WordAccountingOnFir)
{
    algos::FirSpec fir = algos::FirSpec::random(4, 8, 1);
    Program p = algos::makeFirProgram(fir);
    MachineSpec spec;
    spec.topo = algos::firTopology(4);
    spec.queuesPerLink = 2;
    sim::RunResult r = sim::SimSession(p, spec).run();
    ASSERT_EQ(r.status, RunStatus::kCompleted);

    std::int64_t words = 0;
    for (MessageId m = 0; m < p.numMessages(); ++m)
        words += p.messageLength(m);
    EXPECT_EQ(r.stats.wordsDelivered, words);
    // All FIR messages are single-hop: nothing is forwarded.
    EXPECT_EQ(r.stats.wordsForwarded, 0);
    // Every R/W/compute executed exactly once.
    EXPECT_EQ(r.stats.opsExecuted, p.totalOps());
    // One queue assignment and one release per message (single hop).
    EXPECT_EQ(r.stats.assignments, p.numMessages());
    EXPECT_EQ(r.stats.releases, p.numMessages());
}

TEST(Stats, ForwardingAccountingMultiHop)
{
    Program p(4);
    MessageId m = p.declareMessage("M", 0, 3);
    for (int i = 0; i < 5; ++i)
        p.write(0, m);
    for (int i = 0; i < 5; ++i)
        p.read(3, m);
    MachineSpec spec;
    spec.topo = Topology::linearArray(4);
    spec.queuesPerLink = 1;
    sim::RunResult r = sim::SimSession(p, spec).run();
    ASSERT_EQ(r.status, RunStatus::kCompleted);
    // 5 words over 3 hops: 2 internal moves each.
    EXPECT_EQ(r.stats.wordsForwarded, 10);
    EXPECT_EQ(r.stats.assignments, 3);
    EXPECT_EQ(r.stats.releases, 3);
    EXPECT_EQ(r.stats.requests, 3); // one per hop
}

TEST(Stats, PerCellBlockedSumsToTotal)
{
    Program p = algos::fig7Program();
    MachineSpec spec;
    spec.topo = algos::fig7Topology();
    spec.queuesPerLink = 1;
    sim::RunResult r = sim::SimSession(p, spec).run();
    ASSERT_EQ(r.status, RunStatus::kCompleted);
    Cycle sum = 0;
    for (Cycle c : r.stats.perCellBlocked)
        sum += c;
    EXPECT_EQ(sum, r.stats.cellBlockedCycles);
}

TEST(Stats, QueueBusyNeverExceedsCyclesTimesQueues)
{
    Topology topo = Topology::linearArray(4);
    GenOptions gen;
    gen.numMessages = 8;
    gen.seed = 17;
    gen.interleave = 0.0; // no related classes: 2 queues suffice
    Program p = randomDeadlockFreeProgram(topo, gen);
    MachineSpec spec;
    spec.topo = topo;
    spec.queuesPerLink = 2;
    sim::RunResult r = sim::SimSession(p, spec).run();
    ASSERT_EQ(r.status, RunStatus::kCompleted);
    EXPECT_LE(r.stats.queueBusyCycles,
              r.cycles * topo.numLinks() * spec.queuesPerLink);
    EXPECT_GT(r.stats.queueBusyCycles, 0);
    EXPECT_GE(r.stats.avgQueueOccupancy(), 0.0);
    EXPECT_LE(r.stats.avgQueueOccupancy(), spec.queueCapacity);
}

TEST(Stats, RequestWaitAccumulates)
{
    // Fig. 7 at one queue/link: C must wait for A's queue on link 1-2
    // and B must wait for C on link 2-3.
    Program p = algos::fig7Program();
    MachineSpec spec;
    spec.topo = algos::fig7Topology();
    spec.queuesPerLink = 1;
    sim::RunResult r = sim::SimSession(p, spec).run();
    ASSERT_EQ(r.status, RunStatus::kCompleted);
    EXPECT_GT(r.stats.requestWaitCycles, 0);
    EXPECT_GT(r.stats.avgRequestWait(), 0.0);
}

TEST(Stats, SummaryMentionsKeyCounters)
{
    Program p = algos::fig2FirProgram();
    MachineSpec spec;
    spec.topo = algos::fig2Topology();
    spec.queuesPerLink = 2;
    sim::RunResult r = sim::SimSession(p, spec).run();
    ASSERT_EQ(r.status, RunStatus::kCompleted);
    std::string s = r.stats.summary();
    EXPECT_NE(s.find("cycles:"), std::string::npos);
    EXPECT_NE(s.find("words delivered:"), std::string::npos);
    EXPECT_NE(s.find("queue assignments:"), std::string::npos);
}

TEST(Stats, MaxCyclesStatusWhenBudgetTooSmall)
{
    algos::FirSpec fir = algos::FirSpec::random(3, 16, 2);
    Program p = algos::makeFirProgram(fir);
    MachineSpec spec;
    spec.topo = algos::firTopology(3);
    spec.queuesPerLink = 2;
    sim::RunRequest request;
    request.maxCycles = 10; // far too few
    sim::RunResult r = sim::SimSession(p, spec).run(request);
    EXPECT_EQ(r.status, RunStatus::kMaxCycles);
    EXPECT_EQ(r.cycles, 10);
}

} // namespace
} // namespace syscomm
