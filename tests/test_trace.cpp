/**
 * @file
 * Post-run tracing: the RunLog record, queue timelines, message
 * latencies, release events, and the unlimited-resources baseline.
 */

#include <gtest/gtest.h>

#include "algos/fir.h"
#include "algos/paper_figures.h"
#include "sim/trace.h"
#include "test_support.h"

namespace syscomm {
namespace {

using sim::RunStatus;

MachineSpec
fig7Machine(int queues = 1)
{
    MachineSpec spec;
    spec.topo = algos::fig7Topology();
    spec.queuesPerLink = queues;
    return spec;
}

TEST(Trace, ReleasesMatchAssignments)
{
    Program p = algos::fig7Program();
    sim::RunLog log(p);
    sim::RunResult r =
        sim::SimSession(p, fig7Machine()).run(observedBy(log));
    ASSERT_EQ(r.status, RunStatus::kCompleted);
    // Every assignment is eventually released on completion.
    EXPECT_EQ(log.events.size(), log.releases.size());
    for (const auto& rel : log.releases)
        EXPECT_GE(rel.cycle, 0);
}

TEST(Trace, TimelineShowsMessagesAndFreeTime)
{
    Program p = algos::fig7Program();
    MachineSpec spec = fig7Machine();
    sim::RunLog log(p);
    sim::RunResult r = sim::SimSession(p, spec).run(observedBy(log));
    ASSERT_EQ(r.status, RunStatus::kCompleted);
    std::string timeline = sim::renderQueueTimeline(log, r.cycles, p, spec);
    // All three links appear.
    EXPECT_NE(timeline.find("link 0-1 q0:"), std::string::npos);
    EXPECT_NE(timeline.find("link 2-3 q0:"), std::string::npos);
    // Messages show as letters; C and B both use the 2-3 link queue.
    std::string last_row =
        timeline.substr(timeline.find("link 2-3 q0:"));
    EXPECT_NE(last_row.find('C'), std::string::npos);
    EXPECT_NE(last_row.find('B'), std::string::npos);
}

TEST(Trace, TimelineWidthIsBounded)
{
    algos::FirSpec fir = algos::FirSpec::random(3, 64, 5);
    Program p = algos::makeFirProgram(fir);
    MachineSpec spec;
    spec.topo = algos::firTopology(3);
    spec.queuesPerLink = 2;
    sim::RunLog log(p);
    sim::RunResult r = sim::SimSession(p, spec).run(observedBy(log));
    ASSERT_EQ(r.status, RunStatus::kCompleted);
    std::string timeline =
        sim::renderQueueTimeline(log, r.cycles, p, spec, 40);
    for (std::size_t pos = timeline.find('\n');
         pos != std::string::npos;) {
        std::size_t next = timeline.find('\n', pos + 1);
        if (next == std::string::npos)
            break;
        EXPECT_LE(next - pos, 60u); // row header + <= 40 columns
        pos = next;
    }
}

TEST(Trace, MessageLatenciesAreOrdered)
{
    Program p = algos::fig7Program();
    sim::RunLog log(p);
    sim::RunResult r =
        sim::SimSession(p, fig7Machine()).run(observedBy(log));
    ASSERT_EQ(r.status, RunStatus::kCompleted);
    for (MessageId m = 0; m < p.numMessages(); ++m) {
        auto [sent, received] = log.msgTiming[m];
        EXPECT_GE(sent, 0) << p.message(m).name;
        EXPECT_GE(received, sent) << p.message(m).name;
    }
    // A (C2->C3, consumed first) finishes before B (written after).
    auto a = *p.messageByName("A");
    auto b = *p.messageByName("B");
    EXPECT_LT(log.msgTiming[a].second, log.msgTiming[b].second);
    std::string table = sim::renderMessageLatencies(log, p);
    EXPECT_NE(table.find("A"), std::string::npos);
    EXPECT_NE(table.find("first-sent"), std::string::npos);
}

TEST(Trace, NeverSentMessagesReported)
{
    Program p = algos::fig7Program();
    sim::RunLog log(p);
    sim::RunRequest request = observedBy(log);
    request.policy = sim::PolicyKind::kFcfs;
    sim::RunResult r = sim::SimSession(p, fig7Machine()).run(request);
    ASSERT_EQ(r.status, RunStatus::kDeadlocked);
    // C never gets its last queue under FCFS; B's words never reach C4.
    auto b = *p.messageByName("B");
    EXPECT_EQ(log.msgTiming[b].second, -1);
    std::string table = sim::renderMessageLatencies(log, p);
    EXPECT_NE(table.find("\t"), std::string::npos);
}

TEST(Trace, IdealCyclesLowerBoundsConstrainedRuns)
{
    algos::FirSpec fir = algos::FirSpec::random(4, 16, 9);
    Program p = algos::makeFirProgram(fir);
    Topology topo = algos::firTopology(4);
    Cycle ideal = sim::idealCycles(p, topo);
    ASSERT_GT(ideal, 0);

    MachineSpec spec;
    spec.topo = topo;
    spec.queuesPerLink = 2;
    spec.queueCapacity = 1;
    sim::RunResult r = sim::SimSession(p, spec).run();
    ASSERT_EQ(r.status, RunStatus::kCompleted);
    EXPECT_LE(ideal, r.cycles);
}

TEST(Trace, IdealCyclesOfDeadlockedProgramIsNegative)
{
    // P3 cannot complete even with unlimited queues.
    Cycle ideal =
        sim::idealCycles(algos::fig5P3(), algos::fig5Topology());
    EXPECT_EQ(ideal, -1);
}

} // namespace
} // namespace syscomm
