/**
 * @file
 * Simulator fundamentals: single transfers, multi-hop forwarding,
 * compute values, blocking, and deadlock detection on the Fig. 5
 * programs.
 */

#include <gtest/gtest.h>

#include "algos/paper_figures.h"
#include "sim/session.h"
#include "test_support.h"

namespace syscomm {
namespace {

using sim::RunLog;
using sim::RunResult;
using sim::RunStatus;
using sim::SimSession;

MachineSpec
spec(Topology topo, int queues = 2, int capacity = 1)
{
    MachineSpec s;
    s.topo = std::move(topo);
    s.queuesPerLink = queues;
    s.queueCapacity = capacity;
    return s;
}

TEST(SimBasic, SingleWordAdjacent)
{
    Program p(2);
    MessageId a = p.declareMessage("A", 0, 1);
    p.compute(0, [](CellContext& ctx) { ctx.setNextWrite(42.0); });
    p.write(0, a);
    p.read(1, a);
    RunLog log(p);
    RunResult r =
        SimSession(p, spec(Topology::linearArray(2))).run(observedBy(log));
    ASSERT_EQ(r.status, RunStatus::kCompleted) << r.error;
    ASSERT_EQ(log.received[a].size(), 1u);
    EXPECT_DOUBLE_EQ(log.received[a][0], 42.0);
    EXPECT_EQ(r.stats.wordsDelivered, 1);
    EXPECT_EQ(r.stats.assignments, 1);
    EXPECT_EQ(r.stats.releases, 1);
}

TEST(SimBasic, MultiHopForwarding)
{
    Program p(5);
    MessageId a = p.declareMessage("A", 0, 4);
    for (int i = 0; i < 3; ++i) {
        double v = 10.0 + i;
        p.compute(0, [v](CellContext& ctx) { ctx.setNextWrite(v); });
        p.write(0, a);
    }
    for (int i = 0; i < 3; ++i)
        p.read(4, a);
    RunLog log(p);
    RunResult r =
        SimSession(p, spec(Topology::linearArray(5))).run(observedBy(log));
    ASSERT_EQ(r.status, RunStatus::kCompleted);
    EXPECT_EQ(log.received[a], (std::vector<double>{10.0, 11.0, 12.0}));
    // Three words crossed three intermediate hops each.
    EXPECT_EQ(r.stats.wordsForwarded, 9);
    // Four links were assigned once each.
    EXPECT_EQ(r.stats.assignments, 4);
    EXPECT_EQ(r.stats.releases, 4);
}

TEST(SimBasic, PipelineLatencyScalesWithHops)
{
    // One word over h hops takes ~h+1 cycles plus assignment startup.
    for (int cells : {2, 4, 8}) {
        Program p(cells);
        MessageId a = p.declareMessage("A", 0, cells - 1);
        p.write(0, a);
        p.read(cells - 1, a);
        RunResult r = SimSession(p, spec(Topology::linearArray(cells))).run();
        ASSERT_EQ(r.status, RunStatus::kCompleted);
        EXPECT_GE(r.cycles, cells - 1);
        EXPECT_LE(r.cycles, 3 * cells + 4);
    }
}

TEST(SimBasic, PassThroughForwardsLastRead)
{
    // A bare R/W pair forwards the read value (no compute needed).
    Program p(3);
    MessageId a = p.declareMessage("A", 0, 1);
    MessageId b = p.declareMessage("B", 1, 2);
    p.compute(0, [](CellContext& ctx) { ctx.setNextWrite(7.5); });
    p.write(0, a);
    p.read(1, a);
    p.write(1, b);
    p.read(2, b);
    RunLog log(p);
    RunResult r =
        SimSession(p, spec(Topology::linearArray(3))).run(observedBy(log));
    ASSERT_EQ(r.status, RunStatus::kCompleted);
    EXPECT_DOUBLE_EQ(log.received[b][0], 7.5);
}

TEST(SimBasic, ComputeOpsRunInOrder)
{
    Program p(2);
    MessageId a = p.declareMessage("A", 0, 1);
    p.compute(0, [](CellContext& ctx) { ctx.local(0) = 3.0; });
    p.compute(0, [](CellContext& ctx) { ctx.local(0) *= 4.0; });
    p.compute(0, [](CellContext& ctx) {
        ctx.setNextWrite(ctx.local(0) + 1.0);
    });
    p.write(0, a);
    p.read(1, a);
    RunLog log(p);
    RunResult r =
        SimSession(p, spec(Topology::linearArray(2))).run(observedBy(log));
    ASSERT_EQ(r.status, RunStatus::kCompleted);
    EXPECT_DOUBLE_EQ(log.received[a][0], 13.0);
    EXPECT_EQ(r.stats.computeOps, 3);
}

TEST(SimBasic, Fig5P1AndP3DeadlockAtRuntime)
{
    // Section 3.2 assumes pure latches (zero buffering); our queues
    // hold at least one word, which is exactly the lookahead bound 1.
    // P1 needs two words of buffering, so it still deadlocks at
    // capacity 1; P3 deadlocks at any capacity.
    for (Program p : {algos::fig5P1(), algos::fig5P3()}) {
        RunResult r = SimSession(p, spec(algos::fig5Topology(), 2, 1)).run();
        EXPECT_EQ(r.status, RunStatus::kDeadlocked) << r.statusStr();
        EXPECT_TRUE(r.deadlock.deadlocked);
        EXPECT_FALSE(r.deadlock.render(p).empty());
    }
}

TEST(SimBasic, Fig5P2CompletesWithOneWordBuffer)
{
    // P2 (facing writes) needs exactly one word of buffering per
    // queue — which matches its lookahead classification with bound 1.
    Program p = algos::fig5P2();
    RunResult r = SimSession(p, spec(algos::fig5Topology(), 2, 1)).run();
    EXPECT_EQ(r.status, RunStatus::kCompleted) << r.statusStr();
}

TEST(SimBasic, P1CompletesWithBufferTwo)
{
    // Section 8's example: two-word queues resolve P1 (A and B on
    // separate queues).
    Program p = algos::fig5P1();
    RunResult r = SimSession(p, spec(algos::fig5Topology(), 2, 2)).run();
    EXPECT_EQ(r.status, RunStatus::kCompleted) << r.statusStr();
}

TEST(SimBasic, P3NeverCompletes)
{
    // Cyclic read-first: no buffer size helps.
    Program p = algos::fig5P3();
    RunResult r = SimSession(p, spec(algos::fig5Topology(), 4, 16)).run();
    EXPECT_EQ(r.status, RunStatus::kDeadlocked);
}

TEST(SimBasic, InvalidProgramIsConfigError)
{
    Program p(2);
    MessageId a = p.declareMessage("A", 0, 1);
    p.write(0, a); // no read
    RunResult r = SimSession(p, spec(Topology::linearArray(2))).run();
    EXPECT_EQ(r.status, RunStatus::kConfigError);
    EXPECT_FALSE(r.error.empty());
}

TEST(SimBasic, BlockedCyclesAreCounted)
{
    // Receiver waits for the word to travel 3 hops: it accumulates
    // blocked cycles.
    Program p(4);
    MessageId a = p.declareMessage("A", 0, 3);
    p.write(0, a);
    p.read(3, a);
    RunResult r = SimSession(p, spec(Topology::linearArray(4))).run();
    ASSERT_EQ(r.status, RunStatus::kCompleted);
    EXPECT_GT(r.stats.cellBlockedCycles, 0);
    EXPECT_GT(r.stats.perCellBlocked[3], 0);
}

TEST(SimBasic, ReceivedValuesInOrder)
{
    Program p(2);
    MessageId a = p.declareMessage("A", 0, 1);
    for (int i = 0; i < 8; ++i) {
        double v = i * 2.0;
        p.compute(0, [v](CellContext& ctx) { ctx.setNextWrite(v); });
        p.write(0, a);
    }
    for (int i = 0; i < 8; ++i)
        p.read(1, a);
    RunLog log(p);
    RunResult r =
        SimSession(p, spec(Topology::linearArray(2))).run(observedBy(log));
    ASSERT_EQ(r.status, RunStatus::kCompleted);
    ASSERT_EQ(log.received[a].size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_DOUBLE_EQ(log.received[a][i], i * 2.0);
}

TEST(SimBasic, QueueReusedAcrossSequentialMessages)
{
    // Section 2.3 / Fig. 3: "a queue in the sequence can be assigned
    // to another message only after the last word in the current
    // message has passed the queue". With one queue per link, two
    // sequential messages must reuse the same hardware queue.
    Program p(2);
    MessageId a = p.declareMessage("A", 0, 1);
    MessageId b = p.declareMessage("B", 0, 1);
    for (int i = 0; i < 3; ++i)
        p.write(0, a);
    for (int i = 0; i < 3; ++i)
        p.read(1, a);
    p.write(0, b);
    p.read(1, b);
    RunLog log(p);
    RunResult r =
        SimSession(p, spec(Topology::linearArray(2), 1)).run(observedBy(log));
    ASSERT_EQ(r.status, RunStatus::kCompleted);
    ASSERT_EQ(log.events.size(), 2u);
    EXPECT_EQ(log.events[0].msg, a);
    EXPECT_EQ(log.events[1].msg, b);
    EXPECT_EQ(log.events[0].queueId, log.events[1].queueId);
    // B's assignment comes only after A's release.
    ASSERT_EQ(log.releases.size(), 2u);
    EXPECT_GE(log.events[1].cycle, log.releases[0].cycle);
}

TEST(SimBasic, QueueDirectionResetOnReassignment)
{
    // "At the time when a queue is being assigned to a new message,
    // the direction of the queue can be reset": a request-reply pair
    // sharing one queue flips its direction.
    Program p(2);
    MessageId req = p.declareMessage("Q", 0, 1);
    MessageId rep = p.declareMessage("R", 1, 0);
    p.write(0, req);
    p.read(0, rep);
    p.read(1, req);
    p.write(1, rep);
    RunLog log(p);
    RunResult r =
        SimSession(p, spec(Topology::linearArray(2), 1)).run(observedBy(log));
    ASSERT_EQ(r.status, RunStatus::kCompleted);
    ASSERT_EQ(log.events.size(), 2u);
    EXPECT_EQ(log.events[0].queueId, log.events[1].queueId);
    EXPECT_NE(log.events[0].dir, log.events[1].dir);
}

TEST(SimBasic, RunsOnTorusTopology)
{
    Topology topo = Topology::torus(3, 3);
    Program p(9);
    MessageId m = p.declareMessage("M", 0, 8);
    for (int i = 0; i < 4; ++i)
        p.write(0, m);
    for (int i = 0; i < 4; ++i)
        p.read(8, m);
    MachineSpec s;
    s.topo = topo;
    s.queuesPerLink = 1;
    RunLog log(p);
    RunResult r = SimSession(p, s).run(observedBy(log));
    ASSERT_EQ(r.status, RunStatus::kCompleted);
    EXPECT_EQ(log.received[m].size(), 4u);
}

TEST(SimBasic, LabelsAutoComputedWhenEmpty)
{
    Program p = algos::fig7Program();
    RunResult r = SimSession(p, spec(algos::fig7Topology(), 1)).run();
    ASSERT_EQ(r.status, RunStatus::kCompleted);
    ASSERT_EQ(r.labelsUsed.size(), 3u);
    EXPECT_EQ(r.labelsUsed[*p.messageByName("A")], 1);
    EXPECT_EQ(r.labelsUsed[*p.messageByName("C")], 2);
    EXPECT_EQ(r.labelsUsed[*p.messageByName("B")], 3);
}

} // namespace
} // namespace syscomm
