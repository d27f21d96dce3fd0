/**
 * @file
 * Run-time reproduction of the paper's queue-induced deadlock examples
 * (Figs. 7, 8, 9): the naive FCFS policy deadlocks exactly as the
 * figures describe, and the paper's avoidance procedure completes.
 * The Fig. 5 P3 and Fig. 7 deadlock reports are pinned as text.
 */

#include <gtest/gtest.h>

#include "algos/paper_figures.h"
#include "core/labeling.h"
#include "sim/session.h"
#include "test_support.h"

namespace syscomm {
namespace {

using sim::PolicyKind;
using sim::RunRequest;
using sim::RunResult;
using sim::RunStatus;
using sim::SimSession;

MachineSpec
spec(Topology topo, int queues, int capacity = 1)
{
    MachineSpec s;
    s.topo = std::move(topo);
    s.queuesPerLink = queues;
    s.queueCapacity = capacity;
    return s;
}

RunRequest
withPolicy(PolicyKind kind)
{
    RunRequest request;
    request.policy = kind;
    request.maxCycles = 100000;
    return request;
}

// ---------------------------------------------------------------------
// Fig. 5
// ---------------------------------------------------------------------

TEST(Fig5, P3ReportListsNoIdleLink)
{
    // Reads face reads: both cells block before either writes, so
    // the one link holds two free queues and nothing waits for them.
    // No link is part of the deadlock, and the report lists none.
    Program p = algos::fig5P3();
    RunResult r = SimSession(p, spec(algos::fig5Topology(), 2))
                      .run(withPolicy(PolicyKind::kCompatible));
    EXPECT_EQ(r.status, RunStatus::kDeadlocked) << r.statusStr();
    EXPECT_TRUE(r.deadlock.links.empty());
    EXPECT_EQ(r.deadlock.render(p),
              "DEADLOCK at cycle 1\n"
              "blocked cells:\n"
              "  cell 0 @ op 0 R(B) -- input word not available\n"
              "  cell 1 @ op 0 R(A) -- input word not available\n"
              "links: none\n");
}

// ---------------------------------------------------------------------
// Fig. 7
// ---------------------------------------------------------------------

TEST(Fig7, FcfsDeadlocksWithOneQueue)
{
    Program p = algos::fig7Program();
    RunResult r = SimSession(p, spec(algos::fig7Topology(), 1))
                      .run(withPolicy(PolicyKind::kFcfs));
    EXPECT_EQ(r.status, RunStatus::kDeadlocked) << r.statusStr();
    // The figure's lower half: C4 waits for a queue to read C while B
    // holds the only C3-C4 queue, and C fills the two queues before.
    EXPECT_EQ(r.deadlock.render(p),
              "DEADLOCK at cycle 12\n"
              "blocked cells:\n"
              "  cell 0 @ op 2 W(C) -- output queue full\n"
              "  cell 2 @ op 5 W(B) -- output queue full\n"
              "  cell 3 @ op 0 R(C) -- waiting for queue assignment\n"
              "links:\n"
              "  link 0 (0 -- 1): [C 1/1]\n"
              "  link 1 (1 -- 2): [C 1/1]\n"
              "  link 2 (2 -- 3): [B 1/1]  waiting: C\n");
}

TEST(Fig7, CompatibleCompletesWithOneQueue)
{
    Program p = algos::fig7Program();
    RunResult r = SimSession(p, spec(algos::fig7Topology(), 1))
                      .run(withPolicy(PolicyKind::kCompatible));
    EXPECT_EQ(r.status, RunStatus::kCompleted) << r.statusStr();
}

/** The section 7 audit of @p log against the session's labels. */
sim::AuditReport
auditRun(SimSession& session, const sim::RunLog& log)
{
    return sim::auditAssignments(session.compiled()->program(),
                                 session.compiled()->competing(),
                                 session.labels(), log.events);
}

TEST(Fig7, CompatibleTraceIsAuditClean)
{
    Program p = algos::fig7Program();
    const MachineSpec machine = spec(algos::fig7Topology(), 1);
    SimSession session(p, machine);
    sim::RunLog log(p);
    RunResult r =
        session.run(observedBy(log, withPolicy(PolicyKind::kCompatible)));
    ASSERT_EQ(r.status, RunStatus::kCompleted);
    const sim::AuditReport audit = auditRun(session, log);
    EXPECT_TRUE(audit.compatible) << audit.str(p);
}

TEST(Fig7, FcfsTraceViolatesCompatibility)
{
    // FCFS reads no labels; its trace is audited against the
    // session's section 6 labeling all the same.
    Program p = algos::fig7Program();
    const MachineSpec machine = spec(algos::fig7Topology(), 1);
    SimSession session(p, machine);
    sim::RunLog log(p);
    RunResult r = session.run(observedBy(log, withPolicy(PolicyKind::kFcfs)));
    ASSERT_EQ(r.status, RunStatus::kDeadlocked);
    EXPECT_FALSE(auditRun(session, log).compatible);
}

TEST(Fig7, GraphLabelingAlsoAvoidsTheDeadlock)
{
    // Theorem 1 only needs *some* consistent labeling; the direct
    // constraint-graph scheme works as well as section 6's.
    Program p = algos::fig7Program();
    Labeling labeling = graphLabeling(p);
    ASSERT_TRUE(labeling.success);
    const MachineSpec machine = spec(algos::fig7Topology(), 1);
    SimSession session(p, machine);
    sim::RunLog log(p);
    RunRequest request = observedBy(log, withPolicy(PolicyKind::kCompatible));
    request.labels = labeling.normalized();
    RunResult r = session.run(request);
    EXPECT_EQ(r.status, RunStatus::kCompleted) << r.statusStr();
    EXPECT_TRUE(sim::auditAssignments(p, session.compiled()->competing(),
                                      request.labels, log.events)
                    .compatible);
}

TEST(Fig7, StaticNeedsThreeQueuesOnMiddleLinks)
{
    Program p = algos::fig7Program();
    // Static assignment fails with 1 queue (A and C share C2-C3)...
    RunResult r1 = SimSession(p, spec(algos::fig7Topology(), 1))
                       .run(withPolicy(PolicyKind::kStatic));
    EXPECT_EQ(r1.status, RunStatus::kConfigError);
    // ...and succeeds with 2 (max two messages per link).
    RunResult r2 = SimSession(p, spec(algos::fig7Topology(), 2))
                       .run(withPolicy(PolicyKind::kStatic));
    EXPECT_EQ(r2.status, RunStatus::kCompleted) << r2.error;
}

// ---------------------------------------------------------------------
// Fig. 8 — interleaved reads need separate queues.
// ---------------------------------------------------------------------

TEST(Fig8, FcfsDeadlocksWithOneQueue)
{
    Program p = algos::fig8Program();
    RunResult r = SimSession(p, spec(algos::fig8Topology(), 1))
                      .run(withPolicy(PolicyKind::kFcfs));
    EXPECT_EQ(r.status, RunStatus::kDeadlocked);
}

TEST(Fig8, CompatibleCompletesWithTwoQueues)
{
    // "No deadlock if # queues greater than 1."
    Program p = algos::fig8Program();
    RunResult r = SimSession(p, spec(algos::fig8Topology(), 2))
                      .run(withPolicy(PolicyKind::kCompatible));
    EXPECT_EQ(r.status, RunStatus::kCompleted) << r.statusStr();
}

TEST(Fig8, CompatibleWithOneQueueCannotProceed)
{
    // A and B share a label (related), so the simultaneous-assignment
    // rule needs two queues; with one, assumption (ii) of Theorem 1
    // fails and the run cannot complete.
    Program p = algos::fig8Program();
    RunResult r = SimSession(p, spec(algos::fig8Topology(), 1))
                      .run(withPolicy(PolicyKind::kCompatible));
    EXPECT_EQ(r.status, RunStatus::kDeadlocked);
}

TEST(Fig8, LargerInstancesBehaveTheSame)
{
    for (int words : {2, 4, 8}) {
        Program p = algos::fig8Program(words);
        EXPECT_EQ(SimSession(p, spec(algos::fig8Topology(), 1))
                      .run(withPolicy(PolicyKind::kFcfs))
                      .status,
                  RunStatus::kDeadlocked)
            << words;
        EXPECT_EQ(SimSession(p, spec(algos::fig8Topology(), 2))
                      .run(withPolicy(PolicyKind::kCompatible))
                      .status,
                  RunStatus::kCompleted)
            << words;
    }
}

// ---------------------------------------------------------------------
// Fig. 9 — interleaved writes, symmetric case.
// ---------------------------------------------------------------------

TEST(Fig9, FcfsDeadlocksWithOneQueue)
{
    Program p = algos::fig9Program();
    RunResult r = SimSession(p, spec(algos::fig9Topology(), 1))
                      .run(withPolicy(PolicyKind::kFcfs));
    EXPECT_EQ(r.status, RunStatus::kDeadlocked);
}

TEST(Fig9, CompatibleCompletesWithTwoQueues)
{
    Program p = algos::fig9Program();
    RunResult r = SimSession(p, spec(algos::fig9Topology(), 2))
                      .run(withPolicy(PolicyKind::kCompatible));
    EXPECT_EQ(r.status, RunStatus::kCompleted) << r.statusStr();
}

TEST(Fig9, StaticWithTwoQueuesCompletes)
{
    // Section 7's static example: "If there are two queues between Cl
    // and C2, then messages A and B can each be assigned to a separate
    // queue statically, and no deadlock will occur."
    Program p = algos::fig9Program();
    RunResult r = SimSession(p, spec(algos::fig9Topology(), 2))
                      .run(withPolicy(PolicyKind::kStatic));
    EXPECT_EQ(r.status, RunStatus::kCompleted) << r.error;
}

// ---------------------------------------------------------------------
// Fig. 2 — the FIR program runs and produces the right numbers.
// ---------------------------------------------------------------------

TEST(Fig2, ProducesPaperOutputs)
{
    Program p = algos::fig2FirProgram();
    sim::RunLog log(p);
    RunRequest request = observedBy(log, withPolicy(PolicyKind::kCompatible));
    RunResult r = SimSession(p, spec(algos::fig2Topology(), 2)).run(request);
    ASSERT_EQ(r.status, RunStatus::kCompleted) << r.statusStr();
    // y1 = 3*1 + 5*2 + 7*3 = 34; y2 = 3*2 + 5*3 + 7*4 = 49.
    auto ya = *p.messageByName("YA");
    ASSERT_EQ(log.received[ya].size(), 2u);
    EXPECT_DOUBLE_EQ(log.received[ya][0], 34.0);
    EXPECT_DOUBLE_EQ(log.received[ya][1], 49.0);
}

TEST(Fig2, RunsEvenWithOneQueuePerLink)
{
    // The FIR schedule never needs two queues at once in the same
    // direction group under the section 6 labels.
    Program p = algos::fig2FirProgram();
    RunResult r = SimSession(p, spec(algos::fig2Topology(), 2, 1))
                      .run(withPolicy(PolicyKind::kCompatible));
    EXPECT_EQ(r.status, RunStatus::kCompleted);
}

// ---------------------------------------------------------------------
// Fig. 6 — the ring cycle completes under every safe policy.
// ---------------------------------------------------------------------

TEST(Fig6, RingCycleCompletes)
{
    Program p = algos::fig6CycleProgram();
    for (PolicyKind kind : {PolicyKind::kCompatible, PolicyKind::kStatic,
                            PolicyKind::kFcfs}) {
        RunResult r =
            SimSession(p, spec(algos::fig6Topology(), 1)).run(withPolicy(kind));
        EXPECT_EQ(r.status, RunStatus::kCompleted)
            << sim::policyKindName(kind);
    }
}

} // namespace
} // namespace syscomm
