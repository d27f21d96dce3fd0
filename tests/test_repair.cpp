/**
 * @file
 * Deadlock repair (the section 3.3 strategy as a compiler pass).
 */

#include <gtest/gtest.h>

#include "algos/paper_figures.h"
#include "core/crossoff.h"
#include "core/program_gen.h"
#include "core/repair.h"
#include "sim/session.h"
#include "test_support.h"

namespace syscomm {
namespace {

TEST(Repair, FixesFig5Programs)
{
    for (Program p : {algos::fig5P1(), algos::fig5P2(), algos::fig5P3()}) {
        ASSERT_FALSE(isDeadlockFree(p));
        RepairResult r = repairProgram(p);
        ASSERT_TRUE(r.success) << r.error;
        EXPECT_TRUE(isDeadlockFree(r.program));
        EXPECT_TRUE(isReorderingOf(p, r.program));
        EXPECT_GT(r.movedOps, 0);
    }
}

TEST(Repair, RepairedP1RunsToCompletion)
{
    Program p = algos::fig5P1();
    RepairResult r = repairProgram(p);
    ASSERT_TRUE(r.success);
    MachineSpec spec;
    spec.topo = algos::fig5Topology();
    spec.queuesPerLink = 2;
    sim::RunResult run = sim::SimSession(r.program, spec).run();
    EXPECT_EQ(run.status, sim::RunStatus::kCompleted);
}

TEST(Repair, AlreadySafeProgramsBarelyChange)
{
    // A safe pipeline: the repair keeps the schedule intact.
    Program p(2);
    MessageId a = p.declareMessage("A", 0, 1);
    MessageId b = p.declareMessage("B", 0, 1);
    p.write(0, a);
    p.write(0, b);
    p.write(0, a);
    p.read(1, a);
    p.read(1, b);
    p.read(1, a);
    ASSERT_TRUE(isDeadlockFree(p));
    RepairResult r = repairProgram(p);
    ASSERT_TRUE(r.success);
    EXPECT_TRUE(isDeadlockFree(r.program));
    EXPECT_TRUE(isReorderingOf(p, r.program));
}

TEST(Repair, RefusesComputePrograms)
{
    Program p = algos::fig2FirProgram();
    RepairResult r = repairProgram(p);
    EXPECT_FALSE(r.success);
    EXPECT_NE(r.error.find("compute"), std::string::npos);
}

TEST(Repair, RefusesInvalidPrograms)
{
    Program p(2);
    MessageId a = p.declareMessage("A", 0, 1);
    p.write(0, a); // no read
    RepairResult r = repairProgram(p);
    EXPECT_FALSE(r.success);
}

TEST(Repair, PerturbedRandomProgramsAlwaysFixable)
{
    Topology topo = Topology::linearArray(5);
    int repaired_deadlocks = 0;
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        GenOptions gen;
        gen.numMessages = 8;
        gen.maxWords = 4;
        gen.seed = seed;
        Program original = randomDeadlockFreeProgram(topo, gen);
        Program broken = perturbProgram(original, 40, seed + 1);
        if (!isDeadlockFree(broken))
            ++repaired_deadlocks;
        RepairResult r = repairProgram(broken);
        ASSERT_TRUE(r.success) << "seed " << seed;
        EXPECT_TRUE(isDeadlockFree(r.program)) << "seed " << seed;
        EXPECT_TRUE(isReorderingOf(broken, r.program)) << "seed " << seed;
    }
    EXPECT_GT(repaired_deadlocks, 0);
}

TEST(Repair, RepairedRandomProgramsCompleteOnBothKernels)
{
    // The full property, machine included: any perturbed random
    // transfer program repairs into a reordering that not only passes
    // the crossing-off check but actually runs to completion — on
    // both kernels, bit-identically. Feasibility-gated like the
    // Theorem 1 suite: when the repaired program's same-label groups
    // outsize the queue pools the theorem does not apply.
    Topology topo = Topology::linearArray(5);
    MachineSpec machine;
    machine.topo = topo;
    // Repair serializes aggressively, which merges labels into large
    // related classes: one queue per message keeps nearly every
    // repaired schedule inside the theorem's feasibility assumption.
    machine.queuesPerLink = 8;
    machine.queueCapacity = 2;

    int ran = 0;
    int skipped = 0;
    int brokenCount = 0;
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
        GenOptions gen;
        gen.numMessages = 8;
        gen.maxWords = 4;
        gen.seed = 900 + seed;
        gen.interleave = 0.3;
        Program original = randomDeadlockFreeProgram(topo, gen);
        Program broken = perturbProgram(original, 60, seed + 1);
        brokenCount += !isDeadlockFree(broken);
        RepairResult r = repairProgram(broken);
        ASSERT_TRUE(r.success) << "seed " << seed << ": " << r.error;
        ASSERT_TRUE(isDeadlockFree(r.program)) << "seed " << seed;
        ASSERT_TRUE(isReorderingOf(broken, r.program)) << "seed " << seed;

        sim::SessionOptions eventKernel;
        eventKernel.kernel = sim::KernelKind::kEventDriven;
        sim::SimSession event(r.program, machine, eventKernel);
        const TheoremLabels labels =
            theoremLabels(*event.compiled(), machine);
        if (!labels.feasible) {
            ++skipped;
            continue;
        }
        sim::RunRequest request;
        request.labels = labels.labels;
        sim::RunResult eventRun = event.run(request);
        ASSERT_EQ(eventRun.status, sim::RunStatus::kCompleted)
            << "seed " << seed << "\n"
            << eventRun.deadlock.render(r.program);

        sim::SessionOptions denseKernel;
        denseKernel.kernel = sim::KernelKind::kReference;
        sim::SimSession dense(r.program, machine, denseKernel);
        expectSameRunResult(dense.run(request), eventRun,
                            "seed " + std::to_string(seed));
        EXPECT_EQ(dense.machineDigest(), event.machineDigest())
            << "seed " << seed;
        ++ran;
    }
    // The sweep must exercise real repairs on real machines.
    EXPECT_GT(brokenCount, 0);
    EXPECT_GT(ran, skipped);
}

TEST(Repair, ReorderingCheckerRejectsMismatches)
{
    Program p(2);
    MessageId a = p.declareMessage("A", 0, 1);
    p.write(0, a);
    p.read(1, a);

    Program q(2);
    MessageId qa = q.declareMessage("A", 0, 1);
    q.write(0, qa);
    q.write(0, qa);
    q.read(1, qa);
    q.read(1, qa);
    EXPECT_FALSE(isReorderingOf(p, q)); // different op counts

    Program r(2);
    r.declareMessage("B", 0, 1); // different name
    r.write(0, 0);
    r.read(1, 0);
    EXPECT_FALSE(isReorderingOf(p, r));

    Program s(2);
    MessageId sa = s.declareMessage("A", 0, 1);
    s.write(0, sa);
    s.read(1, sa);
    EXPECT_TRUE(isReorderingOf(p, s));
}

} // namespace
} // namespace syscomm
