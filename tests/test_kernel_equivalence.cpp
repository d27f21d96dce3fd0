/**
 * @file
 * The event-driven active-set kernel must be observationally identical
 * to the dense reference kernel: same RunStatus, same cycle counts,
 * same statistics (down to per-cell blocked counters and queue
 * occupancy integrals), same assignment/release event logs, same
 * delivered values, and same deadlock snapshots — across policies,
 * topologies, queue shapes, the memory extension, and the
 * memory-to-memory model. Runs well over 100 randomized program_gen
 * programs plus the paper's deadlock gallery.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>

#include "algos/paper_figures.h"
#include "core/program_gen.h"
#include "sim/shape_sweep.h"
#include "test_support.h"

namespace syscomm {
namespace {

using sim::KernelKind;
using sim::PolicyKind;
using sim::RunLog;
using sim::RunRequest;
using sim::RunResult;
using sim::RunStatus;
using sim::SessionOptions;
using sim::SimSession;

std::string
describe(const RunRequest& request, const SessionOptions& session,
         const MachineSpec& spec)
{
    std::ostringstream os;
    os << "policy=" << sim::policyKindName(request.policy)
       << " queues=" << spec.queuesPerLink
       << " cap=" << spec.queueCapacity << " ext=" << spec.extensionCapacity
       << " pen=" << spec.extensionPenalty << " seed=" << request.seed
       << " m2m=" << session.memoryToMemory;
    return os.str();
}

/**
 * Run under both kernels and assert identical observable outcomes.
 * Each run records into its own RunLog, so every assignment, release,
 * timing and delivered value is compared too.
 */
void
expectKernelsAgree(const Program& program, const MachineSpec& spec,
                   const RunRequest& request, SessionOptions session = {})
{
    RunLog refLog(program);
    RunLog evtLog(program);
    session.kernel = KernelKind::kReference;
    RunResult ref =
        SimSession(program, spec, session).run(observedBy(refLog, request));
    session.kernel = KernelKind::kEventDriven;
    RunResult evt =
        SimSession(program, spec, session).run(observedBy(evtLog, request));

    std::string ctx = describe(request, session, spec);
    ASSERT_EQ(evt.status, ref.status)
        << ctx << " ref=" << ref.statusStr() << " evt=" << evt.statusStr();
    EXPECT_EQ(evt.cycles, ref.cycles) << ctx;
    EXPECT_EQ(evt.error, ref.error) << ctx;
    EXPECT_TRUE(evt.stats == ref.stats)
        << ctx << "\nref:\n"
        << ref.stats.summary() << "evt:\n"
        << evt.stats.summary() << "ref blocked=" << ref.stats.cellBlockedCycles
        << " evt blocked=" << evt.stats.cellBlockedCycles;
    expectSameLog(refLog, evtLog, ctx);
    EXPECT_EQ(evt.labelsUsed, ref.labelsUsed) << ctx;
    EXPECT_TRUE(evt.deadlock == ref.deadlock)
        << ctx << "\nref:\n"
        << ref.deadlock.render(program) << "evt:\n"
        << evt.deadlock.render(program);
}

MachineSpec
spec(Topology topo, int queues, int capacity, int ext = 0, int penalty = 4)
{
    MachineSpec s;
    s.topo = std::move(topo);
    s.queuesPerLink = queues;
    s.queueCapacity = capacity;
    s.extensionCapacity = ext;
    s.extensionPenalty = penalty;
    return s;
}

TEST(KernelEquivalence, RandomizedLinearArrayAllPolicies)
{
    // 4 policies x 12 seeds = 48 randomized programs.
    const PolicyKind policies[] = {
        PolicyKind::kCompatible, PolicyKind::kCompatibleEager,
        PolicyKind::kFcfs, PolicyKind::kRandom};
    for (PolicyKind policy : policies) {
        for (std::uint64_t seed = 1; seed <= 12; ++seed) {
            Topology topo = Topology::linearArray(4 + seed % 5);
            GenOptions gen;
            gen.numMessages = 4 + static_cast<int>(seed % 7);
            gen.maxWords = 5;
            gen.seed = seed;
            gen.interleave = 0.25;
            Program p = randomDeadlockFreeProgram(topo, gen);
            RunRequest request;
            request.policy = policy;
            request.seed = seed;
            expectKernelsAgree(p, spec(topo, 2 + seed % 2, 1 + seed % 3),
                               request);
        }
    }
}

TEST(KernelEquivalence, RandomizedMeshAndTorus)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        Topology topo = seed % 2 ? Topology::mesh(3, 3) : Topology::torus(3, 3);
        GenOptions gen;
        gen.numMessages = 6 + static_cast<int>(seed % 5);
        gen.maxWords = 4;
        gen.seed = 100 + seed;
        gen.interleave = 0.4;
        Program p = randomDeadlockFreeProgram(topo, gen);
        RunRequest request;
        request.seed = seed;
        expectKernelsAgree(p, spec(topo, 3, 2), request);
    }
}

TEST(KernelEquivalence, PerturbedProgramsIncludingDeadlocks)
{
    // Perturbation breaks deadlock-freedom for many seeds, so this
    // sweep covers both completed and deadlocked runs under unsafe
    // policies: 3 policies x 16 seeds = 48 programs.
    const PolicyKind policies[] = {PolicyKind::kCompatible,
                                   PolicyKind::kFcfs, PolicyKind::kRandom};
    int deadlocked = 0;
    for (PolicyKind policy : policies) {
        for (std::uint64_t seed = 1; seed <= 16; ++seed) {
            Topology topo = Topology::linearArray(5);
            GenOptions gen;
            gen.numMessages = 6;
            gen.maxWords = 4;
            gen.seed = 200 + seed;
            gen.interleave = 0.5;
            Program p = randomDeadlockFreeProgram(topo, gen);
            Program mutated =
                perturbProgram(p, static_cast<int>(1 + seed % 4), seed);
            RunRequest request;
            request.policy = policy;
            request.seed = seed;
            request.maxCycles = 20'000;
            MachineSpec s = spec(topo, 1 + seed % 2, 1);
            expectKernelsAgree(mutated, s, request);
            if (SimSession(mutated, s).run(request).status ==
                RunStatus::kDeadlocked)
                ++deadlocked;
        }
    }
    // The sweep must genuinely exercise the deadlock path.
    EXPECT_GT(deadlocked, 0);
}

TEST(KernelEquivalence, PaperFigureGallery)
{
    // Fig. 5's P1/P3 deadlock at capacity 1; P2 completes; Figs. 7-9
    // deadlock under FCFS at one queue per link but complete under
    // the compatible policy.
    for (int cap : {1, 2}) {
        for (Program p : {algos::fig5P1(), algos::fig5P2(), algos::fig5P3()}) {
            expectKernelsAgree(p, spec(algos::fig5Topology(), 2, cap), {});
        }
    }
    for (PolicyKind policy : {PolicyKind::kCompatible, PolicyKind::kFcfs}) {
        RunRequest request;
        request.policy = policy;
        expectKernelsAgree(algos::fig7Program(), spec(algos::fig7Topology(), 1, 1),
                           request);
        expectKernelsAgree(algos::fig8Program(), spec(algos::fig8Topology(), 1, 1),
                           request);
        expectKernelsAgree(algos::fig9Program(), spec(algos::fig9Topology(), 1, 1),
                           request);
    }
    expectKernelsAgree(algos::fig6CycleProgram(),
                       spec(algos::fig6Topology(), 2, 1), {});
    expectKernelsAgree(algos::fig2FirProgram(),
                       spec(algos::fig2Topology(), 2, 1), {});
}

TEST(KernelEquivalence, QueueExtensionAndPenalties)
{
    // The extension penalty exercises the timed-wake path and the
    // event kernel's bulk-advance over penalty stalls.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Topology topo = Topology::linearArray(6);
        GenOptions gen;
        gen.numMessages = 5;
        gen.maxWords = 6;
        gen.seed = 300 + seed;
        gen.interleave = 0.3;
        Program p = randomDeadlockFreeProgram(topo, gen);
        RunRequest request;
        request.seed = seed;
        expectKernelsAgree(
            p, spec(topo, 2, 1, /*ext=*/2 + seed % 3, /*penalty=*/2 + seed % 5),
            request);
    }

    // The calendar holds only fronts that mature after the cycle that
    // follows their surfacing. One 3-word message over two hops with
    // 1-word queues: word 2 spills into hop 0's extension and surfaces
    // with the penalty when word 1 moves on. The writer is then done
    // and the reader waits on an empty queue, so that front is the
    // stretch's only timed work: the event kernel must fast-forward to
    // exactly its cycle (and word 3's after it), not call the stall a
    // deadlock. Extension 0 (no spill) must agree as well.
    Topology line = Topology::linearArray(3);
    Program relay(3);
    const MessageId m = relay.declareMessage("m", 0, 2);
    for (int w = 0; w < 3; ++w) {
        relay.write(0, m);
        relay.read(2, m);
    }
    for (int penalty : {1, 2, 5}) {
        for (int ext : {0, 2}) {
            expectKernelsAgree(relay, spec(line, 1, 1, ext, penalty), {});
        }
        RunLog log(relay);
        RunResult run = SimSession(relay, spec(line, 1, 1, 2, penalty))
                            .run(observedBy(log));
        ASSERT_EQ(run.status, RunStatus::kCompleted) << penalty;
        if (penalty >= 2) {
            // Word 1 is pushed at t, forwarded at t+2 (the header's
            // request is served at t+2) and read at t+3; words 2 and 3
            // each wait out a penalty at hop 0's front.
            const Cycle t = log.msgTiming[m].first;
            EXPECT_EQ(log.msgTiming[m].second, t + 3 + 2 * penalty)
                << penalty;
        }
    }
}

TEST(KernelEquivalence, StaticPolicyAndMemoryToMemory)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Topology topo = Topology::linearArray(4);
        GenOptions gen;
        gen.numMessages = 4;
        gen.maxWords = 4;
        gen.seed = 400 + seed;
        gen.interleave = 0.0; // few competing messages: static feasible
        Program p = randomDeadlockFreeProgram(topo, gen);
        RunRequest request;
        request.policy = PolicyKind::kStatic;
        request.seed = seed;
        expectKernelsAgree(p, spec(topo, 8, 2), request);

        RunRequest seeded;
        seeded.seed = seed;
        SessionOptions m2m;
        m2m.memoryToMemory = true;
        m2m.memAccessCost = 1 + static_cast<int>(seed % 2);
        expectKernelsAgree(p, spec(topo, 4, 2), seeded, m2m);
    }
}

TEST(KernelEquivalence, MaxCyclesBudgetExhaustion)
{
    Topology topo = Topology::linearArray(4);
    GenOptions gen;
    gen.numMessages = 8;
    gen.maxWords = 8;
    gen.seed = 7;
    Program p = randomDeadlockFreeProgram(topo, gen);
    RunRequest request;
    request.maxCycles = 25; // far too few
    expectKernelsAgree(p, spec(topo, 2, 1), request);
}

TEST(KernelEquivalence, OneShapeSweepAgreesAcrossKernels)
{
    // The sweep driver as equivalence harness: the same request batch
    // (policies x seeds, each recorded by its own RunLog) through a
    // one-shape ShapeSweep per kernel must agree run by run — and the
    // threaded fan-out must not perturb any result.
    Topology topo = Topology::linearArray(5);
    GenOptions gen;
    gen.numMessages = 6;
    gen.maxWords = 4;
    gen.seed = 501;
    gen.interleave = 0.5;
    Program p = randomDeadlockFreeProgram(topo, gen);
    Program mutated = perturbProgram(p, 2, 77);

    std::vector<sim::RunRequest> requests;
    for (PolicyKind policy : {PolicyKind::kCompatible, PolicyKind::kFcfs,
                              PolicyKind::kRandom}) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            sim::RunRequest request;
            request.policy = policy;
            request.seed = seed;
            request.maxCycles = 20'000;
            requests.push_back(request);
        }
    }

    sim::ShapeSweepOptions ref;
    ref.session.kernel = KernelKind::kReference;
    ref.numWorkers = 3;
    sim::ShapeSweepOptions evt = ref;
    evt.session.kernel = KernelKind::kEventDriven;
    // Observed requests never stand in for one another, so each sweep
    // runs every cell instead of copying seed-blind rows.
    std::vector<RunLog> refLogs;
    std::vector<RunLog> evtLogs;
    sim::ShapeSweepResult refResult =
        sim::ShapeSweep(mutated, topo, {{"", 2, 1}}, ref)
            .run(observeEach(requests, refLogs, mutated));
    sim::ShapeSweepResult evtResult =
        sim::ShapeSweep(mutated, topo, {{"", 2, 1}}, evt)
            .run(observeEach(requests, evtLogs, mutated));
    EXPECT_EQ(refResult.rowsShared, 0u);
    EXPECT_EQ(evtResult.rowsShared, 0u);
    sim::SweepSummary refSweep = refResult.shapeSummary(0);
    sim::SweepSummary evtSweep = evtResult.shapeSummary(0);

    ASSERT_EQ(refSweep.results.size(), requests.size());
    ASSERT_EQ(evtSweep.results.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const RunResult& a = refSweep.results[i];
        const RunResult& b = evtSweep.results[i];
        std::string ctx = "request " + std::to_string(i);
        ASSERT_EQ(b.status, a.status) << ctx;
        EXPECT_EQ(b.cycles, a.cycles) << ctx;
        EXPECT_TRUE(b.stats == a.stats) << ctx;
        expectSameLog(refLogs[i], evtLogs[i], ctx);
        EXPECT_TRUE(b.deadlock == a.deadlock) << ctx;
    }
    for (int k = 0; k < sim::kNumRunStatuses; ++k)
        EXPECT_EQ(evtSweep.statusCounts[k], refSweep.statusCounts[k]);
    EXPECT_EQ(evtSweep.p50Cycles, refSweep.p50Cycles);
    EXPECT_EQ(evtSweep.p99Cycles, refSweep.p99Cycles);
}

TEST(KernelEquivalence, LargeArrayPhasesAt4kCells)
{
    // The largeArrayProgram workloads at the smallest "large" size:
    // 4096 cells is well past anything the rest of the suite touches
    // and exercises three summary levels of the active-set bitmaps,
    // the bucketed next-cycle wakes, and the queue-event heap at
    // scale — against the dense oracle.
    const int kCells = 4096;
    Topology topo = Topology::linearArray(kCells);
    for (ArrayPhase phase : {ArrayPhase::kSparse, ArrayPhase::kStreaming,
                             ArrayPhase::kDenseActive}) {
        LargeArrayOptions gen;
        gen.phase = phase;
        gen.messages = 8;
        gen.wordsPerMessage = phase == ArrayPhase::kDenseActive ? 6 : 16;
        gen.computeGap = 4;
        Program p = largeArrayProgram(kCells, gen);
        for (PolicyKind policy : {PolicyKind::kCompatible,
                                  PolicyKind::kRandom}) {
            RunRequest request;
            request.policy = policy;
            request.seed = 9 + static_cast<int>(phase);
            expectKernelsAgree(p, spec(topo, 2, 2), request);
            // Every phase is deadlock-free by construction, so the
            // kernels must agree on a completed run.
            EXPECT_TRUE(SimSession(p, spec(topo, 2, 2)).run(request)
                            .completed())
                << arrayPhaseName(phase) << " "
                << sim::policyKindName(policy);
        }
    }
}

TEST(KernelEquivalence, RandomPolicyMultiPendingFastForward)
{
    // The regime the per-link counted RNG exists for: several
    // messages hold >= 2 simultaneous pending requests on a shared
    // link under the random policy while extension penalties create
    // long idle stretches the event kernel fast-forwards over. The
    // old global-stream RNG forced the kernel to disable fast-forward
    // here (a skipped cycle skipped a shuffle and desynchronized the
    // stream); with counted per-link streams the kernels must stay
    // bit-identical with no special case. Depending on the seed these
    // programs complete or deadlock — both outcomes must agree.
    Topology topo = Topology::linearArray(8);
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Program p(8);
        // Three messages from distinct senders funnel into cell 6
        // through the shared links (4,5) and (5,6); with one queue
        // per link, two of them are always pending behind the third.
        MessageId m0 = p.declareMessage("A", 0, 6);
        MessageId m1 = p.declareMessage("B", 1, 6);
        MessageId m2 = p.declareMessage("C", 2, 6);
        const int kWords = 4;
        for (MessageId m : {m0, m1, m2}) {
            const MessageDecl& decl = p.message(m);
            for (int w = 0; w < kWords; ++w)
                p.write(decl.sender, m);
        }
        for (MessageId m : {m0, m1, m2}) {
            for (int w = 0; w < kWords; ++w)
                p.read(6, m);
        }
        RunRequest request;
        request.policy = PolicyKind::kRandom;
        request.seed = seed;
        request.maxCycles = 50'000;
        // Queue capacity 1 with a deep, slow extension: every surfaced
        // word stalls the whole pipeline for 6 cycles, giving the
        // event kernel plenty of provably inert stretches to skip
        // while the two losing messages sit in kRequested.
        expectKernelsAgree(
            p, spec(topo, 1, 1, /*ext=*/3, /*penalty=*/6), request);
        // Same shape with room for simultaneous assignment churn.
        expectKernelsAgree(
            p, spec(topo, 2, 1, /*ext=*/2, /*penalty=*/4), request);
    }
}

// ---------------------------------------------------------------------
// Sampled oracle: dense-kernel bit-identity at sizes where a full
// dense run blows the test budget.
//
// The dense reference kernel costs O(machine) per cycle, which capped
// full-run equivalence coverage at ~16k cells. The sampled harness
// runs the *event* kernel end to end (cheap), pauses it at randomly
// sampled cycles, hands each checkpoint to a reference-kernel session
// through saveCheckpoint/restoreCheckpoint — the cross-kernel path
// crash resume uses — together with a copy of the run's RunLog, and
// replays only the sampled window under the dense oracle. The dense
// cost is therefore windows x window length, not the whole run, and
// 64k-100k cells fit the budget. At each window edge the two sessions
// must agree on the full result and log accumulated so far AND on the
// machine-state digest; afterwards the event run is driven to its end
// and must be bit-identical to an unpaused run (pausing may never
// perturb a run).
// ---------------------------------------------------------------------

struct OracleWindows
{
    int count = 3;
    Cycle length = 16;
    std::uint64_t seed = 1;
};

void
expectSampledOracleAgrees(const Program& program, const MachineSpec& s,
                          const RunRequest& base, OracleWindows w,
                          const std::string& ctx)
{
    SessionOptions evtOpt;
    evtOpt.kernel = KernelKind::kEventDriven;
    SessionOptions refOpt;
    refOpt.kernel = KernelKind::kReference;
    SimSession evt(program, s, evtOpt);
    SimSession ref(program, s, refOpt);
    ASSERT_TRUE(evt.valid()) << ctx << ": " << evt.error();

    // Full event run: the window sampler's cycle range, and the
    // result and log the windowed journey below must reproduce
    // exactly.
    RunLog wholeLog(program);
    RunResult whole = evt.run(observedBy(wholeLog, base));
    ASSERT_NE(whole.status, RunStatus::kConfigError) << ctx;
    const Cycle total = whole.cycles;
    if (total < 4)
        return; // too short to sample a window

    // Non-overlapping window starts, uniform over [1, total-1]: a
    // pause target at the terminal cycle would just terminate (the
    // tie goes to the terminal status), replaying nothing.
    std::mt19937_64 rng(w.seed);
    std::vector<Cycle> starts;
    for (int attempt = 0;
         attempt < 8 * w.count &&
         static_cast<int>(starts.size()) < w.count;
         ++attempt) {
        Cycle c = 1 + static_cast<Cycle>(
                          rng() % static_cast<std::uint64_t>(total - 1));
        bool clear = true;
        for (Cycle t : starts) {
            if (c < t + w.length + 2 && t < c + w.length + 2)
                clear = false;
        }
        if (clear)
            starts.push_back(c);
    }
    ASSERT_FALSE(starts.empty()) << ctx;
    std::sort(starts.begin(), starts.end());

    RunLog log(program);
    RunRequest untilFirst = observedBy(log, base);
    untilFirst.pauseAt = starts.front();
    RunResult part = evt.run(untilFirst);
    int replayed = 0;
    for (std::size_t i = 0;
         i < starts.size() && part.status == RunStatus::kPaused; ++i) {
        std::vector<std::uint8_t> bytes;
        ASSERT_TRUE(evt.saveCheckpoint(bytes)) << ctx;
        RunLog refLog = log;
        ASSERT_TRUE(ref.restoreCheckpoint(observedBy(refLog, base), bytes))
            << ctx;
        EXPECT_EQ(ref.machineDigest(), evt.machineDigest())
            << ctx << " restore at " << starts[i];
        Cycle end = starts[i] + w.length;
        RunResult evtWin = evt.resume(end);
        RunResult refWin = ref.resume(end);
        const std::string window = ctx + " window " +
                                   std::to_string(starts[i]) + ".." +
                                   std::to_string(end);
        expectSameRunResult(evtWin, refWin, window);
        expectSameLog(log, refLog, window);
        EXPECT_EQ(ref.machineDigest(), evt.machineDigest())
            << ctx << " window end " << end;
        ++replayed;
        part = evtWin;
        if (part.status == RunStatus::kPaused && i + 1 < starts.size())
            part = evt.resume(starts[i + 1]);
    }
    EXPECT_GT(replayed, 0) << ctx;
    if (part.status == RunStatus::kPaused)
        part = evt.resume();
    expectSameRunResult(whole, part, ctx + " windowed journey vs whole");
    expectSameLog(wholeLog, log, ctx + " windowed journey vs whole");
}

TEST(SampledOracle, HarnessAgreesOnSmallRandomPrograms)
{
    // Shake the harness itself where full-run equivalence is already
    // proven: policies, deadlocks (perturbed programs), the extension
    // and many small windows. Any disagreement here is a checkpoint
    // bug, not a kernel bug.
    const PolicyKind policies[] = {PolicyKind::kCompatible,
                                   PolicyKind::kFcfs, PolicyKind::kRandom};
    for (PolicyKind policy : policies) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            Topology topo = Topology::linearArray(6);
            GenOptions gen;
            gen.numMessages = 6;
            gen.maxWords = 5;
            gen.seed = 700 + seed;
            gen.interleave = 0.4;
            Program p = randomDeadlockFreeProgram(topo, gen);
            Program mutated =
                perturbProgram(p, static_cast<int>(seed % 3), seed);
            RunRequest base;
            base.policy = policy;
            base.seed = seed;
            base.maxCycles = 20'000;
            OracleWindows w;
            w.count = 4;
            w.length = 5;
            w.seed = seed;
            expectSampledOracleAgrees(
                mutated, spec(topo, 2, 1, /*ext=*/seed % 3, /*penalty=*/3),
                base, w,
                "policy " + std::string(policyKindName(policy)) +
                    " seed " + std::to_string(seed));
        }
    }
}

TEST(SampledOracle, LargeArrayPhasesAt64kCells)
{
    // The satellite the harness exists for: dense-oracle bit-identity
    // at 65536 cells — 4x past the old full-run oracle cap — across
    // all three large-array phases. The dense kernel only ever runs
    // inside the sampled windows.
    const int kCells = 65536;
    Topology topo = Topology::linearArray(kCells);
    for (ArrayPhase phase : {ArrayPhase::kSparse, ArrayPhase::kStreaming,
                             ArrayPhase::kDenseActive}) {
        LargeArrayOptions gen;
        gen.phase = phase;
        gen.messages = 32;
        gen.wordsPerMessage = phase == ArrayPhase::kDenseActive ? 12 : 24;
        gen.computeGap = 4;
        Program p = largeArrayProgram(kCells, gen);
        RunRequest base;
        base.seed = 17 + static_cast<int>(phase);
        OracleWindows w;
        w.count = 3;
        w.length = phase == ArrayPhase::kDenseActive ? 8 : 16;
        w.seed = 90 + static_cast<std::uint64_t>(phase);
        expectSampledOracleAgrees(p, spec(topo, 2, 2), base, w,
                                  std::string("64k ") +
                                      arrayPhaseName(phase));
    }
}

TEST(SampledOracle, DenseActiveAt100kCells)
{
    // The headline scale: the full 100k-cell dense-active machine,
    // every cell live, checked against the dense oracle inside two
    // sampled windows plus the final-state digest.
    const int kCells = 100000;
    Topology topo = Topology::linearArray(kCells);
    LargeArrayOptions gen;
    gen.phase = ArrayPhase::kDenseActive;
    gen.wordsPerMessage = 10;
    Program p = largeArrayProgram(kCells, gen);
    RunRequest base;
    base.seed = 23;
    OracleWindows w;
    w.count = 2;
    w.length = 6;
    w.seed = 23;
    expectSampledOracleAgrees(p, spec(topo, 2, 2), base, w,
                              "100k dense-active");
}

TEST(KernelEquivalence, LongStreamSparseArray)
{
    // The streaming case the active-set kernel is built for: a few
    // long messages crossing a large, mostly idle array.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Topology topo = Topology::linearArray(48);
        Program p(48);
        for (int m = 0; m < 3; ++m) {
            CellId from = static_cast<CellId>((seed * 7 + m * 13) % 20);
            CellId to = static_cast<CellId>(47 - (seed * 3 + m * 5) % 20);
            MessageId id = p.declareMessage("S" + std::to_string(m),
                                            from, to);
            for (int w = 0; w < 24; ++w)
                p.write(from, id);
            for (int w = 0; w < 24; ++w)
                p.read(to, id);
        }
        RunRequest request;
        request.seed = seed;
        expectKernelsAgree(p, spec(topo, 2, 1 + seed % 4), request);
    }
}

} // namespace
} // namespace syscomm
