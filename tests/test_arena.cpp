/**
 * @file
 * The arena/SoA hot-state layout under stress.
 *
 * SimArena owns every per-run-mutable simulation object in contiguous
 * pools, and LinkState/HwQueue/CellRuntime are views over it. The
 * properties that must hold:
 *
 *  - results are bit-identical to a freshly built session no matter
 *    how many build/run/reset cycles an arena-backed session has been
 *    through (randomized sequences of seeds, policies, observed and
 *    unobserved runs, and kernels against a fresh-session oracle),
 *  - no pool ever moves after build (the reset-in-place guarantee the
 *    kernels' cached spans rely on),
 *  - pause/resume never perturbs a run, and a checkpoint
 *    (saveCheckpoint + restoreCheckpoint) transplants a mid-run
 *    machine bit-exactly across sessions and across kernels
 *    (machineDigest agreement plus full result and RunLog agreement),
 *  - a RunLog cleared and reused across runs records each one exactly
 *    as a fresh log would.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "core/program_gen.h"
#include "sim/arena.h"
#include "sim/shape_sweep.h"
#include "sim/session.h"
#include "test_support.h"

namespace syscomm {
namespace {

using sim::HwQueue;
using sim::KernelKind;
using sim::LinkState;
using sim::PolicyKind;
using sim::RunLog;
using sim::RunRequest;
using sim::RunResult;
using sim::RunStatus;
using sim::SessionOptions;
using sim::SimArena;
using sim::SimSession;
using sim::Word;

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

// expectSameRunResult (test_support.h) is the shared comparator.

// ---------------------------------------------------------------------
// Pool-level properties
// ---------------------------------------------------------------------

TEST(SimArena, PoolsNeverMoveAfterBuild)
{
    SimArena arena;
    LinkState& link = arena.buildSingleLink(/*num_queues=*/2,
                                            /*capacity=*/2,
                                            /*ext_capacity=*/3,
                                            /*ext_penalty=*/2,
                                            /*max_crossings=*/4);
    const Word* words = arena.wordPool();
    const HwQueue* queues = arena.queuePool();
    const auto* crossings = arena.crossingPool();
    const HwQueue* q0 = &link.queue(0);

    for (MessageId m = 0; m < 4; ++m)
        link.addCrossing(m, LinkDir::kForward, 0, 3);
    for (int round = 0; round < 5; ++round) {
        link.assign(/*slot=*/0, 0, 1);
        Word w;
        w.msg = 0;
        for (int i = 0; i < 3; ++i)
            link.queue(0).push(w, 2 + i);
        link.resetRun();
        EXPECT_EQ(arena.wordPool(), words);
        EXPECT_EQ(arena.queuePool(), queues);
        EXPECT_EQ(arena.crossingPool(), crossings);
        EXPECT_EQ(&link.queue(0), q0);
    }
    EXPECT_GT(arena.bytesReserved(), 0u);
}

TEST(SimArena, DigestTracksMachineStateAndCopyRestoresIt)
{
    auto build = [](SimArena& arena) -> LinkState& {
        LinkState& link = arena.buildSingleLink(2, 2, 0, 0, 2);
        link.addCrossing(0, LinkDir::kForward, 0, 2);
        link.addCrossing(1, LinkDir::kBackward, 0, 1);
        return link;
    };
    SimArena a, b;
    LinkState& la = build(a);
    LinkState& lb = build(b);
    EXPECT_EQ(a.machineDigest(), b.machineDigest());

    // Same history -> same digest. Crossings are addressed by slot
    // (registration order): message 0 is slot 0, message 1 slot 1.
    la.request(0, 1);
    lb.request(0, 1);
    la.assign(0, 1, 2);
    lb.assign(0, 1, 2);
    Word w;
    w.msg = 0;
    la.queue(1).push(w, 3);
    lb.queue(1).push(w, 3);
    EXPECT_EQ(a.machineDigest(), b.machineDigest());

    // Divergence -> different digest; copy -> equal again.
    lb.request(1, 4);
    EXPECT_NE(a.machineDigest(), b.machineDigest());
    std::vector<std::uint8_t> bytes;
    b.serializeMachineState(bytes);
    ASSERT_TRUE(a.deserializeMachineState(bytes.data(), bytes.size()));
    EXPECT_EQ(a.machineDigest(), b.machineDigest());
    EXPECT_EQ(la.crossings()[1].phase, sim::CrossingPhase::kRequested);
    EXPECT_EQ(la.crossings()[1].requestedAt, 4);

    // A queue's crossing slot is not serialized: a fresh arena re-derives
    // it from the restored crossings, and a free queue has none.
    SimArena c;
    LinkState& lc = build(c);
    ASSERT_TRUE(c.deserializeMachineState(bytes.data(), bytes.size()));
    EXPECT_EQ(c.machineDigest(), b.machineDigest());
    EXPECT_EQ(lc.queue(1).slot(), 0);
    EXPECT_EQ(lc.queue(0).slot(), -1);
}

// ---------------------------------------------------------------------
// Session-level stress: arena reuse vs fresh-build oracle
// ---------------------------------------------------------------------

/**
 * Randomized build/run/reset sequences: one arena-backed session per
 * (kernel, program) endures a shuffled stream of requests — seeds,
 * policies, observed and unobserved runs interleaved — and every
 * result must be bit-identical to a session built fresh for that one
 * request (the heap-layout-equivalent oracle: a first run on a fresh
 * build never touches the reset paths). Observed runs share one
 * reused RunLog, checked against a fresh log each time.
 */
TEST(ArenaStress, RandomizedRunResetSequencesMatchFreshBuilds)
{
    std::mt19937_64 rng(20260728);
    const PolicyKind policies[] = {PolicyKind::kCompatible,
                                   PolicyKind::kCompatibleEager,
                                   PolicyKind::kFcfs, PolicyKind::kRandom};

    for (int shape = 0; shape < 3; ++shape) {
        Topology topo = shape == 0 ? Topology::linearArray(6)
                                   : shape == 1 ? Topology::mesh(3, 3)
                                                : Topology::torus(3, 3);
        GenOptions gen;
        gen.numMessages = 7;
        gen.maxWords = 5;
        gen.seed = 900 + static_cast<std::uint64_t>(shape);
        gen.interleave = 0.4;
        Program program = randomDeadlockFreeProgram(topo, gen);
        MachineSpec s =
            spec(topo, 2, 1 + shape % 3, /*ext=*/shape, /*penalty=*/3);

        for (KernelKind kernel :
             {KernelKind::kEventDriven, KernelKind::kReference}) {
            SessionOptions options;
            options.kernel = kernel;
            SimSession reused(program, s, options);
            ASSERT_TRUE(reused.valid());
            RunLog reusedLog(program);

            for (int step = 0; step < 10; ++step) {
                RunRequest request;
                request.policy = policies[rng() % 4];
                request.seed = 1 + rng() % 5;
                request.maxCycles = 20'000;
                const bool observed = rng() % 2 == 0;

                const std::string ctx =
                    "shape " + std::to_string(shape) + " kernel " +
                    std::string(kernelKindName(kernel)) + " step " +
                    std::to_string(step);
                SimSession fresh(program, s, options);
                if (observed) {
                    reusedLog.clear();
                    RunLog freshLog(program);
                    RunResult r = reused.run(observedBy(reusedLog, request));
                    RunResult f = fresh.run(observedBy(freshLog, request));
                    expectSameRunResult(f, r, ctx);
                    expectSameLog(freshLog, reusedLog, ctx);
                } else {
                    expectSameRunResult(fresh.run(request),
                                        reused.run(request), ctx);
                }
            }
        }
    }
}

/**
 * RunLog reuse: an observed run, an unobserved run and another
 * observed run into the same cleared log through one session must
 * reproduce a fresh session's log exactly — the reused vectors must
 * not leak stale entries or change sizes, and an unobserved run must
 * leave the log alone.
 */
TEST(ArenaStress, ReusedRunLogStaysInvisible)
{
    Topology topo = Topology::linearArray(5);
    GenOptions gen;
    gen.numMessages = 6;
    gen.maxWords = 5;
    gen.seed = 41;
    gen.interleave = 0.2; // modest label groups: completes at 2 queues
    Program program = randomDeadlockFreeProgram(topo, gen);
    MachineSpec s = spec(topo, 2, 2);

    SimSession session(program, s);
    RunLog log(program);

    RunResult first = session.run(observedBy(log));
    ASSERT_EQ(first.status, RunStatus::kCompleted);
    EXPECT_FALSE(log.events.empty());
    const RunLog firstLog = log;
    RunResult lean = session.run({});
    expectSameRunResult(first, lean, "unobserved after observed");
    expectSameLog(firstLog, log, "unobserved run leaves the log alone");

    log.clear();
    EXPECT_TRUE(log.events.empty());
    EXPECT_TRUE(log.releases.empty());
    for (MessageId m = 0; m < program.numMessages(); ++m) {
        EXPECT_TRUE(log.received[m].empty());
        EXPECT_EQ(log.msgTiming[m], (std::pair<Cycle, Cycle>{-1, -1}));
    }
    RunResult again = session.run(observedBy(log));
    expectSameRunResult(first, again, "observed after unobserved reuse");
    expectSameLog(firstLog, log, "observed after unobserved reuse");

    SimSession fresh(program, s);
    RunLog freshLog(program);
    expectSameRunResult(fresh.run(observedBy(freshLog)), first,
                        "fresh oracle");
    expectSameLog(freshLog, firstLog, "fresh oracle");
}

// ---------------------------------------------------------------------
// Pause / resume / checkpoint hand-off (the machinery the sampled
// oracle is built on)
// ---------------------------------------------------------------------

/**
 * Move @p from's paused run into @p to through a checkpoint, as the
 * original @p request with @p log (a copy of the paused run's log)
 * observing the rest.
 */
bool
handOff(const SimSession& from, SimSession& to, const RunRequest& request,
        RunLog& log)
{
    std::vector<std::uint8_t> bytes;
    return from.saveCheckpoint(bytes) &&
           to.restoreCheckpoint(observedBy(log, request), bytes);
}

TEST(ArenaCheckpoint, PauseResumeNeverPerturbsARun)
{
    Topology topo = Topology::linearArray(6);
    GenOptions gen;
    gen.numMessages = 6;
    gen.maxWords = 6;
    gen.seed = 7;
    gen.interleave = 0.4;
    Program program = randomDeadlockFreeProgram(topo, gen);
    MachineSpec s = spec(topo, 2, 1, /*ext=*/2, /*penalty=*/3);

    for (KernelKind kernel :
         {KernelKind::kEventDriven, KernelKind::kReference}) {
        SessionOptions options;
        options.kernel = kernel;
        SimSession plain(program, s, options);
        RunLog wholeLog(program);
        RunResult whole = plain.run(observedBy(wholeLog));
        ASSERT_EQ(whole.status, RunStatus::kCompleted);

        // Chop the same run into pause windows at every stride.
        for (Cycle stride : {1, 3, 7}) {
            SimSession chopped(program, s, options);
            RunLog log(program);
            RunRequest paused = observedBy(log);
            paused.pauseAt = stride;
            RunResult part = chopped.run(paused);
            int guard = 0;
            while (part.status == RunStatus::kPaused) {
                ASSERT_TRUE(chopped.paused());
                part = chopped.resume(part.cycles + stride);
                ASSERT_LT(++guard, 10'000);
            }
            EXPECT_FALSE(chopped.paused());
            const std::string ctx = "stride " + std::to_string(stride) +
                                    " kernel " + kernelKindName(kernel);
            expectSameRunResult(whole, part, ctx);
            expectSameLog(wholeLog, log, ctx);
        }
    }
}

TEST(ArenaCheckpoint, PausedSnapshotMatchesFreshRunOfSameLength)
{
    // A pause snapshot must report exactly what a fresh run with
    // maxCycles-sized visibility would: compare its stats against the
    // dense kernel's snapshot at the same cycle, reached through a
    // checkpoint of the event run.
    Topology topo = Topology::linearArray(6);
    GenOptions gen;
    gen.numMessages = 6;
    gen.maxWords = 5;
    gen.seed = 11;
    gen.interleave = 0.3;
    Program program = randomDeadlockFreeProgram(topo, gen);
    MachineSpec s = spec(topo, 2, 1);

    SessionOptions evtOptions;
    evtOptions.kernel = KernelKind::kEventDriven;
    SessionOptions refOptions;
    refOptions.kernel = KernelKind::kReference;

    SimSession evt(program, s, evtOptions);
    SimSession ref(program, s, refOptions);

    RunRequest request;
    RunResult full = evt.run(request);
    ASSERT_EQ(full.status, RunStatus::kCompleted);

    RunLog evtLog(program);
    for (Cycle at = 2; at + 2 < full.cycles; at += 3) {
        evtLog.clear();
        RunRequest untilAt = observedBy(evtLog, request);
        untilAt.pauseAt = at;
        RunResult evtSnap = evt.run(untilAt);
        ASSERT_EQ(evtSnap.status, RunStatus::kPaused);
        ASSERT_EQ(evtSnap.cycles, at);

        RunLog refLog = evtLog;
        ASSERT_TRUE(handOff(evt, ref, request, refLog));
        EXPECT_EQ(ref.machineDigest(), evt.machineDigest())
            << "digest after restore at " << at;

        // Both continue one window; snapshots, logs and digests must
        // agree.
        RunResult evtNext = evt.resume(at + 2);
        RunResult refNext = ref.resume(at + 2);
        const std::string ctx = "window from " + std::to_string(at);
        expectSameRunResult(evtNext, refNext, ctx);
        expectSameLog(evtLog, refLog, ctx);
        EXPECT_EQ(ref.machineDigest(), evt.machineDigest())
            << "digest after window from " << at;
    }
}

TEST(ArenaCheckpoint, CheckpointRejectsIncompatibleSessions)
{
    Topology topo = Topology::linearArray(4);
    GenOptions gen;
    gen.numMessages = 4;
    gen.maxWords = 3;
    gen.seed = 3;
    Program a = randomDeadlockFreeProgram(topo, gen);
    gen.seed = 4;
    Program b = randomDeadlockFreeProgram(topo, gen);
    MachineSpec s = spec(topo, 2, 1);

    SimSession donor(a, s);
    SimSession twin(a, s);
    SimSession stranger(b, s);

    // Not paused yet: nothing to hand off.
    RunLog donorLog(a);
    RunLog twinLog(a);
    EXPECT_FALSE(handOff(donor, twin, {}, twinLog));
    EXPECT_FALSE(twin.paused());

    RunRequest request = observedBy(donorLog);
    request.pauseAt = 3;
    RunResult r = donor.run(request);
    ASSERT_EQ(r.status, RunStatus::kPaused);
    RunLog strangerLog(b);
    EXPECT_FALSE(handOff(donor, stranger, {}, strangerLog)); // other program
    EXPECT_FALSE(stranger.paused());
    twinLog = donorLog;
    EXPECT_TRUE(handOff(donor, twin, {}, twinLog));
    EXPECT_TRUE(twin.paused());

    // Both finish identically from the shared checkpoint.
    RunResult fromDonor = donor.resume();
    RunResult fromTwin = twin.resume();
    expectSameRunResult(fromDonor, fromTwin, "donor vs twin");
    expectSameLog(donorLog, twinLog, "donor vs twin");
}

TEST(ArenaCheckpoint, RandomPolicyStateTravelsWithCheckpoint)
{
    // The counted-stream random policy's per-link decision counters
    // are run state: a restored session must reproduce the donor's
    // future shuffles exactly. Deadlocking programs included.
    Topology topo = Topology::linearArray(5);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        GenOptions gen;
        gen.numMessages = 6;
        gen.maxWords = 4;
        gen.seed = 600 + seed;
        gen.interleave = 0.5;
        Program program = perturbProgram(
            randomDeadlockFreeProgram(topo, gen), 2, seed);
        MachineSpec s = spec(topo, 1 + seed % 2, 1);

        SessionOptions options; // event kernel
        SimSession donor(program, s, options);
        SimSession twin(program, s, options);
        RunLog donorLog(program);
        RunRequest request;
        request.policy = PolicyKind::kRandom;
        request.seed = seed;
        request.maxCycles = 20'000;
        RunRequest paused = observedBy(donorLog, request);
        paused.pauseAt = 5;

        RunResult r = donor.run(paused);
        if (r.status != RunStatus::kPaused)
            continue; // run ended before the checkpoint; nothing to test
        RunLog twinLog = donorLog;
        ASSERT_TRUE(handOff(donor, twin, request, twinLog));
        const std::string ctx = "random policy seed " + std::to_string(seed);
        expectSameRunResult(donor.resume(), twin.resume(), ctx);
        expectSameLog(donorLog, twinLog, ctx);
    }
}

TEST(ArenaCheckpoint, SweepWorkersUnaffectedByPausedRequests)
{
    // A pauseAt request in a sweep just yields a truncated result;
    // the worker slot's session must reset cleanly for the cell it
    // runs next. The random policy reads its seed, so the eight
    // requests are eight distinct cells the sweep must each simulate.
    Topology topo = Topology::linearArray(5);
    GenOptions gen;
    gen.numMessages = 5;
    gen.maxWords = 4;
    gen.seed = 13;
    Program program = randomDeadlockFreeProgram(topo, gen);
    MachineSpec s = spec(topo, 2, 1);

    std::vector<RunRequest> requests;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        RunRequest request;
        request.policy = PolicyKind::kRandom;
        request.seed = seed;
        if (seed % 3 == 0)
            request.pauseAt = 4;
        requests.push_back(request);
    }
    sim::ShapeSweepOptions threads;
    threads.numWorkers = 2;
    sim::ShapeSweepResult sweep =
        sim::ShapeSweep(program, topo, {{"", 2, 1}}, threads).run(requests);
    EXPECT_EQ(sweep.rowsShared, 0u);

    SimSession serial(program, s);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        RunResult expected = serial.run(requests[i]);
        expectSameRunResult(expected, sweep.rows[i].result,
                         "request " + std::to_string(i));
    }
    EXPECT_EQ(sweep.shapeSummary(0)
                  .statusCounts[static_cast<int>(RunStatus::kPaused)],
              2);
}

} // namespace
} // namespace syscomm
