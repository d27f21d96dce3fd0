/**
 * @file
 * Deterministic fault injection (sim/fault.h + the session injector).
 *
 * The contracts under test, in order of importance:
 *  - faulted runs are bit-identical across kernels, across repeated
 *    runs of one session, and across pause/resume and checkpoint
 *    save/restore boundaries that land mid-fault-schedule;
 *  - a frozen run with injected hardware implicated terminates
 *    kFaulted with fault attribution in the deadlock report, while
 *    transient faults (stalls) and survivable ones (degrades) let the
 *    run complete;
 *  - plans are plain, validated data: seeded generation is
 *    reproducible, invalid targets are a config error, and checkpoint
 *    streams are gated on the exact plan digest.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/fault.h"
#include "test_support.h"

namespace syscomm {
namespace {

using sim::FaultEvent;
using sim::FaultKind;
using sim::FaultPlan;
using sim::FaultPlanOptions;
using sim::KernelKind;
using sim::RunLog;
using sim::RunRequest;
using sim::RunResult;
using sim::RunStatus;
using sim::SessionOptions;
using sim::SimSession;

constexpr int kCells = 8;
constexpr int kStreams = 4;
constexpr int kWords = 16;

/** Ring transfer streams (i -> i+3): every route has a detour, and
 *  killing a routed link freezes words mid-flight. */
Program
ringStreams()
{
    Program p(kCells);
    for (int s = 0; s < kStreams; ++s) {
        CellId from = static_cast<CellId>((s * kCells) / kStreams);
        CellId to = static_cast<CellId>((from + 3) % kCells);
        MessageId id = p.declareMessage("S" + std::to_string(s), from, to);
        for (int w = 0; w < kWords; ++w)
            p.write(from, id);
        for (int w = 0; w < kWords; ++w)
            p.read(to, id);
    }
    return p;
}

MachineSpec
ringSpec()
{
    MachineSpec spec;
    spec.topo = Topology::ring(kCells);
    spec.queuesPerLink = 2;
    spec.queueCapacity = 2;
    return spec;
}

/** The first hop of stream S0 (0 -> 3 routes through 0--1). */
LinkIndex
firstHopLink(const MachineSpec& spec)
{
    auto l = spec.topo.linkBetween(0, 1);
    EXPECT_TRUE(l.has_value());
    return *l;
}

Cycle
baselineCycles(const Program& p, const MachineSpec& spec)
{
    SimSession session(p, spec);
    RunResult r = session.run({});
    EXPECT_EQ(r.status, RunStatus::kCompleted);
    return r.cycles;
}

// ---------------------------------------------------------------------
// plan data: generation, ordering, validation
// ---------------------------------------------------------------------

TEST(FaultPlan, SeededGenerationIsReproducibleAndValid)
{
    MachineSpec spec = ringSpec();
    FaultPlanOptions fo;
    fo.seed = 42;
    fo.numEvents = 12;
    fo.killCells = true;
    FaultPlan a = sim::randomFaultPlan(spec.topo, spec, fo);
    FaultPlan b = sim::randomFaultPlan(spec.topo, spec, fo);
    ASSERT_EQ(a.size(), 12u);
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_EQ(a.validate(spec.topo, spec), "");
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.events()[i].describe(), b.events()[i].describe());
        if (i > 0) {
            EXPECT_LE(a.events()[i - 1].cycle, a.events()[i].cycle);
        }
    }

    fo.seed = 43;
    FaultPlan c = sim::randomFaultPlan(spec.topo, spec, fo);
    EXPECT_NE(a.digest(), c.digest());
}

TEST(FaultPlan, AddKeepsByCycleOrderStable)
{
    FaultPlan plan;
    FaultEvent late;
    late.cycle = 20;
    late.kind = FaultKind::kKillLink;
    late.link = 1;
    FaultEvent early;
    early.cycle = 5;
    early.kind = FaultKind::kStallLink;
    early.link = 0;
    early.arg = 3;
    FaultEvent alsoLate;
    alsoLate.cycle = 20;
    alsoLate.kind = FaultKind::kKillLink;
    alsoLate.link = 2;
    plan.add(late);
    plan.add(early);
    plan.add(alsoLate);
    ASSERT_EQ(plan.size(), 3u);
    EXPECT_EQ(plan.events()[0].cycle, 5);
    // Same-cycle events keep insertion order.
    EXPECT_EQ(plan.events()[1].link, 1);
    EXPECT_EQ(plan.events()[2].link, 2);
}

TEST(FaultPlan, ValidateCatchesBadTargets)
{
    MachineSpec spec = ringSpec();
    {
        FaultPlan plan;
        FaultEvent e;
        e.kind = FaultKind::kKillLink;
        e.link = static_cast<LinkIndex>(spec.topo.numLinks());
        plan.add(e);
        EXPECT_NE(plan.validate(spec.topo, spec), "");
    }
    {
        FaultPlan plan;
        FaultEvent e;
        e.kind = FaultKind::kDegradeQueue;
        e.link = 0;
        e.queue = 0;
        e.arg = 0; // capacity must be >= 1
        plan.add(e);
        EXPECT_NE(plan.validate(spec.topo, spec), "");
    }
    {
        FaultPlan plan;
        FaultEvent e;
        e.kind = FaultKind::kKillCell;
        e.cell = static_cast<CellId>(kCells);
        plan.add(e);
        EXPECT_NE(plan.validate(spec.topo, spec), "");
    }
}

TEST(FaultInject, InvalidPlanIsConfigError)
{
    Program p = ringStreams();
    MachineSpec spec = ringSpec();
    FaultPlan plan;
    FaultEvent e;
    e.kind = FaultKind::kKillLink;
    e.link = static_cast<LinkIndex>(spec.topo.numLinks());
    plan.add(e);

    SimSession session(p, spec);
    RunRequest request;
    request.faults = &plan;
    RunResult r = session.run(request);
    EXPECT_EQ(r.status, RunStatus::kConfigError);
    EXPECT_NE(r.error.find("fault plan"), std::string::npos);

    // The session stays usable for healthy runs afterwards.
    EXPECT_EQ(session.run({}).status, RunStatus::kCompleted);
}

// ---------------------------------------------------------------------
// terminal semantics: kFaulted + attribution, stalls, degrades
// ---------------------------------------------------------------------

TEST(FaultInject, KilledRoutedLinkFaultsWithAttribution)
{
    Program p = ringStreams();
    MachineSpec spec = ringSpec();
    FaultPlan plan;
    FaultEvent e;
    e.cycle = 5;
    e.kind = FaultKind::kKillLink;
    e.link = firstHopLink(spec);
    plan.add(e);

    SimSession session(p, spec);
    RunRequest request;
    request.faults = &plan;
    RunResult r = session.run(request);
    ASSERT_EQ(r.status, RunStatus::kFaulted);
    EXPECT_FALSE(r.completed());
    ASSERT_FALSE(r.deadlock.faults.empty());
    const std::string report = r.deadlock.render(p);
    EXPECT_NE(report.find("implicated faults"), std::string::npos);
    EXPECT_NE(report.find("kill-link"), std::string::npos);
}

TEST(FaultInject, KilledCellFaultsWithAttribution)
{
    Program p = ringStreams();
    MachineSpec spec = ringSpec();
    FaultPlan plan;
    FaultEvent e;
    e.cycle = 5;
    e.kind = FaultKind::kKillCell;
    e.cell = 3; // S0's receiver: its program can never finish
    plan.add(e);

    SimSession session(p, spec);
    RunRequest request;
    request.faults = &plan;
    RunResult r = session.run(request);
    ASSERT_EQ(r.status, RunStatus::kFaulted);
    EXPECT_NE(r.deadlock.render(p).find("kill-cell"), std::string::npos);
}

TEST(FaultInject, StallExpiresAndRunCompletes)
{
    Program p = ringStreams();
    MachineSpec spec = ringSpec();
    const Cycle baseline = baselineCycles(p, spec);

    FaultPlan plan;
    FaultEvent e;
    e.cycle = 5;
    e.kind = FaultKind::kStallLink;
    e.link = firstHopLink(spec);
    // Short stalls vanish into queue slack; this one is long enough
    // that the pipeline must visibly pay for it.
    e.arg = 24;
    plan.add(e);

    SimSession session(p, spec);
    RunRequest request;
    request.faults = &plan;
    RunResult r = session.run(request);
    // A brown-out is never a death sentence: the run must outlive the
    // stall window and finish, slower than the healthy baseline.
    ASSERT_EQ(r.status, RunStatus::kCompleted);
    EXPECT_GT(r.cycles, baseline);
}

TEST(FaultInject, DegradedQueueSlowsButCompletes)
{
    Program p = ringStreams();
    MachineSpec spec = ringSpec();
    const Cycle baseline = baselineCycles(p, spec);
    const LinkIndex hop = firstHopLink(spec);

    FaultPlan plan;
    for (int q = 0; q < spec.queuesPerLink; ++q) {
        FaultEvent e;
        e.cycle = 3;
        e.kind = FaultKind::kDegradeQueue;
        e.link = hop;
        e.queue = q;
        e.arg = 1;
        plan.add(e);
    }

    SimSession session(p, spec);
    RunRequest request;
    request.faults = &plan;
    RunResult r = session.run(request);
    ASSERT_EQ(r.status, RunStatus::kCompleted);
    EXPECT_GE(r.cycles, baseline);
}

// ---------------------------------------------------------------------
// bit-identity: kernels, reruns, pause/resume, checkpoints
// ---------------------------------------------------------------------

/** Plans of rising intensity over seeded draws; killCells on so every
 *  event kind is exercised. */
std::vector<FaultPlan>
planGrid(const MachineSpec& spec, Cycle max_cycle)
{
    std::vector<FaultPlan> plans;
    for (int intensity : {1, 2, 4, 8}) {
        for (std::uint64_t seed = 0; seed < 4; ++seed) {
            FaultPlanOptions fo;
            fo.seed = 100 * static_cast<std::uint64_t>(intensity) + seed;
            fo.numEvents = intensity;
            fo.maxCycle = max_cycle;
            fo.killCells = true;
            plans.push_back(sim::randomFaultPlan(spec.topo, spec, fo));
        }
    }
    return plans;
}

/** Cycle of @p log's first assignment of @p msg on @p link (-1: none). */
Cycle
assignedAt(const RunLog& log, MessageId msg, LinkIndex link)
{
    for (const sim::AssignmentEvent& e : log.events) {
        if (e.msg == msg && e.link == link)
            return e.cycle;
    }
    return -1;
}

TEST(FaultInject, KernelsAndRerunsAgreeOnFaultedRuns)
{
    Program p = ringStreams();
    MachineSpec spec = ringSpec();
    const Cycle baseline = baselineCycles(p, spec);
    std::vector<FaultPlan> plans = planGrid(spec, baseline);

    // A fixed plan on top of the seeded grid: S0's second hop (1--2)
    // stalls on the cycle its request would have been served, so the
    // request waits out the stall on a link that nothing else touches.
    // The event kernel ticks a link's policy only after its state
    // changed; the stall's expiry is that change, so S0 must get its
    // queue on exactly the expiry cycle, as under the dense kernel.
    const LinkIndex secondHop = *spec.topo.linkBetween(1, 2);
    RunLog unfaulted(p);
    ASSERT_EQ(SimSession(p, spec).run(observedBy(unfaulted)).status,
              RunStatus::kCompleted);
    const Cycle served = assignedAt(unfaulted, 0, secondHop);
    ASSERT_GT(served, 1);
    constexpr int kStall = 5;
    {
        FaultPlan stall;
        FaultEvent e;
        e.cycle = served;
        e.kind = FaultKind::kStallLink;
        e.link = secondHop;
        e.arg = kStall;
        stall.add(e);
        plans.push_back(stall);
    }
    const std::size_t stallPlan = plans.size() - 1;

    SessionOptions eventOptions;
    eventOptions.kernel = KernelKind::kEventDriven;
    SessionOptions denseOptions;
    denseOptions.kernel = KernelKind::kReference;
    SimSession eventSession(p, spec, eventOptions);
    SimSession denseSession(p, spec, denseOptions);

    int faulted = 0;
    int completed = 0;
    for (std::size_t i = 0; i < plans.size(); ++i) {
        RunRequest request;
        request.faults = &plans[i];
        const std::string ctx = "plan " + std::to_string(i);
        RunLog eventLog(p);
        RunLog denseLog(p);
        RunResult event = eventSession.run(observedBy(eventLog, request));
        const std::uint64_t eventDigest = eventSession.machineDigest();
        RunResult dense = denseSession.run(observedBy(denseLog, request));
        expectSameRunResult(dense, event, ctx);
        expectSameLog(denseLog, eventLog, ctx);
        EXPECT_EQ(denseSession.machineDigest(), eventDigest) << ctx;
        if (i == stallPlan) {
            EXPECT_EQ(event.status, RunStatus::kCompleted) << ctx;
            EXPECT_EQ(assignedAt(eventLog, 0, secondHop), served + kStall)
                << ctx;
        }

        // Same session, same plan, again: bit-identical.
        RunResult rerun = eventSession.run(request);
        expectSameRunResult(rerun, event, ctx + " rerun");
        EXPECT_EQ(eventSession.machineDigest(), eventDigest) << ctx;

        faulted += event.status == RunStatus::kFaulted;
        completed += event.status == RunStatus::kCompleted;
    }
    // The grid must exercise both outcomes or the identity check
    // proves less than it claims.
    EXPECT_GT(faulted, 0);
    EXPECT_GT(completed, 0);
}

TEST(FaultInject, PauseResumeMidScheduleIsBitIdentical)
{
    Program p = ringStreams();
    MachineSpec spec = ringSpec();
    const Cycle baseline = baselineCycles(p, spec);
    std::vector<FaultPlan> plans = planGrid(spec, baseline);

    for (KernelKind kernel :
         {KernelKind::kEventDriven, KernelKind::kReference}) {
        SessionOptions options;
        options.kernel = kernel;
        SimSession oracle(p, spec, options);
        SimSession chopped(p, spec, options);
        for (std::size_t i = 0; i < plans.size(); ++i) {
            RunRequest request;
            request.faults = &plans[i];
            RunResult want = oracle.run(request);

            // Pause every few cycles so boundaries land between,
            // on, and after fault event cycles.
            RunRequest pausing = request;
            pausing.pauseAt = 3;
            RunResult got = chopped.run(pausing);
            while (got.status == RunStatus::kPaused)
                got = chopped.resume(got.cycles + 3);

            const std::string ctx = std::string(kernelKindName(kernel)) +
                                    " plan " + std::to_string(i);
            expectSameRunResult(got, want, ctx);
            EXPECT_EQ(chopped.machineDigest(), oracle.machineDigest())
                << ctx;
        }
    }
}

TEST(FaultInject, CheckpointRestoresMidScheduleAcrossKernels)
{
    Program p = ringStreams();
    MachineSpec spec = ringSpec();
    ASSERT_EQ(spec.extensionCapacity, 0);
    FaultPlan plan;
    {
        // One stall before the pause, one kill after it: the restore
        // must rebuild the applied prefix and still apply the rest.
        FaultEvent stall;
        stall.cycle = 4;
        stall.kind = FaultKind::kStallLink;
        stall.link = firstHopLink(spec);
        stall.arg = 6;
        plan.add(stall);
        FaultEvent kill;
        kill.cycle = 30;
        kill.kind = FaultKind::kKillLink;
        kill.link = firstHopLink(spec);
        plan.add(kill);
    }
    RunRequest request;
    request.faults = &plan;

    SimSession oracle(p, spec);
    RunResult want = oracle.run(request);
    ASSERT_EQ(want.status, RunStatus::kFaulted);

    // 8 is mid-stall: applied events + an active stall. 12 and 20
    // land while words are mid-forward: a 3-hop stream has more words
    // in flight than its final-hop queue holds, so one sits in an
    // earlier hop's queue, and the heir's forwarding reaches its
    // crossing through the slot the restore re-derived (a queue's
    // slot is not serialized).
    int midForwardPauses = 0;
    for (Cycle pauseAt : {Cycle{8}, Cycle{12}, Cycle{20}}) {
        const std::string at = "pause " + std::to_string(pauseAt);
        SimSession donor(p, spec);
        RunRequest paused = request;
        paused.pauseAt = pauseAt;
        RunResult snap = donor.run(paused);
        ASSERT_EQ(snap.status, RunStatus::kPaused) << at;
        std::vector<std::uint8_t> bytes;
        ASSERT_TRUE(donor.saveCheckpoint(bytes)) << at;

        // The progress header carries the plan digest.
        sim::CheckpointInfo info;
        ASSERT_TRUE(
            sim::peekCheckpointInfo(bytes.data(), bytes.size(), info));
        EXPECT_EQ(info.faultPlanDigest, plan.digest());
        EXPECT_EQ(info.cycles, snap.cycles);
        for (std::size_t m = 0; m < info.writeSeq.size(); ++m) {
            if (info.writeSeq[m] - info.readSeq[m] > spec.queueCapacity) {
                ++midForwardPauses;
                break;
            }
        }

        for (KernelKind kernel :
             {KernelKind::kEventDriven, KernelKind::kReference}) {
            const std::string ctx =
                at + " restored finish on " + kernelKindName(kernel);
            SessionOptions options;
            options.kernel = kernel;
            SimSession heir(p, spec, options);
            ASSERT_TRUE(heir.restoreCheckpoint(request, bytes)) << ctx;
            EXPECT_EQ(heir.machineDigest(), donor.machineDigest()) << ctx;
            RunResult got = heir.resume();
            expectSameRunResult(got, want, ctx);
            EXPECT_EQ(heir.machineDigest(), oracle.machineDigest())
                << ctx;
        }
    }
    EXPECT_EQ(midForwardPauses, 2);
}

TEST(FaultInject, CheckpointRejectsMissingOrMismatchedPlan)
{
    Program p = ringStreams();
    MachineSpec spec = ringSpec();
    FaultPlan plan;
    FaultEvent e;
    e.cycle = 30;
    e.kind = FaultKind::kKillLink;
    e.link = firstHopLink(spec);
    plan.add(e);
    RunRequest request;
    request.faults = &plan;

    SimSession donor(p, spec);
    RunRequest paused = request;
    paused.pauseAt = 8;
    ASSERT_EQ(donor.run(paused).status, RunStatus::kPaused);
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(donor.saveCheckpoint(bytes));

    SimSession heir(p, spec);
    // No plan on the restoring request: refused.
    RunRequest bare = request;
    bare.faults = nullptr;
    EXPECT_FALSE(heir.restoreCheckpoint(bare, bytes));
    // A different plan: refused.
    FaultPlan other = plan;
    FaultEvent extra = e;
    extra.cycle = 40;
    other.add(extra);
    RunRequest wrong = request;
    wrong.faults = &other;
    EXPECT_FALSE(heir.restoreCheckpoint(wrong, bytes));
    // The right plan still restores and finishes identically.
    ASSERT_TRUE(heir.restoreCheckpoint(request, bytes));
    SimSession oracle(p, spec);
    expectSameRunResult(heir.resume(), oracle.run(request),
                        "post-rejection restore");

    // And a healthy checkpoint refuses a faulted restore.
    SimSession healthy(p, spec);
    RunRequest healthyPaused;
    healthyPaused.pauseAt = 8;
    ASSERT_EQ(healthy.run(healthyPaused).status, RunStatus::kPaused);
    std::vector<std::uint8_t> healthyBytes;
    ASSERT_TRUE(healthy.saveCheckpoint(healthyBytes));
    SimSession mixed(p, spec);
    EXPECT_FALSE(mixed.restoreCheckpoint(request, healthyBytes));
}

} // namespace
} // namespace syscomm
