/**
 * @file
 * SimSession / one-shape ShapeSweep coverage: the compile-once/
 * run-many entry point must be indistinguishable from a fresh session
 * on every run, across interleaved seeds and policies; a threaded
 * one-shape sweep must equal a serial loop over the same requests; and
 * an attached observer must see every event without perturbing any
 * counter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algos/paper_figures.h"
#include "core/program_gen.h"
#include "serve/json.h"
#include "serve/lint.h"
#include "sim/session.h"
#include "sim/shape_sweep.h"
#include "test_support.h"

namespace syscomm {
namespace {

using sim::KernelKind;
using sim::PolicyKind;
using sim::RunRequest;
using sim::RunLog;
using sim::RunResult;
using sim::RunStatus;
using sim::SessionOptions;
using sim::ShapeSweep;
using sim::ShapeSweepOptions;
using sim::ShapeSweepResult;
using sim::SimSession;
using sim::SweepSummary;

/** A seed-sensitive workload: perturbed program under unsafe policies
 *  (covers both completed and deadlocked runs). */
Program
perturbedProgram(std::uint64_t seed)
{
    Topology topo = Topology::linearArray(5);
    GenOptions gen;
    gen.numMessages = 6;
    gen.maxWords = 4;
    gen.seed = 200 + seed;
    gen.interleave = 0.5;
    Program p = randomDeadlockFreeProgram(topo, gen);
    return perturbProgram(p, static_cast<int>(1 + seed % 4), seed);
}

MachineSpec
smallSpec(int cells, int queues, int capacity)
{
    MachineSpec spec;
    spec.topo = Topology::linearArray(cells);
    spec.queuesPerLink = queues;
    spec.queueCapacity = capacity;
    return spec;
}

// ---------------------------------------------------------------------
// (a) run -> reset -> run is bit-identical to a fresh simulator
// ---------------------------------------------------------------------

TEST(SimSession, RerunIsBitIdenticalToFreshSimulator)
{
    for (KernelKind kernel :
         {KernelKind::kEventDriven, KernelKind::kReference}) {
        for (PolicyKind policy :
             {PolicyKind::kCompatible, PolicyKind::kFcfs,
              PolicyKind::kRandom}) {
            Program p = perturbedProgram(3);
            MachineSpec spec = smallSpec(5, 2, 1);

            SessionOptions session;
            session.kernel = kernel;
            SimSession reused(p, spec, session);

            RunRequest request;
            request.policy = policy;
            request.seed = 7;
            request.maxCycles = 20'000;

            RunLog firstLog(p);
            RunLog secondLog(p);
            RunLog thirdLog(p);
            RunLog freshLog(p);
            RunResult first = reused.run(observedBy(firstLog, request));
            RunResult second = reused.run(observedBy(secondLog, request));
            RunResult third = reused.run(observedBy(thirdLog, request));
            RunResult fresh = SimSession(p, spec, session)
                                  .run(observedBy(freshLog, request));

            std::string ctx =
                std::string("kernel=") + sim::kernelKindName(kernel) +
                " policy=" + sim::policyKindName(policy);
            expectSameRunResult(second, first, ctx + " (2nd vs 1st)");
            expectSameLog(secondLog, firstLog, ctx + " (2nd vs 1st)");
            expectSameRunResult(third, first, ctx + " (3rd vs 1st)");
            expectSameLog(thirdLog, firstLog, ctx + " (3rd vs 1st)");
            expectSameRunResult(first, fresh, ctx + " (session vs fresh)");
            expectSameLog(firstLog, freshLog, ctx + " (session vs fresh)");
        }
    }
    EXPECT_NE(perturbedProgram(3).numMessages(), 0);
}

// ---------------------------------------------------------------------
// (b) interleaved different-seed runs don't leak state
// ---------------------------------------------------------------------

TEST(SimSession, InterleavedSeedsDoNotLeakState)
{
    Program p = perturbedProgram(5);
    MachineSpec spec = smallSpec(5, 1, 1);

    SimSession session(p, spec);
    const std::uint64_t seeds[] = {1, 2, 9, 4, 2, 1, 9};

    // Fresh baselines per seed.
    std::vector<RunResult> fresh;
    std::vector<RunLog> freshLogs(std::size(seeds), RunLog(p));
    for (std::size_t i = 0; i < std::size(seeds); ++i) {
        RunRequest request;
        request.policy = PolicyKind::kRandom;
        request.seed = seeds[i];
        request.maxCycles = 20'000;
        fresh.push_back(
            SimSession(p, spec).run(observedBy(freshLogs[i], request)));
    }

    // The same seeds interleaved through one session, recorded by one
    // reused log.
    RunLog log(p);
    for (std::size_t i = 0; i < std::size(seeds); ++i) {
        RunRequest request;
        request.policy = PolicyKind::kRandom;
        request.seed = seeds[i];
        request.maxCycles = 20'000;
        log.clear();
        RunResult r = session.run(observedBy(log, request));
        const std::string ctx = "seed=" + std::to_string(seeds[i]) +
                                " pos=" + std::to_string(i);
        expectSameRunResult(r, fresh[i], ctx);
        expectSameLog(log, freshLogs[i], ctx);
    }
    EXPECT_EQ(session.runCount(), static_cast<int>(std::size(seeds)));
}

TEST(SimSession, InterleavedPoliciesDoNotLeakState)
{
    Program p = perturbedProgram(2);
    MachineSpec spec = smallSpec(5, 2, 1);
    SimSession session(p, spec);

    const PolicyKind order[] = {
        PolicyKind::kCompatible, PolicyKind::kFcfs, PolicyKind::kRandom,
        PolicyKind::kCompatibleEager, PolicyKind::kCompatible,
        PolicyKind::kRandom, PolicyKind::kFcfs};
    for (PolicyKind policy : order) {
        RunRequest request;
        request.policy = policy;
        request.seed = 11;
        request.maxCycles = 20'000;
        RunLog log(p);
        RunLog freshLog(p);
        RunResult r = session.run(observedBy(log, request));
        RunResult fresh =
            SimSession(p, spec).run(observedBy(freshLog, request));
        const std::string ctx =
            std::string("policy=") + sim::policyKindName(policy);
        expectSameRunResult(r, fresh, ctx);
        expectSameLog(log, freshLog, ctx);
    }
}

// ---------------------------------------------------------------------
// (c) a one-shape ShapeSweep == serial loop over the same requests
// ---------------------------------------------------------------------

/** Policies x seeds, every request distinct: the seed also moves the
 *  (never reached) cycle budget, so even unobserved, ShapeSweep could
 *  not copy the rows of seed-blind policies and simulates every cell
 *  on the workers. */
std::vector<RunRequest>
mixedRequests()
{
    std::vector<RunRequest> requests;
    const PolicyKind policies[] = {PolicyKind::kCompatible,
                                   PolicyKind::kFcfs, PolicyKind::kRandom};
    for (PolicyKind policy : policies) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            RunRequest request;
            request.policy = policy;
            request.seed = seed;
            request.maxCycles = 20'000 + seed;
            requests.push_back(request);
        }
    }
    return requests;
}

TEST(OneShapeSweep, MatchesSerialLoop)
{
    Program p = perturbedProgram(7);
    MachineSpec spec = smallSpec(5, 2, 1);
    std::vector<RunRequest> requests = mixedRequests();

    // Serial loop through one session.
    SimSession serial(p, spec);
    std::vector<RunLog> serialLogs;
    std::vector<RunResult> serialResults;
    for (const RunRequest& request : observeEach(requests, serialLogs, p))
        serialResults.push_back(serial.run(request));

    for (int workers : {1, 2, 4}) {
        ShapeSweepOptions sweepOptions;
        sweepOptions.numWorkers = workers;
        ShapeSweep sweep(p, spec.topo, {{"", 2, 1}}, sweepOptions);
        std::vector<RunLog> logs;
        ShapeSweepResult result = sweep.run(observeEach(requests, logs, p));
        SweepSummary summary = result.shapeSummary(0);

        ASSERT_EQ(summary.results.size(), requests.size());
        EXPECT_EQ(result.workersUsed, workers);
        EXPECT_EQ(result.rowsShared, 0u);
        for (std::size_t i = 0; i < requests.size(); ++i) {
            const std::string ctx = "workers=" + std::to_string(workers) +
                                    " request=" + std::to_string(i);
            expectSameRunResult(summary.results[i], serialResults[i], ctx);
            expectSameLog(logs[i], serialLogs[i], ctx);
        }

        // Aggregates equal the serial aggregation too.
        SweepSummary serialSummary =
            sim::summarizeSweep(std::move(serialResults), requests);
        EXPECT_EQ(summary.completed(), serialSummary.completed());
        EXPECT_EQ(summary.deadlocked(), serialSummary.deadlocked());
        EXPECT_EQ(summary.p50Cycles, serialSummary.p50Cycles);
        EXPECT_EQ(summary.p90Cycles, serialSummary.p90Cycles);
        EXPECT_EQ(summary.p99Cycles, serialSummary.p99Cycles);
        EXPECT_EQ(summary.minCycles, serialSummary.minCycles);
        EXPECT_EQ(summary.maxCycles, serialSummary.maxCycles);
        EXPECT_DOUBLE_EQ(summary.meanCycles, serialSummary.meanCycles);
        ASSERT_EQ(summary.perPolicy.size(),
                  serialSummary.perPolicy.size());
        for (std::size_t k = 0; k < summary.perPolicy.size(); ++k) {
            EXPECT_EQ(summary.perPolicy[k].policy,
                      serialSummary.perPolicy[k].policy);
            EXPECT_EQ(summary.perPolicy[k].runs,
                      serialSummary.perPolicy[k].runs);
            EXPECT_EQ(summary.perPolicy[k].completed,
                      serialSummary.perPolicy[k].completed);
            EXPECT_EQ(summary.perPolicy[k].deadlocked,
                      serialSummary.perPolicy[k].deadlocked);
            EXPECT_DOUBLE_EQ(summary.perPolicy[k].meanCycles,
                             serialSummary.perPolicy[k].meanCycles);
        }
        serialResults = std::move(serialSummary.results);
    }
}

TEST(OneShapeSweep, PersistentPoolKeepsBatchesDeterministic)
{
    // Many small batches through one sweep: the pool threads are
    // spawned by the first threaded batch and reused by every later
    // one (pooledWorkers never shrinks), interleaved batch shapes —
    // including single-request batches that run inline — do not
    // perturb results, and every batch matches the serial loop
    // bit for bit.
    Program p = perturbedProgram(7);
    MachineSpec spec = smallSpec(5, 2, 1);
    std::vector<RunRequest> requests = mixedRequests();

    SimSession serial(p, spec);
    std::vector<RunLog> serialLogs;
    std::vector<RunResult> serialResults;
    for (const RunRequest& request : observeEach(requests, serialLogs, p))
        serialResults.push_back(serial.run(request));

    ShapeSweepOptions sweepOptions;
    sweepOptions.numWorkers = 3;
    ShapeSweep sweep(p, spec.topo, {{"", 2, 1}}, sweepOptions);
    EXPECT_EQ(sweep.pooledWorkers(), 0); // lazily spawned

    for (int batch = 0; batch < 4; ++batch) {
        std::vector<RunLog> logs;
        ShapeSweepResult result = sweep.run(observeEach(requests, logs, p));
        EXPECT_EQ(sweep.pooledWorkers(), 2); // workers - 1, persistent
        ASSERT_EQ(result.rows.size(), requests.size());
        EXPECT_EQ(result.rowsShared, 0u);
        for (std::size_t i = 0; i < requests.size(); ++i) {
            const std::string ctx = "batch=" + std::to_string(batch) +
                                    " request=" + std::to_string(i);
            expectSameRunResult(result.rows[i].result, serialResults[i],
                                ctx);
            expectSameLog(logs[i], serialLogs[i], ctx);
        }

        // An inline single-request batch between threaded ones.
        RunLog oneLog(p);
        std::vector<RunRequest> one{observedBy(oneLog, requests[batch])};
        ShapeSweepResult single = sweep.run(one);
        ASSERT_EQ(single.rows.size(), 1u);
        EXPECT_EQ(single.workersUsed, 1);
        const std::string ctx = "inline batch=" + std::to_string(batch);
        expectSameRunResult(single.rows.front().result, serialResults[batch],
                            ctx);
        expectSameLog(oneLog, serialLogs[batch], ctx);
        EXPECT_EQ(sweep.pooledWorkers(), 2); // pool never shed
    }
}

TEST(OneShapeSweep, StatusHistogramCoversDeadlocks)
{
    // Fig. 7 at one queue per link: the compatible policy completes,
    // FCFS jams — the histogram must see both terminal states.
    Program p = algos::fig7Program();
    std::vector<RunRequest> requests;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        RunRequest request;
        request.policy =
            seed % 2 ? PolicyKind::kFcfs : PolicyKind::kCompatible;
        request.seed = seed;
        request.maxCycles = 20'000 + seed; // distinct: no shared rows
        requests.push_back(request);
    }
    ShapeSweepOptions sweepOptions;
    sweepOptions.numWorkers = 4;
    ShapeSweep sweep(p, algos::fig7Topology(), {{"", 1, 1}}, sweepOptions);
    ShapeSweepResult result = sweep.run(requests);
    EXPECT_EQ(result.rowsShared, 0u);
    SweepSummary summary = result.shapeSummary(0);
    EXPECT_EQ(summary.completed(), 6);
    EXPECT_EQ(summary.deadlocked(), 6);
    ASSERT_EQ(summary.perPolicy.size(), 2u);
    EXPECT_EQ(summary.perPolicy[0].policy, PolicyKind::kCompatible);
    EXPECT_EQ(summary.perPolicy[0].completed, 6);
    EXPECT_EQ(summary.perPolicy[1].policy, PolicyKind::kFcfs);
    EXPECT_EQ(summary.perPolicy[1].deadlocked, 6);
    EXPECT_FALSE(summary.str().empty());
}

TEST(SweepSummary, PrintedHistogramCoversEveryStatusIncludingPaused)
{
    // A paused run in a batch must appear in the printed report: the
    // histogram line is generated from runStatusName over all
    // kNumRunStatuses buckets, so a status added later cannot be
    // silently dropped (kPaused was, before this printed by name).
    std::vector<RunResult> results(sim::kNumRunStatuses);
    for (int s = 0; s < sim::kNumRunStatuses; ++s)
        results[s].status = static_cast<RunStatus>(s);
    std::vector<RunRequest> requests(results.size());
    SweepSummary summary =
        sim::summarizeSweep(std::move(results), requests);
    const std::string text = summary.str();
    for (int s = 0; s < sim::kNumRunStatuses; ++s) {
        const std::string bucket =
            std::string(sim::runStatusName(static_cast<RunStatus>(s))) +
            " 1";
        EXPECT_NE(text.find(bucket), std::string::npos)
            << "missing bucket '" << bucket << "' in:\n"
            << text;
    }
}

TEST(SweepSummary, AllErrorBatchHasNoFabricatedCycleDistribution)
{
    // Every run a config error: there is no cycle distribution, and
    // the order statistics must say so (-1) instead of computing
    // percentiles of an empty vector (UB) or faking a 0.
    std::vector<RunResult> results(3);
    std::vector<RunRequest> requests(3);
    SweepSummary summary =
        sim::summarizeSweep(std::move(results), requests);
    EXPECT_EQ(summary.minCycles, -1);
    EXPECT_EQ(summary.maxCycles, -1);
    EXPECT_EQ(summary.p50Cycles, -1);
    EXPECT_EQ(summary.p90Cycles, -1);
    EXPECT_EQ(summary.p99Cycles, -1);
    EXPECT_DOUBLE_EQ(summary.meanCycles, 0.0);
    EXPECT_EQ(summary.statusCounts[static_cast<int>(
                  RunStatus::kConfigError)],
              3);
    EXPECT_FALSE(summary.str().empty());
}

// ---------------------------------------------------------------------
// (d) an observer records the run without changing it
// ---------------------------------------------------------------------

TEST(SimSession, ObserverDoesNotChangeTheRun)
{
    Program p = perturbedProgram(4);
    MachineSpec spec = smallSpec(5, 2, 2);
    SimSession session(p, spec);

    RunRequest bare;
    bare.seed = 3;
    bare.maxCycles = 20'000;
    RunLog log(p);
    RunResult observed = session.run(observedBy(log, bare));
    RunResult unobserved = session.run(bare);
    expectSameRunResult(unobserved, observed, "observed vs bare");

    // The log holds exactly what the counters count.
    EXPECT_FALSE(log.events.empty());
    EXPECT_FALSE(log.releases.empty());
    EXPECT_EQ(static_cast<std::int64_t>(log.events.size()),
              observed.stats.assignments);
    EXPECT_EQ(static_cast<std::int64_t>(log.releases.size()),
              observed.stats.releases);
    std::int64_t received = 0;
    for (const std::vector<double>& values : log.received)
        received += static_cast<std::int64_t>(values.size());
    EXPECT_EQ(received, observed.stats.wordsDelivered);
    ASSERT_EQ(log.msgTiming.size(),
              static_cast<std::size_t>(p.numMessages()));
    EXPECT_TRUE(std::any_of(log.msgTiming.begin(), log.msgTiming.end(),
                            [](const std::pair<Cycle, Cycle>& t) {
                                return t.first >= 0;
                            }));
}

// ---------------------------------------------------------------------
// Observer streaming
// ---------------------------------------------------------------------

/** An observer that keeps its own record of every hook. */
class RecordingObserver : public sim::RunObserver
{
  public:
    struct Word
    {
        MessageId msg;
        int seq;
        double value;
        Cycle now;
    };

    void onAssign(const sim::AssignmentEvent& e) override
    {
        assigns.push_back(e);
    }
    void onRelease(const sim::AssignmentEvent& e) override
    {
        releases.push_back(e);
    }
    void onSend(MessageId msg, int seq, double value, Cycle now) override
    {
        sends.push_back({msg, seq, value, now});
    }
    void onDeliver(MessageId msg, int seq, double value, Cycle now) override
    {
        deliveries.push_back({msg, seq, value, now});
    }

    std::vector<sim::AssignmentEvent> assigns;
    std::vector<sim::AssignmentEvent> releases;
    std::vector<Word> sends;
    std::vector<Word> deliveries;
};

TEST(SimSession, CustomObserverSeesWhatRunLogRecords)
{
    Program p = perturbedProgram(1);
    MachineSpec spec = smallSpec(5, 2, 1);
    SimSession session(p, spec);

    RunRequest request;
    request.seed = 2;
    request.maxCycles = 20'000;
    RunLog log(p);
    RunResult logged = session.run(observedBy(log, request));

    RecordingObserver observer;
    request.observer = &observer;
    RunResult streamed = session.run(request);
    expectSameRunResult(streamed, logged, "custom observer vs RunLog");

    EXPECT_EQ(observer.assigns, log.events);
    EXPECT_EQ(observer.releases, log.releases);

    // Each message's words are sent in sequence; word 0's send cycle
    // is the log's first-sent cycle.
    std::vector<int> nextSeq(p.numMessages(), 0);
    std::vector<Cycle> firstSent(p.numMessages(), -1);
    for (const RecordingObserver::Word& w : observer.sends) {
        EXPECT_EQ(w.seq, nextSeq[w.msg]++);
        if (w.seq == 0)
            firstSent[w.msg] = w.now;
    }
    // Deliveries arrive in sequence, with the values the log kept.
    std::vector<std::vector<double>> received(p.numMessages());
    for (const RecordingObserver::Word& w : observer.deliveries) {
        EXPECT_EQ(w.seq, static_cast<int>(received[w.msg].size()));
        received[w.msg].push_back(w.value);
    }
    EXPECT_EQ(received, log.received);
    EXPECT_EQ(static_cast<std::int64_t>(observer.deliveries.size()),
              logged.stats.wordsDelivered);
    for (MessageId m = 0; m < p.numMessages(); ++m) {
        EXPECT_EQ(firstSent[m], log.msgTiming[m].first) << "message " << m;
        EXPECT_GE(nextSeq[m], static_cast<int>(received[m].size()));
    }
}

// ---------------------------------------------------------------------
// Config errors don't poison the session
// ---------------------------------------------------------------------

TEST(SimSession, RecoversAfterPolicyConfigError)
{
    // Static assignment on a 1-queue machine with competing messages
    // fails at cycle 0; the next run on the same session must be
    // unaffected.
    Program p = perturbedProgram(6);
    MachineSpec spec = smallSpec(5, 1, 1);
    SimSession session(p, spec);

    RunRequest bad;
    bad.policy = PolicyKind::kStatic;
    bad.maxCycles = 20'000;
    RunResult failed = session.run(bad);
    ASSERT_EQ(failed.status, RunStatus::kConfigError);
    EXPECT_FALSE(failed.error.empty());

    RunRequest good;
    good.policy = PolicyKind::kCompatible;
    good.maxCycles = 20'000;
    RunLog afterLog(p);
    RunLog freshLog(p);
    RunResult after = session.run(observedBy(afterLog, good));
    RunResult fresh =
        SimSession(p, spec).run(observedBy(freshLog, good));
    expectSameRunResult(after, fresh, "run after config error");
    expectSameLog(afterLog, freshLog, "run after config error");
}

TEST(SimSession, StaticCycleZeroEventsKeepAscendingLinkOrder)
{
    // The pre-session simulator set links up in ascending order at
    // cycle 0; the routed-links-only loop must preserve that order in
    // the event log.
    Program p(4);
    MessageId m = p.declareMessage("M", 0, 3); // crosses links 0,1,2
    p.write(0, m);
    p.read(3, m);
    MachineSpec spec = smallSpec(4, 1, 1);

    SimSession session(p, spec);
    RunRequest request;
    request.policy = PolicyKind::kStatic;
    RunLog log(p);
    RunResult r = session.run(observedBy(log, request));
    ASSERT_EQ(r.status, RunStatus::kCompleted);
    ASSERT_EQ(log.events.size(), 3u);
    for (std::size_t i = 0; i < log.events.size(); ++i) {
        EXPECT_EQ(log.events[i].cycle, 0);
        EXPECT_EQ(log.events[i].link, static_cast<LinkIndex>(i));
    }
}

TEST(SimSession, ObserverSeesSetupBeforeAConfigError)
{
    // Static setup fully succeeds on link 0 (one crossing, one
    // queue) and then fails on link 1 (two competing crossings): the
    // observer has already seen link 0's cycle-0 assignment, and only
    // that one.
    Program p(3);
    MessageId a = p.declareMessage("A", 0, 1);
    MessageId b = p.declareMessage("B", 1, 2);
    MessageId c = p.declareMessage("C", 1, 2);
    p.write(0, a);
    p.read(1, a);
    p.write(1, b);
    p.read(2, b);
    p.write(1, c);
    p.read(2, c);
    MachineSpec spec = smallSpec(3, 1, 1);

    SimSession session(p, spec);
    RunRequest bad;
    bad.policy = PolicyKind::kStatic;
    RunLog log(p);
    RunResult r = session.run(observedBy(log, bad));
    ASSERT_EQ(r.status, RunStatus::kConfigError);
    ASSERT_EQ(log.events.size(), 1u);
    EXPECT_EQ(log.events[0].cycle, 0);
    EXPECT_EQ(log.events[0].link, 0);
    EXPECT_EQ(log.events[0].msg, a);
    EXPECT_TRUE(log.releases.empty());
}

TEST(SimSession, InvalidProgramReportsConfigErrorEveryRun)
{
    Program p(2);
    p.declareMessage("M", 0, 0); // sender == receiver: validation fails
    MachineSpec spec = smallSpec(2, 2, 1);

    SimSession session(p, spec);
    EXPECT_FALSE(session.valid());
    EXPECT_FALSE(session.error().empty());
    for (int i = 0; i < 2; ++i) {
        RunResult r = session.run({});
        EXPECT_EQ(r.status, RunStatus::kConfigError);
        EXPECT_FALSE(r.error.empty());
    }
}

TEST(SimSession, UnroutableMessageIsAConfigError)
{
    // A valid program on two cells with no link between them: X has
    // no route, so no run can start, and none may crash trying.
    Program p(2);
    const MessageId x = p.declareMessage("X", 0, 1);
    p.write(0, x);
    p.read(1, x);
    MachineSpec spec;
    spec.topo = Topology::custom(2, {});

    SimSession session(p, spec);
    EXPECT_FALSE(session.compiled()->valid());
    EXPECT_FALSE(session.valid());
    EXPECT_NE(session.error().find("X has no route"), std::string::npos)
        << session.error();
    EXPECT_TRUE(session.labels().empty());
    for (PolicyKind policy : {PolicyKind::kCompatible, PolicyKind::kFcfs}) {
        RunRequest request;
        request.policy = policy;
        const RunResult r = session.run(request);
        EXPECT_EQ(r.status, RunStatus::kConfigError);
        EXPECT_EQ(r.error, session.error());
    }

    // The analysis of the same compile names the message (SL002).
    const auto report = session.compiled()->analysis(spec);
    EXPECT_EQ(report->verdict, LintVerdict::kInvalid);
    ASSERT_FALSE(report->diagnostics.empty());
    EXPECT_EQ(report->diagnostics.front().rule,
              LintRule::kUnroutableMessage);
    EXPECT_EQ(report->diagnostics.front().msg, x);
}

// ---------------------------------------------------------------------
// CompiledProgram: the shared default labeling and static analysis
// ---------------------------------------------------------------------

/** A report as text plus its lint JSON (every field the wire sees). */
std::string
reportText(const AnalysisReport& report, const Program& program)
{
    return report.render(program) +
           serve::writeJson(serve::lintReportJson(report, program));
}

TEST(CompiledProgram, ConcurrentAnalysesAndLabelsMatchSerialOnes)
{
    // Threads race on one fresh CompiledProgram (labels are lazy):
    // the first to arrive derives the program facts, and with them
    // the default labeling that labels() also returns, while the
    // others ask for other shapes or for the labels. Every answer
    // must be what one thread asking in turn gets. The programs: a
    // clean mesh program, a perturbed one free only with lookahead
    // buffering (its labeling falls back), and a deadlocked one.
    const Topology mesh = Topology::mesh(4, 4);
    GenOptions gen;
    gen.numMessages = 24;
    gen.seed = 5;
    gen.interleave = 0.3;
    const Program clean = randomDeadlockFreeProgram(mesh, gen);
    const Program fallback = perturbProgram(clean, 4, 2);
    const Program deadlocked = perturbedProgram(3);
    const std::pair<const Program*, Topology> cases[] = {
        {&clean, mesh},
        {&fallback, mesh},
        {&deadlocked, Topology::linearArray(5)},
    };
    const int kThreads = 4;
    for (const auto& [program, topo] : cases) {
        std::vector<MachineSpec> shapes;
        for (int queues = 1; queues <= 3; ++queues) {
            for (int capacity = 1; capacity <= 2; ++capacity) {
                MachineSpec spec;
                spec.topo = topo;
                spec.queuesPerLink = queues;
                spec.queueCapacity = capacity;
                shapes.push_back(spec);
            }
        }
        const int kShapes = static_cast<int>(shapes.size());
        const auto serial = sim::CompiledProgram::compile(*program, topo);
        std::vector<std::string> expected;
        for (const MachineSpec& spec : shapes)
            expected.push_back(reportText(*serial->analysis(spec), *program));
        const std::vector<std::int64_t> expectedLabels = serial->labels();

        const auto shared = sim::CompiledProgram::compile(*program, topo);
        std::vector<std::vector<std::string>> seen(
            kThreads, std::vector<std::string>(kShapes));
        std::vector<std::vector<std::int64_t>> labels(kThreads);
        std::atomic<int> ready{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                ready.fetch_add(1);
                while (ready.load() < kThreads) {
                }
                if (t % 2 == 1)
                    labels[t] = shared->labels();
                for (int i = 0; i < kShapes; ++i) {
                    const int k = (t + i) % kShapes;
                    seen[t][k] = reportText(*shared->analysis(shapes[k]),
                                            *program);
                }
                if (t % 2 == 0)
                    labels[t] = shared->labels();
            });
        }
        for (std::thread& thread : threads)
            thread.join();
        for (int t = 0; t < kThreads; ++t) {
            EXPECT_EQ(labels[t], expectedLabels) << "thread " << t;
            for (int k = 0; k < kShapes; ++k)
                EXPECT_EQ(seen[t][k], expected[k])
                    << "thread " << t << " shape " << k;
        }
    }
}

// ---------------------------------------------------------------------
// Session labels & per-run overrides
// ---------------------------------------------------------------------

TEST(SimSession, RunLabelOverridesDoNotStickToTheSession)
{
    Program p = perturbedProgram(8);
    MachineSpec spec = smallSpec(5, 2, 1);
    SimSession session(p, spec);

    RunRequest plain;
    plain.maxCycles = 20'000;
    RunLog beforeLog(p);
    RunResult before = session.run(observedBy(beforeLog, plain));

    // Trivial all-equal labels for one run only.
    RunRequest trivial = plain;
    trivial.labels.assign(p.numMessages(), 0);
    RunResult overridden = session.run(trivial);
    EXPECT_EQ(overridden.labelsUsed, trivial.labels);

    RunLog afterLog(p);
    RunResult after = session.run(observedBy(afterLog, plain));
    expectSameRunResult(after, before, "after label override");
    expectSameLog(afterLog, beforeLog, "after label override");
}

TEST(SimSession, LabelFreeRunsAreHistoryIndependent)
{
    Program p = perturbedProgram(9);
    MachineSpec spec = smallSpec(5, 2, 1);
    SimSession session(p, spec);

    RunRequest fcfs;
    fcfs.policy = PolicyKind::kFcfs;
    fcfs.maxCycles = 20'000;
    RunLog beforeLog(p);
    RunResult before = session.run(observedBy(beforeLog, fcfs));
    EXPECT_TRUE(before.labelsUsed.empty());

    // A compatible run resolves the session labels...
    RunRequest compat;
    compat.maxCycles = 20'000;
    EXPECT_FALSE(session.run(compat).labelsUsed.empty());

    // ...but an identical label-free request still reports none, and
    // matches both its own first run and a fresh session.
    RunLog afterLog(p);
    RunResult after = session.run(observedBy(afterLog, fcfs));
    expectSameRunResult(after, before, "fcfs after compatible");
    expectSameLog(afterLog, beforeLog, "fcfs after compatible");

    RunLog freshLog(p);
    RunResult fresh =
        SimSession(p, spec).run(observedBy(freshLog, fcfs));
    EXPECT_TRUE(fresh.labelsUsed.empty());
    EXPECT_EQ(after.labelsUsed, fresh.labelsUsed);
    EXPECT_EQ(afterLog.events, freshLog.events);

    // A per-run label override handed to a label-free policy is still
    // echoed in labelsUsed.
    RunRequest withLabels = fcfs;
    withLabels.labels.assign(p.numMessages(), 0);
    EXPECT_EQ(SimSession(p, spec).run(withLabels).labelsUsed,
              withLabels.labels);
}

// ---------------------------------------------------------------------
// (h) pooled workers with per-worker arenas, interleaved across
//     machine shapes
// ---------------------------------------------------------------------

TEST(OneShapeSweep, InterleavedMultiShapeBatchesMatchSerial)
{
    // Three one-shape sweeps over three machine *shapes* (queue count
    // / capacity / extension ladders), each with its own persistent
    // worker pool and per-worker arena-backed sessions. Batches are
    // fed to the sweeps round-robin — the interleaving a shape-ladder
    // sweep produces — and every result must equal a serial
    // SimSession loop. Run under TSan in CI: any sharing of hot arena
    // state between workers (or stale state surviving the hand-off
    // between batches) is a race or a mismatch here.
    Program p = perturbedProgram(6);
    const sim::ShapeSpec shapes[] = {
        {"", 1, 1},
        {"", 2, 2},
        {"", 2, 1, 2, 3},
    };

    ShapeSweepOptions threaded;
    threaded.numWorkers = 3;
    const Topology topo = Topology::linearArray(5);
    std::vector<std::unique_ptr<ShapeSweep>> sweeps;
    std::vector<std::unique_ptr<SimSession>> serials;
    for (const sim::ShapeSpec& shape : shapes) {
        sweeps.push_back(std::make_unique<ShapeSweep>(
            p, topo, std::vector<sim::ShapeSpec>{shape}, threaded));
        serials.push_back(
            std::make_unique<SimSession>(p, sweeps.back()->spec(0)));
    }

    const PolicyKind policies[] = {PolicyKind::kCompatible,
                                   PolicyKind::kFcfs, PolicyKind::kRandom};
    for (int round = 0; round < 3; ++round) {
        std::vector<RunRequest> batch;
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            RunRequest request;
            request.policy = policies[(round + seed) % 3];
            request.seed = 100 * (round + 1) + seed;
            request.maxCycles = 20'000;
            batch.push_back(request);
        }
        for (std::size_t shape = 0; shape < sweeps.size(); ++shape) {
            std::vector<RunLog> logs;
            ShapeSweepResult sweep =
                sweeps[shape]->run(observeEach(batch, logs, p));
            ASSERT_EQ(sweep.rows.size(), batch.size());
            EXPECT_EQ(sweep.rowsShared, 0u);
            for (std::size_t i = 0; i < batch.size(); ++i) {
                const std::string ctx =
                    "round " + std::to_string(round) + " shape " +
                    std::to_string(shape) + " request " + std::to_string(i);
                RunLog serialLog(p);
                expectSameRunResult(
                    serials[shape]->run(observedBy(serialLog, batch[i])),
                    sweep.rows[i].result, ctx);
                expectSameLog(serialLog, logs[i], ctx);
            }
        }
    }
    for (const auto& sweep : sweeps)
        EXPECT_EQ(sweep->pooledWorkers(), 2); // 3 workers - lead thread
}

} // namespace
} // namespace syscomm
