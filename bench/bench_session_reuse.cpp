/**
 * @file
 * Experiment S1: what compile-once/run-many buys. 64 seed-varied runs
 * of the 256-cell sparse/streaming workload through one SimSession
 * (state reset in place, no observer) vs 64 fresh one-shot
 * SimSessions (revalidate, relabel, reallocate and record every event
 * in a fresh RunLog per run), plus one-shape ShapeSweep
 * thread-scaling over 1/2/4/8 workers. Appends machine-readable
 * lines to BENCH_session.json.
 *
 * Usage: bench_session_reuse [--quick]
 *   --quick  CI smoke: fewer runs per mode, no full thread ladder.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/program.h"
#include "core/topology.h"
#include "sim/session.h"
#include "sim/shape_sweep.h"
#include "sim/trace.h"

namespace {

using namespace syscomm;
using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

MachineSpec
makeSpec(int cells)
{
    MachineSpec spec;
    spec.topo = Topology::linearArray(cells);
    spec.queuesPerLink = 2;
    spec.queueCapacity = 4;
    return spec;
}

} // namespace

int
main(int argc, char** argv)
{
    bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    if (argc > 1 && !quick) {
        std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
        return 2;
    }
    const int kCells = 256;
    const int kRuns = quick ? 16 : 64;
    const int kReps = quick ? 1 : 3; // repeat and keep the best

    bench::banner("S1", "SimSession reuse vs one-shot sessions, "
                        "256-cell sparse streaming workload");
    bench::JsonWriter json("session_reuse", "BENCH_session.json");

    // Short sparse streams: 4 messages of 4 words with 16-cycle
    // compute gaps over a 256-cell array. Runs are short relative to
    // the per-run compile/allocate/collect overhead the session
    // amortizes — the sweep regime (many short seed-varied runs) the
    // API is built for. The default long-stream shape is reported
    // separately below.
    Program program = bench::streamingProgram(kCells, 4, 4, 16);
    MachineSpec spec = makeSpec(kCells);

    // Correctness guard: both paths agree on the outcome. The
    // one-shot baseline is a fresh session per run that records every
    // event in a fresh RunLog.
    {
        sim::SimSession session(program, spec);
        sim::RunResult reused = session.run({});
        sim::RunLog log(program);
        sim::RunRequest full;
        full.observer = &log;
        sim::RunResult oneshot = sim::SimSession(program, spec).run(full);
        if (!reused.completed() || !oneshot.completed() ||
            reused.cycles != oneshot.cycles) {
            std::fprintf(stderr, "workload mismatch: reused=%s/%lld "
                                 "one-shot=%s/%lld\n",
                         reused.statusStr(),
                         static_cast<long long>(reused.cycles),
                         oneshot.statusStr(),
                         static_cast<long long>(oneshot.cycles));
            return 1;
        }
    }

    // ------------------------------------------------------------------
    // A: one session, kRuns seed-varied runs, no observer.
    // ------------------------------------------------------------------
    double best_session = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
        sim::SimSession session(program, spec);
        auto start = Clock::now();
        for (int i = 0; i < kRuns; ++i) {
            sim::RunRequest request;
            request.seed = static_cast<std::uint64_t>(i + 1);
            sim::RunResult r = session.run(request);
            if (!r.completed())
                return 1;
        }
        best_session = std::min(best_session, seconds(start));
    }

    // ------------------------------------------------------------------
    // B: kRuns fresh one-shot sessions (revalidates, relabels,
    // reallocates, records everything).
    // ------------------------------------------------------------------
    double best_oneshot = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
        auto start = Clock::now();
        for (int i = 0; i < kRuns; ++i) {
            sim::RunLog log(program);
            sim::RunRequest request;
            request.observer = &log;
            request.seed = static_cast<std::uint64_t>(i + 1);
            sim::RunResult r = sim::SimSession(program, spec).run(request);
            if (!r.completed())
                return 1;
        }
        best_oneshot = std::min(best_oneshot, seconds(start));
    }

    double speedup = best_oneshot / best_session;
    bench::row({"mode", "runs", "seconds", "runs/sec"});
    bench::rule(4);
    bench::row({"session-reuse", std::to_string(kRuns),
                bench::fmt(best_session),
                bench::fmt(kRuns / best_session)});
    bench::row({"one-shot", std::to_string(kRuns),
                bench::fmt(best_oneshot),
                bench::fmt(kRuns / best_oneshot)});
    std::printf("reuse speedup: %.2fx\n\n", speedup);

    std::string runs_str = std::to_string(kRuns);
    std::string cells_str = std::to_string(kCells);
    json.record("seconds", best_session,
                {{"mode", "session-reuse"},
                 {"runs", runs_str},
                 {"cells", cells_str}});
    json.record("seconds", best_oneshot,
                {{"mode", "one-shot"},
                 {"runs", runs_str},
                 {"cells", cells_str}});
    json.record("speedup", speedup,
                {{"runs", runs_str}, {"cells", cells_str}});

    // ------------------------------------------------------------------
    // Context: the default long-stream shape (128-word streams). The
    // simulation loop dominates there, so reuse buys less — reported
    // for scale, not as the headline.
    // ------------------------------------------------------------------
    if (!quick) {
        Program longProgram = bench::streamingProgram(kCells);
        double session_s = 1e300;
        double oneshot_s = 1e300;
        {
            sim::SimSession session(longProgram, spec);
            auto start = Clock::now();
            for (int i = 0; i < kRuns; ++i) {
                sim::RunRequest request;
                request.seed = static_cast<std::uint64_t>(i + 1);
                if (!session.run(request).completed())
                    return 1;
            }
            session_s = seconds(start);
        }
        {
            auto start = Clock::now();
            for (int i = 0; i < kRuns; ++i) {
                sim::RunLog log(longProgram);
                sim::RunRequest request;
                request.observer = &log;
                request.seed = static_cast<std::uint64_t>(i + 1);
                if (!sim::SimSession(longProgram, spec).run(request)
                         .completed())
                    return 1;
            }
            oneshot_s = seconds(start);
        }
        std::printf("long-stream (128-word) reuse speedup: %.2fx\n\n",
                    oneshot_s / session_s);
        json.record("speedup_long_stream", oneshot_s / session_s,
                    {{"runs", runs_str}, {"cells", cells_str}});
    }

    // ------------------------------------------------------------------
    // One-shape ShapeSweep thread scaling: the same request batch
    // across 1/2/4/8 workers. The random policy reads its seed, so
    // every request is a distinct cell the sweep must simulate (a
    // seed-blind policy would collapse the batch into one run). Each
    // link carries one message, so the policy cannot change a run.
    // ------------------------------------------------------------------
    bench::banner("S2", "one-shape ShapeSweep thread scaling");
    const std::vector<sim::ShapeSpec> shape{
        {"", spec.queuesPerLink, spec.queueCapacity}};
    std::vector<sim::RunRequest> requests;
    for (int i = 0; i < kRuns; ++i) {
        sim::RunRequest request;
        request.policy = sim::PolicyKind::kRandom;
        request.seed = static_cast<std::uint64_t>(i + 1);
        requests.push_back(request);
    }
    auto allDistinctAndCompleted = [](const sim::ShapeSweepResult& r) {
        if (r.rowsShared == 0 &&
            r.shapeSummary(0).completed() ==
                static_cast<std::int64_t>(r.numRequests))
            return true;
        std::fprintf(stderr, "sweep: %lld/%zu completed, %zu rows shared\n",
                     static_cast<long long>(r.shapeSummary(0).completed()),
                     r.numRequests, r.rowsShared);
        return false;
    };

    bench::row({"workers", "seconds", "runs/sec", "speedup"});
    bench::rule(4);
    double base = 0.0;
    std::vector<int> ladder = quick ? std::vector<int>{1, 4}
                                    : std::vector<int>{1, 2, 4, 8};
    for (int workers : ladder) {
        sim::ShapeSweepOptions sweepOptions;
        sweepOptions.numWorkers = workers;
        sim::ShapeSweep sweep(program, spec.topo, shape, sweepOptions);
        double best = 1e300;
        for (int rep = 0; rep < kReps; ++rep) {
            sim::ShapeSweepResult result = sweep.run(requests);
            if (!allDistinctAndCompleted(result))
                return 1;
            best = std::min(best, result.wallSeconds);
        }
        if (workers == ladder.front())
            base = best;
        bench::row({std::to_string(workers), bench::fmt(best),
                    bench::fmt(kRuns / best), bench::fmt(base / best)});
        json.record("sweep_seconds", best,
                    {{"workers", std::to_string(workers)},
                     {"runs", runs_str},
                     {"cells", cells_str}});
        json.record("sweep_speedup", base / best,
                    {{"workers", std::to_string(workers)},
                     {"runs", runs_str},
                     {"cells", cells_str}});
    }

    // ------------------------------------------------------------------
    // S3: the persistent worker pool. Many *small* batches through one
    // sweep — the regime where spawning threads per run() call would
    // dominate. The pool is warmed by the first batch; every later
    // batch is a condition-variable hand-off.
    // ------------------------------------------------------------------
    bench::banner("S3", "persistent pool: many small batches per sweep");
    const int kBatches = quick ? 16 : 128;
    const int kBatchSize = 8;
    const std::vector<sim::RunRequest> smallBatch(
        requests.begin(), requests.begin() + kBatchSize);

    bench::row({"workers", "batches", "seconds", "batches/sec"});
    bench::rule(4);
    for (int workers : ladder) {
        sim::ShapeSweepOptions sweepOptions;
        sweepOptions.numWorkers = workers;
        sim::ShapeSweep sweep(program, spec.topo, shape, sweepOptions);
        // Warm-up batch: compiles the program, spawns the pool threads
        // and builds the sweep's sessions; the timed loop then
        // measures steady state, which is what a sweep service would
        // see.
        if (!allDistinctAndCompleted(sweep.run(smallBatch)))
            return 1;
        double best = 1e300;
        for (int rep = 0; rep < kReps; ++rep) {
            auto start = Clock::now();
            for (int b = 0; b < kBatches; ++b) {
                if (!allDistinctAndCompleted(sweep.run(smallBatch)))
                    return 1;
            }
            best = std::min(best, seconds(start));
        }
        bench::row({std::to_string(workers), std::to_string(kBatches),
                    bench::fmt(best), bench::fmt(kBatches / best)});
        json.record("small_batch_seconds", best,
                    {{"workers", std::to_string(workers)},
                     {"batches", std::to_string(kBatches)},
                     {"batch_size", std::to_string(kBatchSize)},
                     {"cells", cells_str}});
        json.record("small_batches_per_sec", kBatches / best,
                    {{"workers", std::to_string(workers)},
                     {"batches", std::to_string(kBatches)},
                     {"batch_size", std::to_string(kBatchSize)},
                     {"cells", cells_str}});
    }
    return 0;
}
