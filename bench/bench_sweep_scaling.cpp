/**
 * @file
 * The inverted-curve regression gate: thread scaling of ShapeSweep on
 * a deliberately skewed ladder.
 *
 * The workload is the scheduler's worst case before cell-granular
 * dispatch: one *giant* rung (queueCapacity 1 + a large iWarp-style
 * extension + a large extension penalty, so every buffered word pays
 * the penalty when it surfaces and the run stretches to roughly
 * words × penalty cycles) next to a pile of *tiny* rungs (capacity
 * large enough that the burst never extends). Under whole-shape
 * dispatch the worker that claimed the giant rung serialized the
 * sweep — 4 workers measured *slower* than 1 —
 * while cell-granular stealing with per-shape session pools lets
 * every worker chew on the giant rung's request cells.
 *
 * The reference kernel is used on purpose: its dense per-cycle scan
 * makes wall clock track simulated cycles, so the rung skew in
 * cycles is a rung skew in seconds — the shape of ladder the paper's
 * own figure sweeps produce when one shape deadlocks its buffering
 * into the extension and the rest sail through.
 *
 * Emits skewed_sweep_seconds / skewed_sweep_speedup per worker count
 * into BENCH_shape_sweep.json, asserts row digests are bit-identical
 * across all worker counts, and with --gate exits nonzero when the
 * highest worker count is slower than 1 worker (the CI scaling-smoke
 * job's pass/fail line; no python needed).
 *
 *   bench_sweep_scaling [--quick] [--gate] [--pairs N] [--words W]
 *                       [--penalty P] [--tiny K] [--seeds R] [--reps M]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/topology.h"
#include "sim/shape_sweep.h"

using namespace syscomm;
using namespace syscomm::sim;

namespace {

/**
 * A burst program: @p pairs disjoint (writer -> neighbor) streams on
 * a linear array, each writer bursting @p words words before the
 * reader drains them. Transfer-only, so sweeps over it are fully
 * covered by the journal's structural digest; deadlock-free whenever
 * capacity + extension >= words (the writer never blocks).
 */
Program
burstProgram(int pairs, int words)
{
    Program p(2 * pairs);
    for (int i = 0; i < pairs; ++i) {
        const CellId from = static_cast<CellId>(2 * i);
        const CellId to = static_cast<CellId>(2 * i + 1);
        const MessageId id =
            p.declareMessage("B" + std::to_string(i), from, to);
        for (int w = 0; w < words; ++w)
            p.write(from, id);
        for (int w = 0; w < words; ++w)
            p.read(to, id);
    }
    return p;
}

/** One giant rung + @p tiny small ones: the skew that broke whole-
 *  shape dispatch. */
std::vector<ShapeSpec>
skewedLadder(int words, int penalty, int tiny)
{
    std::vector<ShapeSpec> shapes;
    ShapeSpec giant;
    giant.name = "giant-ext";
    giant.queueCapacity = 1;
    giant.extensionCapacity = words;
    giant.extensionPenalty = penalty;
    shapes.push_back(std::move(giant));
    for (int k = 0; k < tiny; ++k) {
        ShapeSpec shape;
        shape.name = "tiny-" + std::to_string(k);
        // Capacity swallows the whole burst: nothing extends, the
        // run finishes in ~2*words cycles.
        shape.queueCapacity = words + k;
        shapes.push_back(std::move(shape));
    }
    return shapes;
}

} // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    bool gate = false;
    long long pairs = 32, words = 256, penalty = 1024;
    long long tiny = 15, seeds = 8, reps = 2;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
        auto num = [&](long long& out) {
            if (value == nullptr)
                return false;
            char* end = nullptr;
            out = std::strtoll(value, &end, 10);
            ++i;
            return end != value && *end == '\0' && out > 0;
        };
        if (arg == "--quick")
            quick = true;
        else if (arg == "--gate")
            gate = true;
        else if (arg == "--pairs" && num(pairs)) {
        } else if (arg == "--words" && num(words)) {
        } else if (arg == "--penalty" && num(penalty)) {
        } else if (arg == "--tiny" && num(tiny)) {
        } else if (arg == "--seeds" && num(seeds)) {
        } else if (arg == "--reps" && num(reps)) {
        } else {
            std::fprintf(stderr,
                         "usage: bench_sweep_scaling [--quick] "
                         "[--gate] [--pairs N] [--words W] "
                         "[--penalty P] [--tiny K] [--seeds R] "
                         "[--reps M]\n");
            return 2;
        }
    }
    if (quick) {
        pairs = std::min<long long>(pairs, 8);
        penalty = std::min<long long>(penalty, 256);
        seeds = std::min<long long>(seeds, 4);
        reps = 1;
    }

    bench::banner("SCALE-1",
                  "skewed-ladder thread scaling (1 giant + " +
                      std::to_string(tiny) + " tiny rungs, " +
                      std::to_string(seeds) + " requests each)");

    const Program program =
        burstProgram(static_cast<int>(pairs), static_cast<int>(words));
    Topology topo = Topology::linearArray(2 * static_cast<int>(pairs));
    const std::vector<ShapeSpec> shapes =
        skewedLadder(static_cast<int>(words), static_cast<int>(penalty),
                     static_cast<int>(tiny));

    // The random policy reads its seed, so the R requests are R
    // distinct cells per rung that ShapeSweep must each simulate (a
    // seed-blind policy would collapse them into one run per rung).
    // Each link carries one message, so the policy cannot change a
    // run's length.
    std::vector<RunRequest> requests;
    for (long long r = 0; r < seeds; ++r) {
        RunRequest request;
        request.policy = PolicyKind::kRandom;
        request.seed = static_cast<std::uint64_t>(1 + r);
        requests.push_back(request);
    }

    ShapeSweepOptions base;
    // Wall clock must track simulated cycles for the skew to be a
    // skew in seconds (see the file comment).
    base.session.kernel = KernelKind::kReference;

    // Compile once, share across every worker-count sweep — this
    // bench measures the scheduler, not the compiler.
    std::shared_ptr<const CompiledProgram> compiled =
        CompiledProgram::compile(program, topo);

    const std::vector<int> ladder =
        quick ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};

    bench::JsonWriter json("sweep_scaling", "BENCH_shape_sweep.json");
    bench::row({"workers", "seconds", "speedup", "rows"});
    bench::rule(4);

    std::vector<std::uint64_t> digests1;
    double seconds1 = 0.0;
    double secondsLast = 0.0;
    int lastWorkers = 1;
    for (int workers : ladder) {
        ShapeSweepOptions options = base;
        options.numWorkers = workers;
        ShapeSweep sweep(compiled, shapes, options);
        double best = 0.0;
        ShapeSweepResult result;
        for (long long rep = 0; rep < reps; ++rep) {
            ShapeSweepResult r = sweep.run(requests);
            if (rep == 0 || r.wallSeconds < best)
                best = r.wallSeconds;
            result = std::move(r);
        }

        if (result.rowsShared != 0) {
            std::fprintf(stderr,
                         "bench_sweep_scaling: %zu rows shared — the "
                         "ladder must keep every cell distinct\n",
                         result.rowsShared);
            return 1;
        }
        std::vector<std::uint64_t> digests;
        digests.reserve(result.rows.size());
        for (const ShapeSweepRow& row : result.rows)
            digests.push_back(row.machineDigest);
        if (workers == 1) {
            digests1 = digests;
            seconds1 = best;
        } else if (digests != digests1) {
            std::fprintf(stderr,
                         "bench_sweep_scaling: %d-worker digests "
                         "differ from 1-worker — determinism "
                         "violation\n",
                         workers);
            return 1;
        }

        const double speedup = best > 0.0 ? seconds1 / best : 0.0;
        bench::row({std::to_string(workers), bench::fmt(best),
                    bench::fmt(speedup),
                    std::to_string(result.rows.size())});
        json.record("skewed_sweep_seconds", best,
                    {{"workers", std::to_string(workers)},
                     {"shapes", std::to_string(shapes.size())},
                     {"requests", std::to_string(requests.size())},
                     {"pairs", std::to_string(pairs)},
                     {"penalty", std::to_string(penalty)}});
        json.record("skewed_sweep_speedup", speedup,
                    {{"workers", std::to_string(workers)}});
        secondsLast = best;
        lastWorkers = workers;
    }

    if (gate && lastWorkers > 1 && secondsLast > seconds1) {
        std::fprintf(stderr,
                     "bench_sweep_scaling: INVERTED CURVE — %d "
                     "workers (%.3fs) slower than 1 worker (%.3fs)\n",
                     lastWorkers, secondsLast, seconds1);
        return 1;
    }
    return 0;
}
