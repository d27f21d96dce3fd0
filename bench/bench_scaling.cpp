/**
 * @file
 * Experiment P1: cost of the compile-time analyses. The crossing-off
 * procedure, the related-message analysis and the section 6 labeler
 * all scale near-linearly in program size for stream-like programs,
 * so the avoidance machinery is practical at compile time.
 *
 * Experiment P2: run-time cost of the simulator itself across array
 * sizes, on a sparse/streaming workload (a few long streams over a
 * mostly idle array). BM_SimulateReference scans every link, queue
 * and cell each cycle; BM_SimulateEventDriven touches only the
 * active set. The per-iteration work is one full simulation run.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>

#include "bench_util.h"
#include "core/competing.h"
#include "core/crossoff.h"
#include "core/labeling.h"
#include "core/program_gen.h"
#include "core/related.h"
#include "sim/session.h"
#include "sim/shape_sweep.h"

namespace {

using namespace syscomm;

Program
makeProgram(int messages, int words_each)
{
    Topology topo = Topology::linearArray(8);
    GenOptions gen;
    gen.numMessages = messages;
    gen.maxWords = words_each;
    gen.seed = 42;
    gen.interleave = 0.1;
    return randomDeadlockFreeProgram(topo, gen);
}

void
BM_CrossOff(benchmark::State& state)
{
    Program p = makeProgram(static_cast<int>(state.range(0)), 8);
    for (auto _ : state) {
        CrossOffResult r = crossOff(p);
        benchmark::DoNotOptimize(r.deadlockFree);
    }
    state.SetItemsProcessed(state.iterations() * p.totalTransferOps());
}
BENCHMARK(BM_CrossOff)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void
BM_CrossOffLookahead(benchmark::State& state)
{
    Program p = makeProgram(static_cast<int>(state.range(0)), 8);
    CrossOffOptions options;
    options.lookahead = true;
    options.skip_bound = uniformSkipBound(4);
    for (auto _ : state) {
        CrossOffResult r = crossOff(p, options);
        benchmark::DoNotOptimize(r.deadlockFree);
    }
    state.SetItemsProcessed(state.iterations() * p.totalTransferOps());
}
BENCHMARK(BM_CrossOffLookahead)->Arg(16)->Arg(64)->Arg(256);

void
BM_RelatedClasses(benchmark::State& state)
{
    Program p = makeProgram(static_cast<int>(state.range(0)), 8);
    for (auto _ : state) {
        UnionFind uf = computeRelatedClasses(p);
        benchmark::DoNotOptimize(uf.size());
    }
}
BENCHMARK(BM_RelatedClasses)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void
BM_Labeling(benchmark::State& state)
{
    Program p = makeProgram(static_cast<int>(state.range(0)), 6);
    for (auto _ : state) {
        Labeling l = labelMessages(p);
        benchmark::DoNotOptimize(l.success);
    }
}
BENCHMARK(BM_Labeling)->Arg(16)->Arg(64)->Arg(256);

void
BM_CompetingAnalysis(benchmark::State& state)
{
    Topology topo = Topology::mesh(6, 6);
    GenOptions gen;
    gen.numMessages = static_cast<int>(state.range(0));
    gen.maxWords = 6;
    gen.seed = 9;
    Program p = randomDeadlockFreeProgram(topo, gen);
    for (auto _ : state) {
        auto analysis = CompetingAnalysis::analyze(p, topo);
        benchmark::DoNotOptimize(analysis.maxCompeting());
    }
}
BENCHMARK(BM_CompetingAnalysis)->Arg(16)->Arg(64)->Arg(256);

void
simulateScaling(benchmark::State& state, sim::KernelKind kernel)
{
    int cells = static_cast<int>(state.range(0));
    Program p = bench::streamingProgram(cells);
    MachineSpec spec;
    spec.topo = Topology::linearArray(cells);
    spec.queuesPerLink = 2;
    spec.queueCapacity = 4;
    // Compile once; the bench measures the run-time kernel, not the
    // compile-time labeler (P1 covers that). No observer.
    sim::SessionOptions options;
    options.kernel = kernel;
    sim::SimSession session(p, spec, options);
    Cycle cycles = 0;
    for (auto _ : state) {
        sim::RunResult r = session.run({});
        cycles = r.cycles;
        benchmark::DoNotOptimize(r.status);
    }
    state.SetItemsProcessed(state.iterations() * cycles);
    state.counters["sim_cycles"] = static_cast<double>(cycles);
}

void
BM_SimulateReference(benchmark::State& state)
{
    simulateScaling(state, sim::KernelKind::kReference);
}
BENCHMARK(BM_SimulateReference)->Arg(64)->Arg(256)->Arg(512);

void
BM_SimulateEventDriven(benchmark::State& state)
{
    simulateScaling(state, sim::KernelKind::kEventDriven);
}
BENCHMARK(BM_SimulateEventDriven)->Arg(64)->Arg(256)->Arg(512);

/**
 * P3: one-shape ShapeSweep throughput — a 32-run seed sweep of the
 * 256-cell streaming workload per iteration, across worker counts. On
 * a multi-core host the runs/sec column should scale with Arg until
 * memory bandwidth interferes. The random policy reads its seed, so
 * the 32 requests are 32 distinct cells (a seed-blind policy would be
 * simulated once and copied); each link carries one message, so the
 * policy cannot change a run.
 */
void
BM_OneShapeSweep(benchmark::State& state)
{
    int workers = static_cast<int>(state.range(0));
    Program p = bench::streamingProgram(256, 4, 16, 16);
    std::vector<sim::RunRequest> requests;
    for (int i = 0; i < 32; ++i) {
        sim::RunRequest request;
        request.policy = sim::PolicyKind::kRandom;
        request.seed = static_cast<std::uint64_t>(i + 1);
        requests.push_back(request);
    }
    sim::ShapeSweepOptions sweepOptions;
    sweepOptions.numWorkers = workers;
    sim::ShapeSweep sweep(p, Topology::linearArray(256), {{"", 2, 4}},
                          sweepOptions);
    for (auto _ : state) {
        sim::ShapeSweepResult result = sweep.run(requests);
        if (result.rowsShared != 0) {
            state.SkipWithError("rows shared: cells not distinct");
            break;
        }
        sim::SweepSummary summary = result.shapeSummary(0);
        if (summary.completed() !=
            static_cast<std::int64_t>(requests.size())) {
            state.SkipWithError("sweep incomplete");
            break;
        }
        benchmark::DoNotOptimize(summary.p50Cycles);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(requests.size()));
}
BENCHMARK(BM_OneShapeSweep)->Arg(1)->Arg(2)->Arg(4);

} // namespace

BENCHMARK_MAIN();
