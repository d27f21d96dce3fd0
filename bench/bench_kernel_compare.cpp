/**
 * @file
 * Experiment K1: event-driven active-set kernel vs the dense
 * reference kernel on a sparse/streaming workload, across array sizes
 * 8-512. The workload is the case the paper's machinery is built
 * around: a handful of long word streams crossing a large,
 * mostly-idle array, so per-cycle work is tiny relative to machine
 * size. Reports simulated cycles/sec per kernel plus the speedup,
 * and appends machine-readable lines to BENCH_kernel.json.
 *
 * Usage: bench_kernel_compare [--quick]
 *   --quick  CI smoke: fewer sizes, shorter measurement windows.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "core/program.h"
#include "core/topology.h"
#include "sim/session.h"

namespace {

using namespace syscomm;
using sim::KernelKind;
using sim::RunResult;
using sim::RunStatus;

MachineSpec
makeSpec(int cells)
{
    MachineSpec spec;
    spec.topo = Topology::linearArray(cells);
    spec.queuesPerLink = 2;
    spec.queueCapacity = 4;
    return spec;
}

struct Measurement
{
    double cyclesPerSec = 0.0;
    Cycle simCycles = 0;
};

Measurement
measure(const Program& p, const MachineSpec& spec, KernelKind kernel,
        double min_seconds)
{
    using Clock = std::chrono::steady_clock;

    // One compiled session per kernel: labeling/validation/allocation
    // happen once up front, so the timed loop measures the run-time
    // kernels alone (P1 covers the compile-time analyses). No observer
    // is attached, so event recording stays out of the timing too.
    sim::SessionOptions options;
    options.kernel = kernel;
    sim::SimSession session(p, spec, options);

    // Warm-up + correctness guard.
    RunResult first = session.run({});
    if (first.status != RunStatus::kCompleted) {
        std::fprintf(stderr, "workload did not complete: %s\n",
                     first.statusStr());
        std::exit(1);
    }

    Measurement out;
    out.simCycles = first.cycles;
    Cycle total_cycles = 0;
    auto start = Clock::now();
    double elapsed = 0.0;
    do {
        RunResult r = session.run({});
        total_cycles += r.cycles;
        elapsed = std::chrono::duration<double>(Clock::now() - start)
                      .count();
    } while (elapsed < min_seconds);
    out.cyclesPerSec = static_cast<double>(total_cycles) / elapsed;
    return out;
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
    double window = quick ? 0.05 : 0.4;

    syscomm::bench::banner("K1", "event-driven vs reference kernel, "
                                 "streaming workload");
    syscomm::bench::JsonWriter json("kernel_compare", "BENCH_kernel.json");
    syscomm::bench::row({"cells", "sim cycles", "ref cyc/s", "event cyc/s",
                         "speedup"});
    syscomm::bench::rule(5);

    const int all_sizes[] = {8, 16, 32, 64, 128, 256, 512};
    const int quick_sizes[] = {8, 64, 256};
    const int* sizes = quick ? quick_sizes : all_sizes;
    int count = quick ? 3 : 7;

    for (int i = 0; i < count; ++i) {
        int cells = sizes[i];
        Program p = syscomm::bench::streamingProgram(cells);
        MachineSpec spec = makeSpec(cells);
        Measurement ref =
            measure(p, spec, KernelKind::kReference, window);
        Measurement evt =
            measure(p, spec, KernelKind::kEventDriven, window);
        double speedup = evt.cyclesPerSec / ref.cyclesPerSec;
        syscomm::bench::row({std::to_string(cells),
                             std::to_string(ref.simCycles),
                             syscomm::bench::fmt(ref.cyclesPerSec),
                             syscomm::bench::fmt(evt.cyclesPerSec),
                             syscomm::bench::fmt(speedup)});
        std::string cells_str = std::to_string(cells);
        json.record("cycles_per_sec", ref.cyclesPerSec,
                    {{"kernel", "reference"}, {"cells", cells_str}});
        json.record("cycles_per_sec", evt.cyclesPerSec,
                    {{"kernel", "event-driven"}, {"cells", cells_str}});
        json.record("speedup", speedup, {{"cells", cells_str}});
    }
    return 0;
}
