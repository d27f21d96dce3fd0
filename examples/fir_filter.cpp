/**
 * @file
 * FIR filtering on a systolic array — the workload that motivates the
 * paper's Fig. 2. Builds a k-tap filter, compiles it, runs it, and
 * checks the outputs against a direct computation.
 *
 * Usage: fir_filter [taps] [outputs]
 */

#include <cstdio>
#include <cstdlib>

#include "algos/fir.h"
#include "sim/session.h"
#include "sim/trace.h"
#include "text/printer.h"

using namespace syscomm;

int
main(int argc, char** argv)
{
    int taps = argc > 1 ? std::atoi(argv[1]) : 3;
    int outputs = argc > 2 ? std::atoi(argv[2]) : 6;
    if (taps < 1 || outputs < 1) {
        std::printf("usage: %s [taps >= 1] [outputs >= 1]\n", argv[0]);
        return 1;
    }

    algos::FirSpec spec = algos::FirSpec::random(taps, outputs, 2026);
    Program program = algos::makeFirProgram(spec);

    std::printf("%d-tap FIR, %d outputs, host + %d cells\n\n", taps,
                outputs, taps);
    if (program.totalOps() < 120)
        std::printf("%s\n", text::renderColumns(program).c_str());

    MachineSpec machine;
    machine.topo = algos::firTopology(taps);
    machine.queuesPerLink = 2;
    sim::SimSession session(program, machine);
    const auto report = session.compiled()->analysis(machine);
    std::printf("labels: %s\n%s\n",
                defaultLabeling(program).labeling.str(program).c_str(),
                report->render(program).c_str());
    if (report->verdict != LintVerdict::kCertified)
        return 1;

    sim::RunLog log(program); // records the y-stream values
    sim::RunRequest request;
    request.observer = &log;
    sim::RunResult result = session.run(request);
    std::printf("status: %s in %lld cycles (%lld words delivered)\n\n",
                result.statusStr(), static_cast<long long>(result.cycles),
                static_cast<long long>(result.stats.wordsDelivered));

    auto y = *program.messageByName(algos::firHostOutputMessage());
    std::vector<double> expected = algos::firReference(spec);
    if (log.received[y].size() != expected.size())
        return 1;
    double max_err = 0.0;
    for (std::size_t j = 0; j < expected.size(); ++j) {
        double err = std::abs(log.received[y][j] - expected[j]);
        max_err = std::max(max_err, err);
        if (j < 8) {
            std::printf("y[%zu] = %10.4f   (reference %10.4f)\n", j,
                        log.received[y][j], expected[j]);
        }
    }
    std::printf("...\nmax |error| = %g\n", max_err);
    return max_err < 1e-9 ? 0 : 1;
}
