/**
 * @file
 * Matrix multiplication on a 2-D mesh — "results of the paper apply
 * to arrays of higher dimensionalities". A and B stream through the
 * mesh, each cell accumulates one C entry, and the results drain to
 * the corner cell over XY routes.
 *
 * Usage: mesh_matmul_demo [n] [k]
 */

#include <cstdio>
#include <cstdlib>

#include "algos/mesh_matmul.h"
#include "sim/session.h"
#include "sim/trace.h"

using namespace syscomm;

int
main(int argc, char** argv)
{
    int n = argc > 1 ? std::atoi(argv[1]) : 3;
    int k = argc > 2 ? std::atoi(argv[2]) : 4;
    if (n < 2 || k < 1) {
        std::printf("usage: %s [n >= 2] [k >= 1]\n", argv[0]);
        return 1;
    }

    algos::MatMulSpec spec = algos::MatMulSpec::random(n, k, 7);
    Program program = algos::makeMatMulProgram(spec);
    std::printf("C = A(%dx%d) * B(%dx%d) on a %dx%d mesh: %d messages, "
                "%d ops\n\n",
                n, k, k, n, n, n, program.numMessages(),
                program.totalOps());

    MachineSpec machine;
    machine.topo = algos::matmulTopology(spec);
    machine.queuesPerLink = 4;
    sim::SimSession session(program, machine);
    const auto report = session.compiled()->analysis(machine);
    std::printf("labels: %s\n%s\n",
                defaultLabeling(program).labeling.str(program).c_str(),
                report->render(program).c_str());
    if (report->verdict != LintVerdict::kCertified)
        return 1;

    sim::RunLog log(program); // records the C-matrix values
    sim::RunRequest request;
    request.observer = &log;
    sim::RunResult result = session.run(request);
    std::printf("status: %s in %lld cycles\n\n", result.statusStr(),
                static_cast<long long>(result.cycles));
    if (result.status != sim::RunStatus::kCompleted)
        return 1;

    std::vector<double> got =
        algos::extractMatMulResult(program, log.received, spec);
    std::vector<double> want = algos::matmulReference(spec);
    double max_err = 0.0;
    for (int i = 0; i < n && i < 4; ++i) {
        for (int j = 0; j < n && j < 4; ++j)
            std::printf("%10.4f", got[i * n + j]);
        std::printf("\n");
    }
    for (std::size_t i = 0; i < want.size(); ++i)
        max_err = std::max(max_err, std::abs(got[i] - want[i]));
    std::printf("\nmax |error| vs reference = %g\n", max_err);
    return max_err < 1e-9 ? 0 : 1;
}
