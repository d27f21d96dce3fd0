/**
 * @file
 * Experiment W1: the systolic algorithm suite end-to-end — FIR,
 * convolution, matrix-vector, odd-even sort, LCS (the paper's P-NAC
 * reference), and mesh matmul. For each workload: cycles on a
 * 2-queue/link machine, the unlimited-queue ideal, the efficiency
 * ratio, and delivered-word throughput. This quantifies how close the
 * paper's avoidance machinery gets to a special-purpose array that
 * "can afford providing as many queues as required" (section 9).
 */

#include <cstdio>

#include "algos/align.h"
#include "algos/convolution.h"
#include "algos/fir.h"
#include "algos/matvec.h"
#include "algos/mesh_matmul.h"
#include "algos/sort.h"
#include "bench_util.h"
#include "sim/session.h"
#include "sim/trace.h"

using namespace syscomm;
using namespace syscomm::bench;

namespace {

void
measure(const std::string& name, const Program& p, const Topology& topo,
        int queues)
{
    MachineSpec spec;
    spec.topo = topo;
    spec.queuesPerLink = queues;
    sim::SimSession session(p, spec);
    const auto report = session.compiled()->analysis(spec);
    if (report->verdict != LintVerdict::kCertified) {
        row({name, "not-certified", lintVerdictName(report->verdict)});
        return;
    }
    sim::RunResult r = session.run();
    Cycle ideal = sim::idealCycles(p, topo);
    double efficiency =
        r.cycles > 0 ? static_cast<double>(ideal) /
                           static_cast<double>(r.cycles)
                     : 0.0;
    double throughput =
        r.cycles > 0 ? static_cast<double>(r.stats.wordsDelivered) /
                           static_cast<double>(r.cycles)
                     : 0.0;
    row({name, std::to_string(p.totalOps()), std::to_string(queues),
         r.statusStr(), std::to_string(r.cycles), std::to_string(ideal),
         fmt(efficiency), fmt(throughput)},
        12);
}

} // namespace

int
main()
{
    banner("W1", "systolic algorithm suite: constrained vs ideal queues");

    std::printf("\n");
    row({"workload", "ops", "queues", "status", "cycles", "ideal",
         "effcy", "words/cyc"},
        12);
    rule(8, 12);

    {
        algos::FirSpec fir = algos::FirSpec::random(8, 64, 1);
        measure("fir(8,64)", algos::makeFirProgram(fir),
                algos::firTopology(8), 2);
    }
    {
        algos::ConvSpec conv = algos::ConvSpec::random(6, 12, 2);
        measure("conv(6,12)", algos::makeConvolutionProgram(conv),
                algos::convTopology(conv), 2);
    }
    {
        algos::MatVecSpec mv = algos::MatVecSpec::random(8, 8, 3);
        measure("matvec(8x8)", algos::makeMatVecProgram(mv),
                algos::matvecTopology(mv), 2);
    }
    {
        algos::SortSpec sort = algos::SortSpec::random(10, 4);
        measure("sort(10)", algos::makeSortProgram(sort),
                algos::sortTopology(sort), 2);
    }
    {
        algos::AlignSpec align = algos::AlignSpec::random(10, 24, 5);
        measure("lcs(10,24)", algos::makeLcsProgram(align),
                algos::alignTopology(align), 2);
    }
    {
        algos::MatMulSpec mm = algos::MatMulSpec::random(4, 6, 6);
        measure("matmul(4,6)", algos::makeMatMulProgram(mm),
                algos::matmulTopology(mm), 4);
    }

    std::printf("\nFIR pipeline fill: per-message latency on fir(4,16)\n\n");
    {
        algos::FirSpec fir = algos::FirSpec::random(4, 16, 7);
        Program p = algos::makeFirProgram(fir);
        MachineSpec spec;
        spec.topo = algos::firTopology(4);
        spec.queuesPerLink = 2;
        sim::RunLog log(p);
        sim::RunRequest request;
        request.observer = &log;
        sim::RunResult r = sim::SimSession(p, spec).run(request);
        std::printf("%s\n", sim::renderMessageLatencies(log, p).c_str());
        std::printf(
            "%s\n",
            sim::renderQueueTimeline(log, r.cycles, p, spec, 60).c_str());
    }

    std::printf("shape check: efficiency stays near 1 — two queues per\n"
                "link plus the avoidance machinery track the unlimited-\n"
                "queue special-purpose array closely.\n");
    return 0;
}
