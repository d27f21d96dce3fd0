/**
 * @file
 * Experiment F2 (paper Fig. 2): the 3-tap FIR filter program for
 * host + C1..C3, its compile plan, and its execution — plus the
 * generalized k-tap generator at larger sizes.
 */

#include <cstdio>

#include "algos/fir.h"
#include "algos/paper_figures.h"
#include "bench_util.h"
#include "sim/session.h"
#include "sim/trace.h"
#include "text/printer.h"

using namespace syscomm;
using namespace syscomm::bench;

int
main()
{
    banner("F2", "FIR filter program (Fig. 2)");

    Program p = algos::fig2FirProgram();
    std::printf("\n%s\n", text::renderColumns(p).c_str());

    MachineSpec spec;
    spec.topo = algos::fig2Topology();
    spec.queuesPerLink = 2;
    sim::SimSession session(p, spec);
    std::printf("labels: %s\n%s\n",
                defaultLabeling(p).labeling.str(p).c_str(),
                session.compiled()->analysis(spec)->render(p).c_str());

    sim::RunLog log(p);
    sim::RunRequest labeled;
    labeled.observer = &log;
    sim::RunResult r = session.run(labeled);
    auto ya = *p.messageByName("YA");
    std::printf("status: %s after %lld cycles\n", r.statusStr(),
                static_cast<long long>(r.cycles));
    std::printf("host received y1 = %.0f (paper: 34), y2 = %.0f "
                "(paper: 49)\n\n",
                log.received[ya][0], log.received[ya][1]);

    std::printf("generalized k-tap FIR (random weights/inputs)\n\n");
    row({"taps", "outputs", "ops", "cycles", "max-err"});
    rule(5);
    for (int taps : {2, 4, 8, 16}) {
        for (int outputs : {8, 32}) {
            algos::FirSpec fir =
                algos::FirSpec::random(taps, outputs, taps * 100 + outputs);
            Program fp = algos::makeFirProgram(fir);
            MachineSpec fspec;
            fspec.topo = algos::firTopology(taps);
            fspec.queuesPerLink = 2;
            sim::RunLog flog(fp);
            sim::RunRequest full;
            full.observer = &flog;
            sim::RunResult fr = sim::SimSession(fp, fspec).run(full);
            auto y = *fp.messageByName("Y1");
            std::vector<double> expected = algos::firReference(fir);
            double err = 0;
            for (std::size_t i = 0; i < expected.size(); ++i) {
                err = std::max(err,
                               std::abs(flog.received[y][i] - expected[i]));
            }
            row({std::to_string(taps), std::to_string(outputs),
                 std::to_string(fp.totalOps()), std::to_string(fr.cycles),
                 fmt(err)});
        }
    }
    return 0;
}
