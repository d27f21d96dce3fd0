/**
 * @file
 * Experiment F10 (paper Fig. 10): lookahead crossing-off on program P1.
 * With two words of buffering per queue, P1 is classified
 * deadlock-free; the first executable pair is W(B)/R(B), located by
 * skipping two writes to A (rules R1 and R2 both hold).
 */

#include <cstdio>

#include "algos/paper_figures.h"
#include "bench_util.h"
#include "core/crossoff.h"
#include "core/labeling.h"
#include "sim/session.h"
#include "text/printer.h"

using namespace syscomm;
using namespace syscomm::bench;

int
main()
{
    banner("F10", "lookahead crossing-off on P1 (Fig. 10)");

    Program p = algos::fig5P1();
    std::printf("\n%s\n", text::renderColumns(p).c_str());

    CrossOffOptions options;
    options.lookahead = true;
    options.skip_bound = uniformSkipBound(2);
    CrossOffResult result = crossOff(p, options);
    std::printf("lookahead (bound 2) verdict: %s\n",
                result.deadlockFree ? "deadlock-free" : "deadlocked");
    std::printf("trace (skipped writes shown per pair):\n%s\n",
                result.traceStr(p).c_str());

    LabelingOptions lo;
    lo.lookahead = true;
    lo.skip_bound = uniformSkipBound(2);
    Labeling labeling = labelMessages(p, lo);
    std::printf("section 8.2 labels: %s (rule 1d: skipped message A "
                "shares B's label)\n\n",
                labeling.str(p).c_str());

    std::printf("bound sweep\n\n");
    row({"bound", "verdict", "sim cap=bound"});
    rule(3);
    for (int bound : {1, 2, 3}) {
        CrossOffOptions o;
        o.lookahead = true;
        o.skip_bound = uniformSkipBound(bound);
        bool free = crossOff(p, o).deadlockFree;
        MachineSpec spec;
        spec.topo = algos::fig5Topology();
        spec.queuesPerLink = 2;
        spec.queueCapacity = bound;
        sim::RunResult r = sim::SimSession(p, spec).run();
        row({std::to_string(bound), free ? "free" : "deadlocked",
             r.statusStr()});
    }
    std::printf("\nshape check: classification flips at bound 2, and the\n"
                "simulator agrees at the matching queue capacity.\n");
    return 0;
}
