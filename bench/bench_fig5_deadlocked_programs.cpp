/**
 * @file
 * Experiment F5 (paper Fig. 5): the three deadlocked programs P1, P2,
 * P3 — compile-time classification (basic and lookahead) and run-time
 * behavior across buffer capacities.
 */

#include <cstdio>
#include <functional>

#include "algos/paper_figures.h"
#include "bench_util.h"
#include "core/crossoff.h"
#include "sim/session.h"
#include "text/printer.h"

using namespace syscomm;
using namespace syscomm::bench;

int
main()
{
    banner("F5", "deadlocked program examples (Fig. 5)");

    struct Case
    {
        const char* name;
        Program program;
    };
    Case cases[] = {{"P1", algos::fig5P1()},
                    {"P2", algos::fig5P2()},
                    {"P3", algos::fig5P3()}};

    for (const Case& c : cases) {
        std::printf("\n%s:\n%s", c.name,
                    text::renderColumns(c.program).c_str());
    }

    std::printf("\ncompile-time classification\n\n");
    row({"program", "basic", "lookahead b=1", "lookahead b=2",
         "lookahead b=8"});
    rule(5);
    for (const Case& c : cases) {
        auto verdict = [&](int bound) {
            CrossOffOptions o;
            o.lookahead = true;
            o.skip_bound = uniformSkipBound(bound);
            return crossOff(c.program, o).deadlockFree ? "free"
                                                       : "deadlocked";
        };
        row({c.name,
             isDeadlockFree(c.program) ? "free" : "deadlocked",
             verdict(1), verdict(2), verdict(8)});
    }

    std::printf("\nrun-time behavior (2 queues/link, capacity sweep)\n\n");
    row({"program", "cap=1", "cap=2", "cap=4"});
    rule(4);
    for (const Case& c : cases) {
        std::vector<std::string> cells{c.name};
        for (int capacity : {1, 2, 4}) {
            MachineSpec spec;
            spec.topo = algos::fig5Topology();
            spec.queuesPerLink = 2;
            spec.queueCapacity = capacity;
            sim::RunResult r = sim::SimSession(c.program, spec).run();
            cells.push_back(r.statusStr());
        }
        row(cells);
    }

    std::printf("\nshape check: P1 frees up at capacity 2 (section 8's\n"
                "worked example), P2 at capacity 1, P3 never (rule R1:\n"
                "reads cannot be skipped).\n");
    return 0;
}
