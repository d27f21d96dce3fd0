/**
 * @file
 * Experiment F6 (paper Fig. 6): messages that form a sender/receiver
 * cycle do NOT imply a deadlocked program — "to determine if a program
 * is deadlock-free, it is insufficient just to check whether the
 * messages form a cycle".
 */

#include <cstdio>

#include "algos/paper_figures.h"
#include "bench_util.h"
#include "sim/session.h"
#include "text/printer.h"

using namespace syscomm;
using namespace syscomm::bench;

int
main()
{
    banner("F6", "message cycle without deadlock (Fig. 6)");

    Program p = algos::fig6CycleProgram();
    std::printf("\nmessages form the cycle A: C1->C2, B: C2->C3, "
                "C: C3->C4, D: C4->C1\n\n%s\n",
                text::renderColumns(p).c_str());

    MachineSpec spec;
    spec.topo = algos::fig6Topology();
    spec.queuesPerLink = 1;
    std::printf("labels: %s\n%s\n",
                defaultLabeling(p).labeling.str(p).c_str(),
                sim::CompiledProgram::compile(p, spec.topo)
                    ->analysis(spec)
                    ->render(p)
                    .c_str());

    row({"policy", "status", "cycles"});
    rule(3);
    for (sim::PolicyKind kind :
         {sim::PolicyKind::kCompatible, sim::PolicyKind::kStatic,
          sim::PolicyKind::kFcfs}) {
        sim::RunRequest request;
        request.policy = kind;
        sim::RunResult r = sim::SimSession(p, spec).run(request);
        row({sim::policyKindName(kind), r.statusStr(),
             std::to_string(r.cycles)});
    }
    std::printf("\nshape check: deadlock-free despite the cycle; runs to\n"
                "completion with a single queue per link.\n");
    return 0;
}
