/**
 * @file
 * Experiment F9 (paper Fig. 9): interleaved writes to multiple
 * messages — the symmetric case of Fig. 8, on the sender's side.
 * Includes the paper's section 7 static-assignment remedy.
 */

#include <cstdio>

#include "algos/paper_figures.h"
#include "bench_util.h"
#include "core/related.h"
#include "sim/session.h"
#include "text/printer.h"

using namespace syscomm;
using namespace syscomm::bench;

int
main()
{
    banner("F9", "queue-induced deadlock 3: interleaved writes (Fig. 9)");

    Program p = algos::fig9Program();
    std::printf("\n%s\n", text::renderColumns(p).c_str());
    std::printf("A and B related: %s (C1 writes them interleaved)\n\n",
                areRelated(p, *p.messageByName("A"), *p.messageByName("B"))
                    ? "yes"
                    : "no");

    row({"policy", "queues", "status", "cycles"});
    rule(4);
    for (int queues : {1, 2}) {
        for (sim::PolicyKind kind :
             {sim::PolicyKind::kFcfs, sim::PolicyKind::kCompatible,
              sim::PolicyKind::kStatic}) {
            MachineSpec s;
            s.topo = algos::fig9Topology();
            s.queuesPerLink = queues;
            sim::RunRequest request;
            request.policy = kind;
            sim::RunResult r = sim::SimSession(p, s).run(request);
            row({sim::policyKindName(kind), std::to_string(queues),
                 r.statusStr(), std::to_string(r.cycles)});
        }
    }

    std::printf("\nshape check: with one queue every policy deadlocks or\n"
                "cannot even start (static); with two queues between C1\n"
                "and C2 all of them complete — the paper's section 7\n"
                "static example.\n");
    return 0;
}
