/**
 * @file
 * Experiment F8 (paper Fig. 8): interleaved reads from multiple
 * messages. Assigning one message the queue first cannot help: A and B
 * are related, share a label, and need separate queues on the C2-C3
 * link ("no deadlock if # queues greater than 1").
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
    banner("F8", "queue-induced deadlock 2: interleaved reads (Fig. 8)");

    Program p = algos::fig8Program();
    std::printf("\n%s\n", text::renderColumns(p).c_str());
    std::printf("A and B related: %s (C3 reads them interleaved)\n",
                areRelated(p, *p.messageByName("A"), *p.messageByName("B"))
                    ? "yes"
                    : "no");

    MachineSpec two;
    two.topo = algos::fig8Topology();
    two.queuesPerLink = 2;
    std::printf("labels: %s (shared, by rule 1c)\n",
                labelMessages(p).str(p).c_str());
    std::printf("dynamic scheme needs %d queues/link\n\n",
                sim::CompiledProgram::compile(p, two.topo)
                    ->analysis(two)
                    ->requiredQueuesPerLink);

    row({"policy", "queues", "status", "cycles"});
    rule(4);
    for (int queues : {1, 2, 3}) {
        for (sim::PolicyKind kind :
             {sim::PolicyKind::kFcfs, sim::PolicyKind::kCompatible}) {
            MachineSpec s = two;
            s.queuesPerLink = queues;
            sim::RunRequest request;
            request.policy = kind;
            sim::RunResult r = sim::SimSession(p, s).run(request);
            row({sim::policyKindName(kind), std::to_string(queues),
                 r.statusStr(), std::to_string(r.cycles)});
        }
    }

    std::printf("\nwords-per-message sweep (compatible, 2 queues)\n\n");
    row({"words", "status", "cycles"});
    rule(3);
    for (int words : {2, 4, 8, 32}) {
        Program pw = algos::fig8Program(words);
        sim::RunResult r = sim::SimSession(pw, two).run();
        row({std::to_string(words), r.statusStr(),
             std::to_string(r.cycles)});
    }
    return 0;
}
