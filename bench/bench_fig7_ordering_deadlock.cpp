/**
 * @file
 * Experiment F7 (paper Fig. 7): queue-induced deadlock from message
 * arrival order. With one queue per link, FCFS hands the C3-C4 queue
 * to B before C and C4 starves; the section 6 labels (A=1, B=3, C=2)
 * with compatible assignment avoid it.
 */

#include <cstdio>

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
    banner("F7", "queue-induced deadlock 1: arrival order (Fig. 7)");

    Program p = algos::fig7Program();
    std::printf("\n%s\n", text::renderColumns(p).c_str());

    MachineSpec spec;
    spec.topo = algos::fig7Topology();
    spec.queuesPerLink = 1;
    std::printf("section 6 labels: %s   (paper: A=1 B=3 C=2)\n\n",
                labelMessages(p).str(p).c_str());

    row({"policy", "queues", "status", "cycles", "audit"});
    rule(5);
    for (int queues : {1, 2}) {
        for (sim::PolicyKind kind :
             {sim::PolicyKind::kFcfs, sim::PolicyKind::kRandom,
              sim::PolicyKind::kCompatible,
              sim::PolicyKind::kCompatibleEager}) {
            MachineSpec s = spec;
            s.queuesPerLink = queues;
            sim::SimSession session(p, s);
            sim::RunLog log(p);
            sim::RunRequest request;
            request.policy = kind;
            request.observer = &log;
            sim::RunResult r = session.run(request);
            const sim::AuditReport audit = sim::auditAssignments(
                p, session.compiled()->competing(), session.labels(),
                log.events);
            row({sim::policyKindName(kind), std::to_string(queues),
                 r.statusStr(), std::to_string(r.cycles),
                 audit.compatible ? "clean" : "violations"});
        }
    }

    {
        sim::RunRequest request;
        request.policy = sim::PolicyKind::kFcfs;
        sim::RunResult r = sim::SimSession(p, spec).run(request);
        if (r.status == sim::RunStatus::kDeadlocked) {
            std::printf("\nFCFS deadlock snapshot (the paper's lower-half "
                        "diagram):\n%s",
                        r.deadlock.render(p).c_str());
        }
    }

    std::printf("\nstream-length sweep (FCFS vs compatible, 1 queue)\n\n");
    row({"stream-len", "fcfs", "compatible"});
    rule(3);
    for (int len : {1, 2, 4, 8, 16}) {
        Program pl = algos::fig7Program(len);
        sim::RunRequest fcfs;
        fcfs.policy = sim::PolicyKind::kFcfs;
        row({std::to_string(len),
             sim::SimSession(pl, spec).run(fcfs).statusStr(),
             sim::SimSession(pl, spec).run().statusStr()});
    }
    return 0;
}
