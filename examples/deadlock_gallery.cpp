/**
 * @file
 * A guided tour of the paper's deadlock examples: the deadlocked
 * programs of Fig. 5, the benign cycle of Fig. 6, and the three
 * queue-induced deadlocks of Figs. 7-9 with their fixes.
 */

#include <cstdio>

#include "algos/paper_figures.h"
#include "core/crossoff.h"
#include "sim/session.h"
#include "text/printer.h"

using namespace syscomm;

namespace {

void
show(const char* title, const Program& p, const Topology& topo,
     int queues, sim::PolicyKind kind)
{
    std::printf("--- %s ---\n%s", title, text::renderColumns(p).c_str());

    MachineSpec spec;
    spec.topo = topo;
    spec.queuesPerLink = queues;
    const CrossOffResult crossoff = crossOff(p);
    std::printf("crossing-off: %s\n",
                crossoff.deadlockFree ? "deadlock-free" : "DEADLOCKED");
    if (!crossoff.deadlockFree)
        std::printf("%s", crossoff.describeStuck(p).c_str());
    else
        std::printf("labels: %s\n",
                    defaultLabeling(p).labeling.str(p).c_str());

    // Unobserved run: the gallery wants only the status and the
    // deadlock snapshot, which every run returns. Labels resolve
    // lazily, only for the runs whose policy needs them.
    sim::RunRequest request;
    request.policy = kind;
    sim::RunResult r = sim::SimSession(p, spec).run(request);
    std::printf("run (%s, %d queue(s)/link): %s",
                sim::policyKindName(kind), queues, r.statusStr());
    if (r.status == sim::RunStatus::kCompleted)
        std::printf(" in %lld cycles", static_cast<long long>(r.cycles));
    std::printf("\n");
    if (r.status == sim::RunStatus::kDeadlocked)
        std::printf("%s", r.deadlock.render(p).c_str());
    std::printf("\n");
}

} // namespace

int
main()
{
    std::printf("================ deadlocked programs (Fig. 5) "
                "================\n\n");
    show("P1 (fixable by buffering >= 2)", algos::fig5P1(),
         algos::fig5Topology(), 2, sim::PolicyKind::kCompatible);
    show("P2 (fixable by buffering >= 1)", algos::fig5P2(),
         algos::fig5Topology(), 2, sim::PolicyKind::kCompatible);
    show("P3 (unfixable: reads face reads)", algos::fig5P3(),
         algos::fig5Topology(), 2, sim::PolicyKind::kCompatible);

    std::printf("================ a cycle that is fine (Fig. 6) "
                "================\n\n");
    show("message ring on 4 cells", algos::fig6CycleProgram(),
         algos::fig6Topology(), 1, sim::PolicyKind::kCompatible);

    std::printf("================ queue-induced deadlocks "
                "================\n\n");
    show("Fig. 7 under FCFS (B steals C's queue)", algos::fig7Program(),
         algos::fig7Topology(), 1, sim::PolicyKind::kFcfs);
    show("Fig. 7 under compatible assignment", algos::fig7Program(),
         algos::fig7Topology(), 1, sim::PolicyKind::kCompatible);
    show("Fig. 8 with one queue (interleaved reads)",
         algos::fig8Program(), algos::fig8Topology(), 1,
         sim::PolicyKind::kCompatible);
    show("Fig. 8 with two queues", algos::fig8Program(),
         algos::fig8Topology(), 2, sim::PolicyKind::kCompatible);
    show("Fig. 9 with one queue (interleaved writes)",
         algos::fig9Program(), algos::fig9Topology(), 1,
         sim::PolicyKind::kCompatible);
    show("Fig. 9 with two queues", algos::fig9Program(),
         algos::fig9Topology(), 2, sim::PolicyKind::kCompatible);
    return 0;
}
