/**
 * @file
 * Experiment T1 (paper Theorem 1): Monte-Carlo validation. Random
 * deadlock-free programs (section 3.3 strategy) are run under the full
 * avoidance procedure and under the unsafe baselines, over several
 * topologies and queue budgets. The procedure must complete 100% of
 * feasible runs with audit-clean traces; the baselines deadlock at a
 * substantial rate when queues are scarce.
 */

#include <cstdio>

#include "bench_util.h"
#include "core/program_gen.h"
#include "sim/session.h"
#include "sim/trace.h"

using namespace syscomm;
using namespace syscomm::bench;

struct Tally
{
    int completed = 0;
    int deadlocked = 0;
    int infeasible = 0;
    int auditViolations = 0;
};

int
main()
{
    banner("T1", "Monte-Carlo validation of Theorem 1");

    constexpr int kTrials = 200;

    struct TopoCase
    {
        const char* name;
        Topology topo;
    };
    TopoCase topos[] = {{"linear(5)", Topology::linearArray(5)},
                        {"ring(6)", Topology::ring(6)},
                        {"mesh(3x3)", Topology::mesh(3, 3)}};

    std::printf("\n%d random deadlock-free programs per row "
                "(10 messages, <=4 words)\n\n",
                kTrials);
    row({"topology", "queues", "policy", "done", "deadlock", "infeasible",
         "audit-bad"},
        12);
    rule(7, 12);

    for (const TopoCase& tc : topos) {
        for (int queues : {1, 2, 3}) {
            for (sim::PolicyKind kind :
                 {sim::PolicyKind::kCompatible, sim::PolicyKind::kFcfs,
                  sim::PolicyKind::kRandom}) {
                Tally tally;
                for (int trial = 0; trial < kTrials; ++trial) {
                    GenOptions gen;
                    gen.numMessages = 10;
                    gen.maxWords = 4;
                    gen.seed = trial * 31 + queues;
                    gen.interleave = queues >= 3 ? 0.3
                                   : queues == 2 ? 0.1
                                                 : 0.0;
                    Program p = randomDeadlockFreeProgram(tc.topo, gen);

                    MachineSpec spec;
                    spec.topo = tc.topo;
                    spec.queuesPerLink = queues;
                    sim::SimSession session(p, spec);
                    const sim::CompiledProgram& compiled =
                        *session.compiled();
                    const auto report = compiled.analysis(spec);
                    // Theorem 1 needs consistent labels: where section 6
                    // returns inconsistent ones (SL021), the trivial
                    // labeling runs instead.
                    sim::RunRequest request;
                    bool feasible = report->feasibleAtShape;
                    if (!report->labelsConsistent) {
                        const Labeling trivial = trivialLabeling(p);
                        request.labels = trivial.normalized();
                        feasible = checkDynamicFeasibility(
                                       compiled.competing(),
                                       trivial.labels, spec)
                                       .feasible;
                    }
                    if (!feasible) {
                        // Assumption (ii) fails: Theorem 1 is silent.
                        ++tally.infeasible;
                        continue;
                    }

                    sim::RunLog log(p);
                    request.policy = kind;
                    request.observer = &log;
                    request.seed = trial;
                    sim::RunResult r = session.run(request);
                    if (r.status == sim::RunStatus::kCompleted)
                        ++tally.completed;
                    else
                        ++tally.deadlocked;
                    if (!sim::auditAssignments(p, compiled.competing(),
                                               request.labels.empty()
                                                   ? compiled.labels()
                                                   : request.labels,
                                               log.events)
                             .compatible)
                        ++tally.auditViolations;
                }
                row({tc.name, std::to_string(queues),
                     sim::policyKindName(kind),
                     std::to_string(tally.completed),
                     std::to_string(tally.deadlocked),
                     std::to_string(tally.infeasible),
                     std::to_string(tally.auditViolations)},
                    12);
            }
        }
    }

    std::printf("\nshape check: 'compatible' rows never deadlock and have\n"
                "no audit violations; fcfs/random deadlock on a large\n"
                "fraction of the scarce-queue rows.\n");
    return 0;
}
