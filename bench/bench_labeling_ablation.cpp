/**
 * @file
 * Experiment A1 (paper section 5 remark): the trivial all-equal
 * labeling is consistent but "will not likely yield an efficient use
 * of queues" — it forces every competitor into one simultaneous group.
 * Compare section 6 labels vs trivial labels on real workloads:
 * queues required, completion, and queue-wait time. Appends
 * machine-readable lines to BENCH_labeling.json.
 */

#include <cstdio>

#include "algos/convolution.h"
#include "algos/fir.h"
#include "algos/matvec.h"
#include "algos/streams.h"
#include "bench_util.h"
#include "sim/session.h"

using namespace syscomm;
using namespace syscomm::bench;

namespace {

struct Workload
{
    std::string name;
    Program program;
    Topology topo;
};

void
report(JsonWriter& json, const Workload& w)
{
    // One compile pass serves every labeling: validation and the
    // competing analysis do not depend on labels, so the per-labeling
    // sessions share a CompiledProgram (each run names its labels)
    // and the feasibility probe reads the shared analysis.
    auto compiled = sim::CompiledProgram::compile(w.program, w.topo);
    const CompetingAnalysis& analysis = compiled->competing();
    Labeling section6 = labelMessages(w.program);
    Labeling graph = graphLabeling(w.program);
    Labeling trivial = trivialLabeling(w.program);

    for (const auto& [label_name, labeling] :
         {std::pair<const char*, const Labeling*>{"section6", &section6},
          {"graph", &graph},
          {"trivial", &trivial}}) {
        if (!labeling->success)
            continue;
        MachineSpec probe;
        probe.topo = w.topo;
        probe.queuesPerLink = 1;
        Feasibility f =
            checkDynamicFeasibility(analysis, labeling->labels, probe);

        MachineSpec spec;
        spec.topo = w.topo;
        spec.queuesPerLink = f.requiredQueuesPerLink;
        // The labeling under test overrides the session's own, which
        // is never computed.
        sim::RunRequest request;
        request.labels = labeling->normalized();
        sim::SimSession session(compiled, spec);
        sim::RunResult r = session.run(request);
        row({w.name, label_name,
             std::to_string(f.requiredQueuesPerLink), r.statusStr(),
             std::to_string(r.cycles), fmt(r.stats.avgRequestWait())});
        json.record("completion_cycles",
                    r.completed() ? static_cast<double>(r.cycles) : -1.0,
                    {{"workload", w.name},
                     {"labeling", label_name},
                     {"queues", std::to_string(f.requiredQueuesPerLink)},
                     {"status", r.statusStr()}});
        json.record("avg_request_wait", r.stats.avgRequestWait(),
                    {{"workload", w.name},
                     {"labeling", label_name},
                     {"queues", std::to_string(f.requiredQueuesPerLink)}});
    }
}

} // namespace

int
main()
{
    banner("A1", "labeling ablation: section 6 vs trivial labels");
    JsonWriter json("labeling_ablation", "BENCH_labeling.json");

    std::printf("\neach labeling runs with exactly the queue count it "
                "requires\n\n");
    row({"workload", "labeling", "queues", "status", "cycles",
         "avg-wait"});
    rule(6);

    {
        algos::FirSpec fir = algos::FirSpec::random(6, 24, 5);
        report(json, {"fir(6,24)", algos::makeFirProgram(fir),
                algos::firTopology(6)});
    }
    {
        algos::ConvSpec conv = algos::ConvSpec::random(4, 8, 9);
        report(json, {"conv(4,8)", algos::makeConvolutionProgram(conv),
                algos::convTopology(conv)});
    }
    {
        algos::MatVecSpec mv = algos::MatVecSpec::random(6, 6, 3);
        report(json, {"matvec(6x6)", algos::makeMatVecProgram(mv),
                algos::matvecTopology(mv)});
    }
    {
        algos::StreamSpec s;
        s.numCells = 5;
        s.numStreams = 6;
        s.wordsPerStream = 8;
        s.pattern = algos::StreamPattern::kSequential;
        report(json, {"streams(6seq)", algos::makeStreamsProgram(s),
                algos::streamsTopology(s)});
    }

    std::printf("\nshape check: section 6 labels need far fewer queues\n"
                "(distinct labels serialize queue reuse); trivial labels\n"
                "need a queue per competing message on the busiest link.\n");
    return 0;
}
