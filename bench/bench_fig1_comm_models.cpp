/**
 * @file
 * Experiment F1 (paper Fig. 1 + section 1): systolic vs
 * memory-to-memory communication.
 *
 * The paper's claim: the memory-to-memory model needs "a total of at
 * least four local memory accesses ... for a cell to update a data
 * item flowing through the array", while the systolic model needs
 * none, so systolic communication is much more efficient. We run a
 * relay pipeline (each interior cell reads and re-emits every word)
 * under both models and report cycles, memory accesses and speedup.
 */

#include <cstdio>

#include "algos/streams.h"
#include "bench_util.h"
#include "sim/memmodel.h"

using namespace syscomm;
using namespace syscomm::bench;

int
main()
{
    banner("F1", "systolic vs memory-to-memory communication (Fig. 1)");

    std::printf("\nrelay pipeline, memory access cost = 1 cycle\n\n");
    row({"cells", "words", "systolic", "mem-to-mem", "mem-acc", "acc/word",
         "speedup"});
    rule(7);
    for (int cells : {3, 5, 9}) {
        for (int words : {16, 64, 256}) {
            Program p = algos::makeRelayPipeline(cells, words);
            MachineSpec spec;
            spec.topo = Topology::linearArray(cells);
            spec.queuesPerLink = 2;
            sim::ModelComparison cmp = sim::compareModels(p, spec);
            row({std::to_string(cells), std::to_string(words),
                 std::to_string(cmp.systolic.cycles),
                 std::to_string(cmp.memToMem.cycles),
                 std::to_string(cmp.memToMem.stats.memAccesses),
                 fmt(cmp.accessesPerWord()), fmt(cmp.speedup())});
        }
    }

    std::printf("\nsweep of the memory access cost (5 cells, 128 words)\n\n");
    row({"mem-cost", "systolic", "mem-to-mem", "speedup"});
    rule(4);
    Program p = algos::makeRelayPipeline(5, 128);
    MachineSpec spec;
    spec.topo = Topology::linearArray(5);
    spec.queuesPerLink = 2;
    for (int cost : {0, 1, 2, 4, 8}) {
        sim::SessionOptions options;
        options.memAccessCost = cost;
        sim::ModelComparison cmp = sim::compareModels(p, spec, options);
        row({std::to_string(cost), std::to_string(cmp.systolic.cycles),
             std::to_string(cmp.memToMem.cycles), fmt(cmp.speedup())});
    }

    std::printf("\nshape check: systolic uses 0 memory accesses; the\n"
                "memory-to-memory model pays 4 accesses per word at each\n"
                "relaying cell and slows down accordingly.\n");
    return 0;
}
