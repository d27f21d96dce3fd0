/**
 * @file
 * Experiment A4 (paper section 8): the iWarp queue-extension
 * mechanism — spilling a queue into the receiving cell's local memory
 * implements "very long queues at the expense of larger queue access
 * time". The extension buys completions that plain hardware capacity
 * cannot, and the penalty shows up as extra cycles.
 */

#include <cstdio>

#include "algos/streams.h"
#include "bench_util.h"
#include "sim/session.h"

using namespace syscomm;
using namespace syscomm::bench;

namespace {

Program
frontLoaded(int k)
{
    Program p(2);
    MessageId a = p.declareMessage("A", 0, 1);
    MessageId b = p.declareMessage("B", 0, 1);
    for (int i = 0; i < k; ++i)
        p.write(0, a);
    p.write(0, b);
    p.read(1, b);
    for (int i = 0; i < k; ++i)
        p.read(1, a);
    return p;
}

} // namespace

int
main()
{
    banner("A4", "queue extension ablation (section 8, iWarp)");

    std::printf("\nfront-loaded program, hardware capacity 1\n\n");
    row({"k", "ext=0", "ext=k-1 pen=0", "pen=2", "pen=8"});
    rule(5);
    for (int k : {2, 4, 8, 16}) {
        Program p = frontLoaded(k);
        std::vector<std::string> cells{std::to_string(k)};
        for (auto [ext, pen] :
             {std::pair<int, int>{0, 0}, {k - 1, 0}, {k - 1, 2},
              {k - 1, 8}}) {
            MachineSpec spec;
            spec.topo = Topology::linearArray(2);
            spec.queuesPerLink = 2;
            spec.queueCapacity = 1;
            spec.extensionCapacity = ext;
            spec.extensionPenalty = pen;
            sim::RunResult r = sim::SimSession(p, spec).run();
            cells.push_back(r.status == sim::RunStatus::kCompleted
                                ? std::to_string(r.cycles)
                                : r.statusStr());
        }
        row(cells);
    }

    std::printf("\nhardware capacity vs extension at equal total capacity\n"
                "(k=8, total capacity 8)\n\n");
    row({"hw-cap", "ext", "penalty", "status", "cycles", "ext-words"});
    rule(6);
    Program p = frontLoaded(8);
    for (auto [hw, ext] : {std::pair<int, int>{8, 0}, {4, 4}, {1, 7}}) {
        for (int pen : {0, 4}) {
            MachineSpec spec;
            spec.topo = Topology::linearArray(2);
            spec.queuesPerLink = 2;
            spec.queueCapacity = hw;
            spec.extensionCapacity = ext;
            spec.extensionPenalty = pen;
            sim::RunResult r = sim::SimSession(p, spec).run();
            row({std::to_string(hw), std::to_string(ext),
                 std::to_string(pen), r.statusStr(),
                 std::to_string(r.cycles),
                 std::to_string(r.stats.extendedWords)});
        }
    }

    std::printf("\nshape check: the extension converts deadlocks into\n"
                "completions; its penalty costs cycles, so hardware\n"
                "capacity dominates at equal total size.\n");
    return 0;
}
