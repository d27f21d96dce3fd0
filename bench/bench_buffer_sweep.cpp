/**
 * @file
 * Experiment A2 (paper section 8): queue buffering. Deeper queues
 * (a) enlarge the class of deadlock-free programs under lookahead and
 * (b) monotonically reduce completion time by decoupling producer and
 * consumer. Appends machine-readable lines to BENCH_buffer.json.
 */

#include <cstdio>

#include "algos/fir.h"
#include "algos/streams.h"
#include "bench_util.h"
#include "core/crossoff.h"
#include "sim/shape_sweep.h"

using namespace syscomm;
using namespace syscomm::bench;

namespace {

/** Sender front-loads k words of A before B; receiver wants B first. */
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
    banner("A2", "queue buffering sweep (section 8)");
    JsonWriter json("buffer_sweep", "BENCH_buffer.json");

    std::printf("\n(a) lookahead acceptance of front-loaded programs\n"
                "    (k writes buffered before the consumer catches up)\n\n");
    row({"k", "cap=1", "cap=2", "cap=4", "cap=8"});
    rule(5);
    for (int k : {1, 2, 4, 8}) {
        Program p = frontLoaded(k);
        std::vector<std::string> cells{std::to_string(k)};
        for (int capacity : {1, 2, 4, 8}) {
            bool free = isDeadlockFreeWithLookahead(
                p, uniformSkipBound(capacity));
            cells.push_back(free ? "free" : "deadlocked");
            json.record("lookahead_free", free ? 1.0 : 0.0,
                        {{"k", std::to_string(k)},
                         {"capacity", std::to_string(capacity)}});
        }
        row(cells);
    }

    std::printf("\n(b) completion cycles vs capacity\n\n");
    row({"workload", "cap=1", "cap=2", "cap=4", "cap=8", "cap=16"});
    rule(6);

    auto sweep = [&](const std::string& name, const Program& p,
                     Topology topo, int queues) {
        // The capacity ladder is a machine-shape sweep: compile the
        // program once (ShapeSweep) and vary only the hardware. The
        // default unobserved request is all the sweep wants — cycles,
        // not event logs.
        std::vector<sim::ShapeSpec> shapes;
        for (int capacity : {1, 2, 4, 8, 16}) {
            sim::ShapeSpec shape;
            shape.name = "cap=" + std::to_string(capacity);
            shape.queuesPerLink = queues;
            shape.queueCapacity = capacity;
            shapes.push_back(std::move(shape));
        }
        sim::ShapeSweep shapeSweep(p, topo, shapes);
        sim::ShapeSweepResult result =
            shapeSweep.run(std::vector<sim::RunRequest>(1));

        std::vector<std::string> cells{name};
        for (std::size_t s = 0; s < shapes.size(); ++s) {
            const sim::RunResult& r = result.row(s, 0).result;
            cells.push_back(r.completed() ? std::to_string(r.cycles)
                                          : r.statusStr());
            json.record("completion_cycles",
                        r.completed() ? static_cast<double>(r.cycles)
                                      : -1.0,
                        {{"workload", name},
                         {"capacity",
                          std::to_string(shapes[s].queueCapacity)},
                         {"queues", std::to_string(queues)},
                         {"status", r.statusStr()}});
        }
        row(cells);
    };

    {
        algos::FirSpec fir = algos::FirSpec::random(4, 32, 11);
        sweep("fir(4,32)", algos::makeFirProgram(fir),
              algos::firTopology(4), 2);
    }
    {
        algos::StreamSpec s;
        s.numCells = 6;
        s.numStreams = 4;
        s.wordsPerStream = 16;
        s.pattern = algos::StreamPattern::kSequential;
        sweep("streams-seq", algos::makeStreamsProgram(s),
              algos::streamsTopology(s), 2);
    }
    {
        algos::StreamSpec s;
        s.numCells = 6;
        s.numStreams = 3;
        s.wordsPerStream = 16;
        s.pattern = algos::StreamPattern::kInterleaved;
        sweep("streams-int", algos::makeStreamsProgram(s),
              algos::streamsTopology(s), 3);
    }

    std::printf("\nshape check: cycles are non-increasing in capacity,\n"
                "with diminishing returns once the pipeline skew fits.\n");
    return 0;
}
