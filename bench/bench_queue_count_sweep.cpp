/**
 * @file
 * Experiment A3 (paper section 7): queues per link vs behavior, for
 * static and dynamic assignment. Static assignment needs a dedicated
 * queue per message; the dynamic compatible scheme runs with as few as
 * the largest same-label group and converts extra queues into speed.
 *
 * The queue-count ladder is a sweep over machine *shapes*, so it runs
 * on ShapeSweep: the program compiles once (validation, competing
 * analysis, labeling) and every rung shares the result; the policy is
 * a per-run knob — static assignment failing on a scarce machine is
 * just a config-error row. Appends machine-readable lines to
 * BENCH_queue_count.json.
 *
 * S2 quantifies what the sharing buys end to end: a 16-shape
 * queue/capacity ladder over a compile-heavy workload, ShapeSweep vs
 * one fresh SimSession per shape, into BENCH_shape_sweep.json — along
 * with each rung's terminal machineDigest, which CI runs twice and
 * diffs for the cheap cross-host determinism check.
 */

#include <chrono>
#include <cstdio>
#include <map>

#include "algos/convolution.h"
#include "algos/matvec.h"
#include "algos/streams.h"
#include "bench_util.h"
#include "sim/shape_sweep.h"

using namespace syscomm;
using namespace syscomm::bench;

namespace {

const int kQueueCounts[] = {1, 2, 3, 4, 8};
const sim::PolicyKind kPolicies[] = {sim::PolicyKind::kCompatible,
                                     sim::PolicyKind::kStatic,
                                     sim::PolicyKind::kFcfs};

double
seconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

std::string
hexDigest(std::uint64_t digest)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

void
sweepWorkload(JsonWriter& json, const std::string& name, const Program& p,
              const Topology& topo)
{
    // One shape per queue count; the program compiles exactly once
    // for the whole ladder (ShapeSweep shares the CompiledProgram).
    std::vector<sim::ShapeSpec> shapes;
    for (int queues : kQueueCounts) {
        sim::ShapeSpec shape;
        shape.name = "q=" + std::to_string(queues);
        shape.queuesPerLink = queues;
        shapes.push_back(std::move(shape));
    }
    std::vector<sim::RunRequest> requests;
    for (sim::PolicyKind kind : kPolicies) {
        sim::RunRequest request;
        request.policy = kind;
        requests.push_back(request);
    }

    sim::ShapeSweep sweep(p, topo, shapes);
    sim::ShapeSweepResult result = sweep.run(requests);

    std::map<sim::PolicyKind, std::vector<std::string>> rows;
    for (sim::PolicyKind kind : kPolicies)
        rows[kind] = {name, sim::policyKindName(kind)};
    for (std::size_t s = 0; s < shapes.size(); ++s) {
        for (std::size_t q = 0; q < requests.size(); ++q) {
            const sim::RunResult& r = result.row(s, q).result;
            rows[requests[q].policy].push_back(
                r.completed() ? std::to_string(r.cycles) : r.statusStr());
            json.record("completion_cycles",
                        r.completed() ? static_cast<double>(r.cycles)
                                      : -1.0,
                        {{"workload", name},
                         {"policy",
                          sim::policyKindName(requests[q].policy)},
                         {"queues",
                          std::to_string(shapes[s].queuesPerLink)},
                         {"status", r.statusStr()}});
        }
    }
    for (sim::PolicyKind kind : kPolicies)
        row(rows[kind], 13);
}

/**
 * A wide array of disjoint adjacent-pair channels: @p pairs messages,
 * two words each, every one crossing its own link. The whole machine
 * completes in a handful of cycles regardless of width while the
 * program-side analyses still process every message — the regime
 * where sharing the compile across a shape ladder pays the most.
 */
Program
widePairsProgram(int pairs)
{
    Program p(2 * pairs);
    for (int i = 0; i < pairs; ++i) {
        CellId from = static_cast<CellId>(2 * i);
        CellId to = static_cast<CellId>(2 * i + 1);
        MessageId id =
            p.declareMessage("M" + std::to_string(i), from, to);
        for (int w = 0; w < 2; ++w)
            p.write(from, id);
        for (int w = 0; w < 2; ++w)
            p.read(to, id);
    }
    return p;
}

/**
 * S2: shared-compile speedup + per-rung determinism digests. The
 * workload is deliberately compile-heavy (a wide array of short
 * disjoint streams: the program-side analyses dwarf the run), the
 * ladder is the acceptance-criteria 16 shapes.
 */
void
sharedCompileLadder()
{
    JsonWriter json("shape_sweep", "BENCH_shape_sweep.json");

    const int kPairs = 1000;
    Program p = widePairsProgram(kPairs);
    Topology topo = Topology::linearArray(2 * kPairs);

    std::vector<sim::ShapeSpec> shapes;
    for (int queues : {1, 2, 3, 4}) {
        for (int capacity : {1, 2, 4, 8}) {
            sim::ShapeSpec shape;
            shape.name = "q=" + std::to_string(queues) +
                         "/cap=" + std::to_string(capacity);
            shape.queuesPerLink = queues;
            shape.queueCapacity = capacity;
            shapes.push_back(std::move(shape));
        }
    }
    std::vector<sim::RunRequest> requests(1);

    // A: shared compile (ShapeSweep, single worker for a fair serial
    // comparison).
    std::int64_t builds0 = sim::CompiledProgram::buildCount();
    sim::ShapeSweepOptions options;
    options.numWorkers = 1;
    auto t0 = std::chrono::steady_clock::now();
    sim::ShapeSweep sweep(p, topo, shapes, options);
    sim::ShapeSweepResult shared = sweep.run(requests);
    double sharedSec = seconds(t0);
    std::int64_t sharedBuilds = sim::CompiledProgram::buildCount() - builds0;

    // B: the pre-ShapeSweep pattern — a fresh SimSession per shape.
    builds0 = sim::CompiledProgram::buildCount();
    t0 = std::chrono::steady_clock::now();
    std::vector<sim::RunResult> perShape;
    for (const sim::ShapeSpec& shape : shapes) {
        MachineSpec spec;
        spec.topo = topo;
        spec.queuesPerLink = shape.queuesPerLink;
        spec.queueCapacity = shape.queueCapacity;
        sim::SimSession session(p, spec);
        perShape.push_back(session.run(requests[0]));
    }
    double perShapeSec = seconds(t0);
    std::int64_t perShapeBuilds =
        sim::CompiledProgram::buildCount() - builds0;

    std::printf("\nS2: shared-compile ladder (%zu shapes, %d pair "
                "streams)\n\n",
                shapes.size(), kPairs);
    row({"mode", "seconds", "analysis-passes"});
    rule(3);
    row({"shape-sweep", fmt(sharedSec), std::to_string(sharedBuilds)});
    row({"per-shape", fmt(perShapeSec), std::to_string(perShapeBuilds)});
    double speedup = sharedSec > 0 ? perShapeSec / sharedSec : 0.0;
    std::printf("\nend-to-end speedup: %.2fx\n", speedup);

    json.record("sweep_seconds", sharedSec,
                {{"mode", "shared-compile"},
                 {"shapes", std::to_string(shapes.size())},
                 {"analysis_passes", std::to_string(sharedBuilds)}});
    json.record("sweep_seconds", perShapeSec,
                {{"mode", "per-shape"},
                 {"shapes", std::to_string(shapes.size())},
                 {"analysis_passes", std::to_string(perShapeBuilds)}});
    json.record("shared_compile_speedup", speedup,
                {{"shapes", std::to_string(shapes.size())}});

    // Per-rung terminal digests: identical runs must produce
    // identical rows, on any host, either kernel, any worker count.
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        const sim::ShapeSweepRow& ladderRow = shared.row(i, 0);
        json.record("completion_cycles",
                    static_cast<double>(ladderRow.result.cycles),
                    {{"shape", shapes[i].name},
                     {"status", ladderRow.result.statusStr()},
                     {"machine_digest",
                      hexDigest(ladderRow.machineDigest)}});
    }
}

} // namespace

int
main()
{
    banner("A3", "queue count sweep (section 7 assignment schemes)");
    JsonWriter json("queue_count_sweep", "BENCH_queue_count.json");

    std::printf("\ncompletion cycles (or failure mode) by queues/link\n\n");
    row({"workload", "policy", "q=1", "q=2", "q=3", "q=4", "q=8"}, 13);
    rule(7, 13);

    {
        algos::ConvSpec conv = algos::ConvSpec::random(4, 8, 21);
        Program p = algos::makeConvolutionProgram(conv);
        sweepWorkload(json, "conv(4,8)", p, algos::convTopology(conv));
    }
    {
        algos::MatVecSpec mv = algos::MatVecSpec::random(5, 5, 2);
        Program p = algos::makeMatVecProgram(mv);
        sweepWorkload(json, "matvec(5x5)", p, algos::matvecTopology(mv));
    }
    {
        algos::StreamSpec s;
        s.numCells = 5;
        s.numStreams = 4;
        s.wordsPerStream = 12;
        s.pattern = algos::StreamPattern::kFanIn;
        Program p = algos::makeStreamsProgram(s);
        sweepWorkload(json, "fan-in(4)", p, algos::streamsTopology(s));
    }

    std::printf("\nshape check: compatible completes from the feasibility\n"
                "threshold upward; static needs the full per-message queue\n"
                "count (config-error below it); fcfs deadlocks on scarce\n"
                "queues and matches compatible when queues are plentiful.\n");

    sharedCompileLadder();
    return 0;
}
