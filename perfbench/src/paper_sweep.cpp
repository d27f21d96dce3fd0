/**
 * @file
 * paper-sweep: the paper's experiment — does a queue assignment finish
 * or deadlock, across a ladder of machine shapes? An iteration sweeps
 * 17 grids, each a journaled ShapeSweep (checkpointEvery 2000) built
 * fresh so every sweep pays its one compile and its per-shape session
 * pools:
 *
 *   ring   the gen-ring-sweep ring: 8 cells, 2 streams per cell of
 *          2000 words each (~4000 words a cell), long runs;
 *   mesh   16 randomDeadlockFreeProgram-s on an 8x8 mesh (64 messages,
 *          interleave 0.3), short runs, mostly deadlocking here.
 *
 * Every grid runs the 16-rung gen-ring-sweep ladder (queues 1-4 x
 * capacity 1-4, extension 2 on odd rungs) against the policies
 * {compatible, compatible-eager, fcfs, random} x 2 seeds: 128 cells a
 * grid, 2176 an iteration, on min(4, nproc) sweep workers. Journals
 * are real files in the work dir (Io::system()), removed before each
 * sweep so it starts fresh instead of resuming a finished journal.
 *
 * Gate: every row's status, cycles and machine digest must equal a
 * numWorkers=1 run of the same grid.
 */

#include <cstdio>
#include <memory>
#include <sstream>

#include "core/program_gen.h"
#include "core/topology.h"
#include "counting_io.h"
#include "layers.h"
#include "serve/io.h"
#include "serve/protocol.h"
#include "sim/serial.h"
#include "sim/shape_sweep.h"
#include "text/parser.h"
#include "text/printer.h"
#include "workloads.h"

namespace perfbench {

using namespace syscomm;
using serve::JsonValue;

namespace {

constexpr Cycle kCheckpointEvery = 2000;
/** Mesh programs per iteration: averaging over several random
 *  programs keeps one seed's work close to another's. */
constexpr int kMeshPrograms = 16;

/** gen-ring-sweep's program (syscomm-cli): W/R interleaved per word. */
std::string
ringProgramText(int cells, int words, int streams)
{
    std::ostringstream out;
    out << "cells " << cells << "\n";
    for (int c = 0; c < cells; ++c) {
        for (int s = 0; s < streams; ++s)
            out << "message m" << c << "_" << s << " " << c << " -> "
                << (c + 1) % cells << "\n";
    }
    for (int c = 0; c < cells; ++c) {
        const int prev = (c + cells - 1) % cells;
        out << "cell " << c << " {";
        for (int w = 0; w < words; ++w) {
            for (int s = 0; s < streams; ++s)
                out << " W(m" << c << "_" << s << ")";
            for (int s = 0; s < streams; ++s)
                out << " R(m" << prev << "_" << s << ")";
        }
        out << " }\n";
    }
    return out.str();
}

/** gen-ring-sweep's 16-rung ladder. */
std::vector<sim::ShapeSpec>
ladder()
{
    std::vector<sim::ShapeSpec> shapes;
    for (int k = 0; k < 16; ++k) {
        sim::ShapeSpec shape;
        shape.queuesPerLink = 1 + k % 4;
        shape.queueCapacity = 1 + (k / 4) % 4;
        shape.extensionCapacity = k % 2 == 1 ? 2 : 0;
        shape.extensionPenalty = 4;
        shape.name = "q" + std::to_string(shape.queuesPerLink) + "c" +
                     std::to_string(shape.queueCapacity) +
                     (shape.extensionCapacity > 0 ? "x" : "");
        shapes.push_back(shape);
    }
    return shapes;
}

std::vector<sim::RunRequest>
requestGrid(std::uint64_t seed, int seedsPerPolicy)
{
    std::vector<sim::RunRequest> requests;
    for (sim::PolicyKind policy :
         {sim::PolicyKind::kCompatible, sim::PolicyKind::kCompatibleEager,
          sim::PolicyKind::kFcfs, sim::PolicyKind::kRandom}) {
        for (int k = 0; k < seedsPerPolicy; ++k) {
            sim::RunRequest request;
            request.policy = policy;
            request.seed = mix64(seed * 1000 + static_cast<std::uint64_t>(k));
            requests.push_back(request);
        }
    }
    return requests;
}

/** One sweep grid: program, ladder, requests, expected rows. */
struct Grid
{
    std::string name;
    std::string programText;
    std::unique_ptr<Program> program;
    Topology topo;
    JsonValue topoJson;
    std::vector<sim::ShapeSpec> shapes;
    std::vector<sim::RunRequest> requests;
    std::string journalPath;
    /** numWorkers=1 reference rows (status, cycles, digest). */
    std::vector<sim::ShapeSweepRow> expected;

    std::size_t cells() const { return shapes.size() * requests.size(); }
};

/** The ring grid, then the mesh grids, all from the seed. */
std::vector<Grid>
buildGrids(const Context& ctx)
{
    ScopedSpan span("bench.generate", "bench");
    std::vector<Grid> grids;
    Grid ring;
    ring.name = "ring";
    ring.programText = ringProgramText(8, ctx.smoke ? 200 : 2000, 2);
    text::ParseResult parsed = text::parseProgram(ring.programText);
    ring.program = std::make_unique<Program>(std::move(parsed.program));
    ring.topo = Topology::ring(8);
    ring.topoJson = JsonValue::object()
                        .set("kind", JsonValue::str("ring"))
                        .set("cells", JsonValue::integer(8));
    ring.requests = requestGrid(ctx.seed, 2);
    grids.push_back(std::move(ring));

    const int side = ctx.smoke ? 4 : 8;
    for (int m = 0; m < kMeshPrograms; ++m) {
        Grid mesh;
        mesh.name = "mesh" + std::to_string(m);
        mesh.topo = Topology::mesh(side, side);
        GenOptions gen;
        gen.numMessages = side * side;
        gen.interleave = 0.3;
        gen.seed = mix64((ctx.seed << 8) + static_cast<std::uint64_t>(m));
        mesh.program = std::make_unique<Program>(
            randomDeadlockFreeProgram(mesh.topo, gen));
        mesh.programText = text::printProgram(*mesh.program);
        mesh.topoJson = JsonValue::object()
                            .set("kind", JsonValue::str("mesh"))
                            .set("rows", JsonValue::integer(side))
                            .set("cols", JsonValue::integer(side));
        mesh.requests = requestGrid(ctx.seed + 1 + m, ctx.smoke ? 1 : 2);
        grids.push_back(std::move(mesh));
    }
    for (Grid& grid : grids) {
        grid.shapes = ladder();
        grid.journalPath = ctx.workDir + "/" + grid.name + ".journal";
    }
    return grids;
}

/**
 * Remove @p grid's journal, so the next journaled sweep of the same
 * grid starts fresh instead of resuming a finished journal.
 */
void
dropJournal(const Grid& grid)
{
    serve::Io::system().remove(grid.journalPath);
}

/**
 * ShapeSweep over @p grid, run once. With @p io set it journals to
 * grid.journalPath through it (call dropJournal first for a fresh
 * sweep).
 */
sim::ShapeSweepResult
sweepOnce(const Grid& grid, int workers, serve::Io* io)
{
    sim::ShapeSweepOptions options;
    options.numWorkers = workers;
    if (io != nullptr) {
        options.journalPath = grid.journalPath;
        options.checkpointEvery = kCheckpointEvery;
        options.io = io;
    }
    sim::ShapeSweep sweep(*grid.program, SharedTopology(Topology(grid.topo)),
                          grid.shapes, options);
    ScopedSpan span("sim.ShapeSweep::run", "sim");
    return sweep.run(grid.requests);
}

void
checkRows(const Grid& grid, const sim::ShapeSweepResult& result, Gate& gate)
{
    gate.check(result.complete && result.rows.size() == grid.cells(),
               grid.name + ": sweep incomplete");
    for (std::size_t i = 0; i < result.rows.size() && i < grid.cells();
         ++i) {
        const sim::ShapeSweepRow& got = result.rows[i];
        const sim::ShapeSweepRow& want = grid.expected[i];
        gate.check(got.finished &&
                       got.result.status == want.result.status &&
                       got.result.cycles == want.result.cycles &&
                       got.machineDigest == want.machineDigest,
                   grid.name + " row " + std::to_string(i) + " (" +
                       grid.shapes[got.shape].name + "): got " +
                       got.result.statusStr() + "/" +
                       std::to_string(got.result.cycles) + "/" +
                       serve::hexDigest(got.machineDigest) + ", expected " +
                       want.result.statusStr() + "/" +
                       std::to_string(want.result.cycles) + "/" +
                       serve::hexDigest(want.machineDigest));
    }
}

struct PassStats
{
    /** One iteration: a fresh sweep of every grid, back to back. */
    Samples iterationSec;
    /** Grid cells per second of each iteration. */
    Samples iterationRate;
    /** Per iteration: the ring sweep, and all mesh sweeps together. */
    Samples ringSec, meshSec;
    Samples builds;
    /** The median iteration's rate: robust to a noisy host stretch. */
    double rate() const { return iterationRate.median(); }
};

PassStats
measure(const Context& ctx, const std::vector<Grid>& grids, double seconds,
        Gate& gate)
{
    PassStats stats;
    std::int64_t requestId = 0;
    const Clock::time_point start = Clock::now();
    do {
        double iteration = 0.0;
        double cells = 0.0;
        for (std::size_t g = 0; g < grids.size(); ++g) {
            ScopedSpan span("sweep.grid", "bench", requestId++);
            dropJournal(grids[g]);
            const std::int64_t before = sim::CompiledProgram::buildCount();
            const Clock::time_point t = Clock::now();
            sim::ShapeSweepResult result = sweepOnce(
                grids[g], ctx.sweepWorkers, &serve::Io::system());
            const double s = secondsSince(t);
            const std::int64_t builds =
                sim::CompiledProgram::buildCount() - before;
            stats.builds.add(static_cast<double>(builds));
            gate.check(builds == 1, grids[g].name + ": ShapeSweep::run "
                                    "compiled " + std::to_string(builds) +
                                    " times");
            checkRows(grids[g], result, gate);
            cells += static_cast<double>(result.rows.size());
            if (g == 0)
                stats.ringSec.add(s);
            iteration += s;
        }
        stats.iterationSec.add(iteration);
        stats.iterationRate.add(cells / iteration);
        stats.meshSec.add(iteration - stats.ringSec.values().back());
    } while (secondsSince(start) < seconds);
    return stats;
}

/**
 * The grid replayed serially through the layer calls: one compile,
 * one session per shape, every cell run on its own, its row encoded,
 * and runs longer than checkpointEvery paused there and checkpointed.
 */
void
replayGrids(const Context& ctx, const std::vector<Grid>& grids,
            const PassStats& traced, Report& report, Gate& gate)
{
    Samples sessionBuild, runCompleted, runDeadlocked, rowEncode, ckpt;
    Samples journalBytes, journalRecords;
    double serialCellSeconds = 0.0;
    double deadlocked = 0.0, rows = 0.0;
    for (const Grid& grid : grids) {
        ScopedSpan root("replay.grid", "bench");
        // Journal accounting: one write per journal record, after the
        // header's.
        CountingIo counting;
        dropJournal(grid);
        sweepOnce(grid, 1, &counting);
        journalBytes.add(static_cast<double>(counting.bytesWritten()));
        journalRecords.add(static_cast<double>(counting.writeCalls()) - 1.0);

        auto compiled = sim::CompiledProgram::compile(
            *grid.program, SharedTopology(Topology(grid.topo)));
        for (std::size_t s = 0; s < grid.shapes.size(); ++s) {
            const sim::ShapeSpec& shape = grid.shapes[s];
            MachineSpec spec;
            spec.topo = compiled->sharedTopo();
            spec.queuesPerLink = shape.queuesPerLink;
            spec.queueCapacity = shape.queueCapacity;
            spec.extensionCapacity = shape.extensionCapacity;
            spec.extensionPenalty = shape.extensionPenalty;
            std::unique_ptr<sim::SimSession> session;
            Clock::time_point t = Clock::now();
            {
                ScopedSpan span("sim.SimSession", "sim");
                session = std::make_unique<sim::SimSession>(compiled, spec);
            }
            sessionBuild.add(secondsSince(t));
            for (std::size_t r = 0; r < grid.requests.size(); ++r) {
                const sim::RunRequest& request = grid.requests[r];
                sim::RunResult result;
                t = Clock::now();
                {
                    ScopedSpan span("sim.SimSession::run", "sim");
                    result = session->run(request);
                }
                const double runS = secondsSince(t);
                serialCellSeconds += runS;
                const sim::ShapeSweepRow& want =
                    grid.expected[s * grid.requests.size() + r];
                gate.check(result.status == want.result.status &&
                               result.cycles == want.result.cycles &&
                               session->machineDigest() ==
                                   want.machineDigest,
                           grid.name + ": serial replay row differs");
                ++rows;
                if (result.status == sim::RunStatus::kDeadlocked) {
                    runDeadlocked.add(runS);
                    ++deadlocked;
                } else {
                    runCompleted.add(runS);
                }
                std::vector<std::uint8_t> bytes;
                t = Clock::now();
                {
                    ScopedSpan span("sim.saveRunResult", "sim");
                    sim::ByteWriter writer(bytes);
                    sim::saveRunResult(writer, result);
                }
                rowEncode.add(secondsSince(t));
                if (result.cycles > kCheckpointEvery) {
                    sim::RunRequest paused = request;
                    paused.pauseAt = kCheckpointEvery;
                    session->run(paused);
                    bytes.clear();
                    t = Clock::now();
                    {
                        ScopedSpan span("sim.saveCheckpoint", "sim");
                        session->saveCheckpoint(bytes);
                    }
                    ckpt.add(secondsSince(t));
                }
            }
        }
    }
    report.summary("sim.sweep_builds", "count", traced.builds);
    report.summary("sim.shape_session_build_ms", "ms", sessionBuild, 1e3);
    report.summary("sim.cell_run_ms.completed", "ms", runCompleted, 1e3);
    report.summary("sim.cell_run_ms.deadlocked", "ms", runDeadlocked, 1e3);
    report.summary("sim.grid_row_encode_us", "us", rowEncode, 1e6);
    report.summary("sim.sweep_checkpoint_us", "us", ckpt, 1e6);
    report.value("sim.journal_bytes", "bytes", journalBytes.sum());
    report.value("sim.journal_records", "count", journalRecords.sum());
    report.value("sim.sweep_parallel_efficiency", "ratio",
                 serialCellSeconds /
                     (traced.iterationSec.median() * ctx.sweepWorkers));
    report.value("sim.deadlocked_share", "ratio", deadlocked / rows);
}

} // namespace

bool
runPaperSweep(const Context& ctx, Report& report, Gate& gate)
{
    std::vector<Grid> grids;
    Samples setup;
    const int setups = ctx.smoke ? 2 : 3;
    for (int k = 0; k < setups; ++k) {
        // Set-up: generate inputs, then one warm-up sweep per grid so
        // allocator pools and lazily built state exist before timing.
        const Clock::time_point t = Clock::now();
        grids = buildGrids(ctx);
        for (const Grid& grid : grids) {
            dropJournal(grid);
            sweepOnce(grid, ctx.sweepWorkers, &serve::Io::system());
        }
        setup.add(secondsSince(t));
    }
    for (Grid& grid : grids) {
        sim::ShapeSweepResult serial = sweepOnce(grid, 1, nullptr);
        grid.expected = serial.rows;
        gate.check(serial.complete && grid.expected.size() == grid.cells(),
                   grid.name + ": serial reference sweep incomplete");
    }
    if (ctx.corruptExpected)
        grids[0].expected[0].machineDigest ^= 1;
    // Warm-up: untimed iterations, so the host reaches steady state.
    measure(ctx, grids, ctx.smoke ? 0.0 : 1.0, gate);

    PassStats stats;
    PassStats untraced;
    if (ctx.trace) {
        untraced = measure(ctx, grids, ctx.seconds / 2, gate);
        Tracer::instance().enable(true);
        stats = measure(ctx, grids, ctx.seconds / 2, gate);
    } else {
        stats = measure(ctx, grids, ctx.seconds, gate);
    }

    report.summary("setup_s", "s", setup);
    report.value("peak_rss_mb", "MiB", peakRssMb());
    report.valueWith("throughput_per_s", "1/s", stats.rate(),
                     stats.iterationRate);
    report.summary("latency_p50_ms", "ms", stats.iterationSec, 1e3);
    report.valueWith("latency_tail_ms", "ms",
                     stats.iterationSec.quantile(0.90) * 1e3,
                     stats.iterationSec, 1e3);
    report.value("sweep_cells_per_s", "1/s", stats.rate());
    report.summary("sweep_ms.ring", "ms", stats.ringSec, 1e3);
    report.summary("sweep_ms.mesh", "ms", stats.meshSec, 1e3);
    report.note("latency", "wall time of one iteration: a fresh journaled "
                           "ShapeSweep of each grid (compile + session "
                           "pools + runs + journal); tail = p90");
    report.note("throughput", "grid cells finished / sweep wall seconds of "
                              "an iteration, median over the pass");
    for (const Grid* grid : {&grids[0], &grids[1]})
        report.note(grid->name,
                    std::to_string(grid->shapes.size()) + " shapes x " +
                        std::to_string(grid->requests.size()) +
                        " requests = " + std::to_string(grid->cells()) +
                        " cells");
    report.note("grids", "1 ring + " + std::to_string(kMeshPrograms) +
                             " mesh programs per iteration");
    if (!ctx.trace)
        return true;

    replayGrids(ctx, grids, stats, report, gate);
    std::vector<LayerItem> items;
    for (std::size_t g = 0; g < 2; ++g) {
        const Grid& grid = grids[g];
        LayerItem item;
        item.programText = grid.programText;
        item.topology = grid.topoJson;
        item.shape = shapeJson("q2c2", 2, 2);
        item.request.policy = sim::PolicyKind::kCompatible;
        item.request.seed = ctx.seed;
        items.push_back(std::move(item));
    }
    replayLayers(ctx, items, ctx.smoke ? 1 : 5, report, gate);
    reportTrace(ctx, untraced.rate(), stats.rate(), report);
    return true;
}

} // namespace perfbench
