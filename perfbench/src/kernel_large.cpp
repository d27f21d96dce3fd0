/**
 * @file
 * kernel-large: the event-driven kernel on largeArrayProgram linear
 * arrays — dense-active at 4k and 64k cells, streaming at 64k — with
 * 2 queues per link of capacity 4, stats-only runs on sessions built
 * during set-up. Each measuring pass is a sequence of fixed rounds
 * (20 dense-4k runs, one dense-64k run, one stream-64k run); in the
 * first round of a pass each 64k run goes through the daemon's
 * park/resume path instead: pause mid-run, saveCheckpoint,
 * restoreCheckpoint on a second session, resume. Two untimed rounds
 * warm up before the first pass.
 *
 * Gate: dense-4k and dense-64k must match the reference kernel's
 * status, cycles and machineDigest; stream-64k (whose program does
 * not depend on the seed) must match the recorded digest; every
 * checkpoint-resumed run must match the unpaused run.
 */

#include <cstdio>
#include <memory>

#include "core/program_gen.h"
#include "core/topology.h"
#include "layers.h"
#include "serve/protocol.h"
#include "sim/session.h"
#include "text/printer.h"
#include "workloads.h"

namespace perfbench {

using namespace syscomm;

namespace {

struct Phase
{
    std::string name;
    ArrayPhase kind = ArrayPhase::kDenseActive;
    int cells = 0;
    std::unique_ptr<Program> program;
    MachineSpec spec;
    std::shared_ptr<const sim::CompiledProgram> compiled;
    std::unique_ptr<sim::SimSession> session;
    /** Restore target of the checkpoint leg (64k phases only). */
    std::unique_ptr<sim::SimSession> second;
    sim::RunRequest request;

    double compileS = 0.0;
    double buildS = 0.0;
    double sessionHeapMb = 0.0;

    sim::RunStatus status = sim::RunStatus::kConfigError;
    Cycle cycles = 0;
    std::uint64_t digest = 0;
};

/** One measuring pass's accumulators. */
struct PassStats
{
    double cellCycles = 0.0;
    double seconds = 0.0;
    int rounds = 0;
    /** Run seconds per phase (phase 0, dense-4k, is the latency). */
    std::vector<Samples> runSec;
    std::vector<double> phaseCellCycles, phaseSeconds;
    Samples ckptSave, ckptRestore, ckptBytes;
    /** Cell-cycles per host second of each round. */
    Samples roundRate;
    /** The median round's rate: robust to a noisy stretch of the host. */
    double rate() const { return roundRate.median(); }
};

LargeArrayOptions
phaseOptions(ArrayPhase kind, int cells, std::uint64_t seed)
{
    LargeArrayOptions options;
    options.phase = kind;
    options.seed = seed;
    options.wordsPerMessage = 64;
    if (kind == ArrayPhase::kStreaming) {
        options.messages = std::max(8, cells / 1024);
        options.computeGap = 8;
    }
    return options;
}

/** Build inputs, compile and sessions; returns the set-up seconds. */
double
buildPhases(const Context& ctx, std::vector<Phase>& phases)
{
    phases.clear(); // free the previous set-up before measuring this one
    const int small = ctx.smoke ? 1024 : 4096;
    const int large = ctx.smoke ? 4096 : 65536;
    const Clock::time_point start = Clock::now();
    struct Want
    {
        const char* name;
        ArrayPhase kind;
        int cells;
    };
    for (const Want& want : {Want{"dense-4k", ArrayPhase::kDenseActive, small},
                             Want{"dense-64k", ArrayPhase::kDenseActive, large},
                             Want{"stream-64k", ArrayPhase::kStreaming,
                                  large}}) {
        Phase phase;
        phase.name = want.name;
        phase.kind = want.kind;
        phase.cells = want.cells;
        {
            ScopedSpan span("bench.largeArrayProgram", "bench");
            phase.program = std::make_unique<Program>(largeArrayProgram(
                want.cells, phaseOptions(want.kind, want.cells,
                                         mix64(ctx.seed))));
        }
        phase.spec.topo = Topology::linearArray(want.cells);
        phase.spec.queuesPerLink = 2;
        phase.spec.queueCapacity = 4;
        Clock::time_point t = Clock::now();
        {
            ScopedSpan span("sim.CompiledProgram::compile", "sim");
            phase.compiled = sim::CompiledProgram::compile(*phase.program,
                                                           phase.spec.topo);
        }
        phase.compileS = secondsSince(t);
        const double heapBefore = heapInUseMb();
        t = Clock::now();
        {
            ScopedSpan span("sim.SimSession", "sim");
            phase.session =
                std::make_unique<sim::SimSession>(phase.compiled, phase.spec);
        }
        phase.buildS = secondsSince(t);
        phase.sessionHeapMb = heapInUseMb() - heapBefore;
        if (phase.name != "dense-4k") {
            ScopedSpan span("sim.SimSession", "sim");
            phase.second =
                std::make_unique<sim::SimSession>(phase.compiled, phase.spec);
        }
        phase.request.seed = ctx.seed;
        phase.request.maxCycles = 10'000'000;
        phases.push_back(std::move(phase));
    }
    return secondsSince(start);
}

/** Fix each phase's expected outcome (outside every timed region). */
void
setExpectations(const Context& ctx, std::vector<Phase>& phases,
                Report& report, Gate& gate)
{
    Golden golden;
    std::string error;
    if (!ctx.goldenPath.empty() && !golden.load(ctx.goldenPath, error))
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    for (Phase& phase : phases) {
        const std::string key = phase.name + ".cells" +
                                std::to_string(phase.cells);
        if (phase.kind == ArrayPhase::kDenseActive) {
            sim::SessionOptions refOptions;
            refOptions.kernel = sim::KernelKind::kReference;
            sim::SimSession reference(phase.compiled, phase.spec,
                                      refOptions);
            sim::RunResult r = reference.run(phase.request);
            phase.status = r.status;
            phase.cycles = r.cycles;
            phase.digest = reference.machineDigest();
            gate.check(r.completed(), phase.name + ": reference run " +
                                          r.statusStr());
            report.note("digest." + key + ".seed" + std::to_string(ctx.seed),
                        serve::hexDigest(phase.digest));
        } else {
            // The streaming program ignores the seed: one recorded
            // digest covers every run.
            sim::RunResult r = phase.session->run(phase.request);
            phase.status = sim::RunStatus::kCompleted;
            phase.cycles = r.cycles;
            std::uint64_t recorded = 0;
            if (golden.find("kernel-large", key, recorded)) {
                phase.digest = recorded;
            } else {
                phase.digest = phase.session->machineDigest();
                report.note("unrecorded", key);
            }
            report.note("digest." + key,
                        serve::hexDigest(phase.session->machineDigest()));
            if (ctx.corruptExpected)
                phase.digest ^= 1;
        }
    }
}

/** One timed run (or checkpoint leg) of @p phase, gated. */
void
runOnce(Phase& phase, std::size_t index, bool checkpointLeg,
        std::int64_t requestId, PassStats& stats, Gate& gate)
{
    ScopedSpan root("kernel.run", "bench", requestId);
    sim::RunResult result;
    double seconds = 0.0;
    sim::SimSession* finalSession = phase.session.get();
    if (!checkpointLeg) {
        ScopedSpan span("sim.SimSession::run", "sim");
        const Clock::time_point start = Clock::now();
        result = phase.session->run(phase.request);
        seconds = secondsSince(start);
    } else {
        sim::RunRequest paused = phase.request;
        paused.pauseAt = std::max<Cycle>(1, phase.cycles / 2);
        std::vector<std::uint8_t> bytes;
        bool ok = false;
        Clock::time_point t = Clock::now();
        {
            ScopedSpan span("sim.SimSession::run", "sim");
            result = phase.session->run(paused);
        }
        const double runS = secondsSince(t);
        t = Clock::now();
        {
            ScopedSpan span("sim.saveCheckpoint", "sim");
            ok = phase.session->saveCheckpoint(bytes);
        }
        const double saveS = secondsSince(t);
        t = Clock::now();
        {
            ScopedSpan span("sim.restoreCheckpoint", "sim");
            ok = ok && phase.second->restoreCheckpoint(phase.request, bytes);
        }
        const double restoreS = secondsSince(t);
        t = Clock::now();
        {
            ScopedSpan span("sim.SimSession::resume", "sim");
            result = phase.second->resume();
        }
        seconds = runS + saveS + restoreS + secondsSince(t);
        gate.check(ok, phase.name + ": checkpoint save/restore failed");
        stats.ckptSave.add(saveS);
        stats.ckptRestore.add(restoreS);
        stats.ckptBytes.add(static_cast<double>(bytes.size()));
        finalSession = phase.second.get();
    }
    const std::uint64_t digest = finalSession->machineDigest();
    gate.check(result.status == phase.status &&
                   result.cycles == phase.cycles && digest == phase.digest,
               phase.name + (checkpointLeg ? " (checkpoint leg)" : "") +
                   ": got " + result.statusStr() + " cycles " +
                   std::to_string(result.cycles) + " digest " +
                   serve::hexDigest(digest) + ", expected " +
                   sim::runStatusName(phase.status) + " cycles " +
                   std::to_string(phase.cycles) + " digest " +
                   serve::hexDigest(phase.digest));
    const double cellCycles =
        static_cast<double>(phase.cells) * static_cast<double>(result.cycles);
    stats.cellCycles += cellCycles;
    stats.seconds += seconds;
    if (!checkpointLeg) {
        // Per-phase kernel figures: plain runs only.
        stats.phaseCellCycles[index] += cellCycles;
        stats.phaseSeconds[index] += seconds;
        stats.runSec[index].add(seconds);
    }
}

/**
 * Whole rounds until @p seconds of wall time have passed (and at least
 * @p minRounds rounds).
 */
PassStats
measure(const Context& ctx, std::vector<Phase>& phases, double seconds,
        Gate& gate, int minRounds = 1)
{
    PassStats stats;
    stats.runSec.resize(phases.size());
    stats.phaseCellCycles.assign(phases.size(), 0.0);
    stats.phaseSeconds.assign(phases.size(), 0.0);
    const int smallRuns = ctx.smoke ? 4 : 20;
    std::int64_t requestId = 0;
    const Clock::time_point start = Clock::now();
    do {
        const double cellCycles = stats.cellCycles;
        const double runSeconds = stats.seconds;
        for (int k = 0; k < smallRuns; ++k)
            runOnce(phases[0], 0, false, requestId++, stats, gate);
        for (std::size_t i = 1; i < phases.size(); ++i)
            runOnce(phases[i], i, stats.rounds == 0, requestId++, stats,
                    gate);
        stats.roundRate.add((stats.cellCycles - cellCycles) /
                            (stats.seconds - runSeconds));
        ++stats.rounds;
    } while (secondsSince(start) < seconds || stats.rounds < minRounds);
    return stats;
}

} // namespace

bool
runKernelLarge(const Context& ctx, Report& report, Gate& gate)
{
    std::vector<Phase> phases;
    Samples setup;
    const int setups = ctx.smoke ? 2 : 3;
    for (int k = 0; k < setups; ++k)
        setup.add(buildPhases(ctx, phases));
    setExpectations(ctx, phases, report, gate);
    // Warm-up: untimed rounds, so the host reaches steady state first.
    measure(ctx, phases, 0.0, gate, 2);

    PassStats stats;
    PassStats untraced;
    if (ctx.trace) {
        untraced = measure(ctx, phases, ctx.seconds / 2, gate);
        Tracer::instance().enable(true);
        stats = measure(ctx, phases, ctx.seconds / 2, gate);
    } else {
        stats = measure(ctx, phases, ctx.seconds, gate);
    }

    report.summary("setup_s", "s", setup);
    report.value("peak_rss_mb", "MiB", peakRssMb());
    report.valueWith("throughput_per_s", "1/s", stats.rate(),
                     stats.roundRate);
    const Samples& latency = stats.runSec[0];
    report.summary("latency_p50_ms", "ms", latency, 1e3);
    report.valueWith("latency_tail_ms", "ms", latency.quantile(0.90) * 1e3,
                     latency, 1e3);
    report.value("kernel_cell_cycles_per_s", "1/s", stats.rate());
    report.value("rounds", "count", stats.rounds);
    report.note("latency", "dense-4k run wall time; tail = p90");
    report.note("throughput",
                "simulated cell-cycles / host run seconds of a round (20 "
                "dense-4k + 1 dense-64k + 1 stream-64k runs, checkpoint "
                "legs included), median over the pass's rounds");
    for (std::size_t i = 0; i < phases.size(); ++i) {
        const Phase& phase = phases[i];
        report.note(phase.name, std::to_string(phase.cells) + " cells, " +
                                    std::to_string(phase.cycles) +
                                    " cycles per run, " +
                                    std::to_string(
                                        stats.runSec[i].count()) +
                                    " timed runs without a checkpoint");
    }
    if (!ctx.trace)
        return true;

    // Per-layer rows specific to this workload, from the set-up and the
    // traced pass, then the common replay on the dense-4k input.
    for (std::size_t i = 0; i < phases.size(); ++i) {
        const Phase& phase = phases[i];
        report.value("sim.run_ns_per_cell_cycle." + phase.name, "ns",
                     stats.phaseSeconds[i] * 1e9 / stats.phaseCellCycles[i]);
        if (phase.name == "dense-64k") {
            report.value("sim.compile_ms.dense-64k", "ms",
                         phase.compileS * 1e3);
            report.value("sim.session_build_ms.dense-64k", "ms",
                         phase.buildS * 1e3);
            report.value("sim.session_heap_mb.dense-64k", "MiB",
                         phase.sessionHeapMb);
        }
    }
    const double knee = (stats.phaseSeconds[1] / stats.phaseCellCycles[1]) /
                        (stats.phaseSeconds[0] / stats.phaseCellCycles[0]);
    report.value("sim.l2_knee_ratio", "ratio", knee);
    report.summary("sim.checkpoint_save_ms.64k", "ms", stats.ckptSave, 1e3);
    report.summary("sim.checkpoint_restore_ms.64k", "ms", stats.ckptRestore,
                   1e3);
    report.summary("sim.checkpoint_bytes.64k", "bytes", stats.ckptBytes);

    LayerItem item;
    item.programText = text::printProgram(*phases[0].program);
    item.topology = serve::JsonValue::object()
                        .set("kind", serve::JsonValue::str("linear"))
                        .set("cells", serve::JsonValue::integer(
                                          phases[0].cells));
    item.shape = shapeJson("q2c4", 2, 4);
    item.request = phases[0].request;
    replayLayers(ctx, {item}, ctx.smoke ? 1 : 3, report, gate);
    reportTrace(ctx, untraced.rate(), stats.rate(), report);
    return true;
}

} // namespace perfbench
