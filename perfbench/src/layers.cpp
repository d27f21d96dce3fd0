#include "layers.h"

#include <cstdio>
#include <memory>

#include "core/analyze.h"
#include "core/competing.h"
#include "core/crossoff.h"
#include "core/labeling.h"
#include "serve/cache.h"
#include "serve/io.h"
#include "serve/protocol.h"
#include "sim/serial.h"
#include "text/parser.h"
#include "text/printer.h"

namespace perfbench {

using namespace syscomm;
using serve::JsonValue;

namespace {

/** Time one call (seconds), recording it as a span of @p layer. */
template <class F>
double
timed(const char* name, const char* layer, F&& call)
{
    ScopedSpan span(name, layer);
    const Clock::time_point start = Clock::now();
    call();
    return secondsSince(start);
}

JsonValue
submitLine(const LayerItem& item)
{
    JsonValue msg = JsonValue::object();
    msg.set("verb", JsonValue::str("submit"));
    msg.set("kind", JsonValue::str("run"));
    msg.set("program", JsonValue::str(item.programText));
    msg.set("topology", item.topology);
    msg.set("shape", item.shape);
    JsonValue requests = JsonValue::array();
    requests.push(
        JsonValue::object()
            .set("policy",
                 JsonValue::str(sim::policyKindName(item.request.policy)))
            .set("seed", JsonValue::integer(static_cast<std::int64_t>(
                             item.request.seed)))
            .set("max_cycles", JsonValue::integer(item.request.maxCycles)));
    msg.set("requests", std::move(requests));
    return msg;
}

/** Per-metric sample sets, reported in declaration order. */
struct LayerSamples
{
    Samples parse, print, validate, competing, labeling, crossoff, analyze;
    Samples compile, sessionBuild, sessionHeap, runNsPerCellCycle;
    Samples rowEncode, ckptSave, ckptRestore, ckptBytes;
    Samples jsonParse, parseSubmission, cacheKey, jsonWrite, spoolWrite;
};

void
replayOne(const Context& ctx, const LayerItem& item, std::int64_t index,
          bool first, LayerSamples& s, Gate& gate)
{
    ScopedSpan root("replay.item", "bench", index);
    const std::string line = serve::writeJson(submitLine(item));

    JsonValue parsed;
    std::string error;
    bool ok = false;
    s.jsonParse.add(timed("serve.parseJson", "serve", [&] {
        ok = serve::parseJson(line, parsed, error);
    }));
    gate.check(ok, "replay: parseJson: " + error);
    serve::Submission sub;
    s.parseSubmission.add(timed("serve.parseSubmission", "serve", [&] {
        ok = serve::parseSubmission(parsed, sub, error);
    }));
    gate.check(ok, "replay: parseSubmission: " + error);
    if (!ok)
        return;

    text::ParseResult reparsed;
    s.parse.add(timed("text.parseProgram", "text", [&] {
        reparsed = text::parseProgram(item.programText);
    }));
    gate.check(reparsed.ok, "replay: parseProgram: " + reparsed.error);
    std::string printed;
    s.print.add(timed("text.printProgram", "text", [&] {
        printed = text::printProgram(sub.program);
    }));
    gate.check(text::parseProgram(printed).ok, "replay: print round trip");

    std::uint64_t key = 0;
    s.cacheKey.add(timed("serve.CompileCache::keyFor", "serve", [&] {
        key = serve::CompileCache::keyFor(sub.program, sub.topo, "");
    }));
    (void)key;

    const Program& program = sub.program;
    const Topology& topo = sub.topo;
    const sim::ShapeSpec& shape = sub.shapes[0];
    std::vector<std::string> problems;
    s.validate.add(timed("core.validate", "core", [&] {
        problems = program.validate(topo.numCells());
    }));
    gate.check(problems.empty(), "replay: program invalid");
    s.competing.add(timed("core.CompetingAnalysis::analyze", "core", [&] {
        CompetingAnalysis::analyze(program, topo);
    }));
    s.labeling.add(timed("core.labelMessages", "core",
                         [&] { labelMessages(program); }));
    s.crossoff.add(
        timed("core.crossOff", "core", [&] { crossOff(program); }));
    AnalyzeOptions options;
    options.queuesPerLink = shape.queuesPerLink;
    options.queueCapacity = shape.queueCapacity;
    options.extensionCapacity = shape.extensionCapacity;
    s.analyze.add(timed("core.analyzeProgram", "core", [&] {
        analyzeProgram(program, topo, options);
    }));

    std::shared_ptr<const sim::CompiledProgram> compiled;
    const SharedTopology shared{Topology(topo)};
    s.compile.add(timed("sim.CompiledProgram::compile", "sim", [&] {
        compiled = sim::CompiledProgram::compile(program, shared);
    }));
    MachineSpec spec;
    spec.topo = compiled->sharedTopo();
    spec.queuesPerLink = shape.queuesPerLink;
    spec.queueCapacity = shape.queueCapacity;
    spec.extensionCapacity = shape.extensionCapacity;
    spec.extensionPenalty = shape.extensionPenalty;
    std::unique_ptr<sim::SimSession> session;
    // mallinfo2 walks every arena, which takes far longer than the
    // build on a large heap: read it outside the timed call.
    const double heapBefore = heapInUseMb();
    s.sessionBuild.add(timed("sim.SimSession", "sim", [&] {
        session = std::make_unique<sim::SimSession>(compiled, spec);
    }));
    s.sessionHeap.add(heapInUseMb() - heapBefore);
    const sim::RunRequest& request = sub.requests[0];
    sim::RunResult result;
    const double runSeconds = timed("sim.SimSession::run", "sim", [&] {
        result = session->run(request);
    });
    const std::uint64_t digest = session->machineDigest();
    if (result.cycles > 0) {
        s.runNsPerCellCycle.add(runSeconds * 1e9 /
                                (static_cast<double>(result.cycles) *
                                 topo.numCells()));
    }

    if (first) {
        // The replay's own oracle: the dense reference kernel.
        sim::SessionOptions refOptions;
        refOptions.kernel = sim::KernelKind::kReference;
        sim::SimSession reference(compiled, spec, refOptions);
        sim::RunResult expect = reference.run(request);
        gate.check(expect.status == result.status &&
                       expect.cycles == result.cycles &&
                       reference.machineDigest() == digest,
                   "replay: event kernel != reference kernel");
    }

    std::vector<std::uint8_t> rowBytes;
    s.rowEncode.add(timed("sim.saveRunResult", "sim", [&] {
        sim::ByteWriter writer(rowBytes);
        sim::saveRunResult(writer, result);
    }));

    // Checkpoint leg: pause half way, save, restore on a second
    // session, resume to the end; the digest must not change.
    if (result.cycles >= 2) {
        sim::RunRequest paused = request;
        paused.pauseAt = result.cycles / 2;
        sim::RunResult half = session->run(paused);
        if (half.status == sim::RunStatus::kPaused) {
            std::vector<std::uint8_t> bytes;
            s.ckptSave.add(timed("sim.saveCheckpoint", "sim", [&] {
                ok = session->saveCheckpoint(bytes);
            }));
            sim::SimSession second(compiled, spec);
            s.ckptRestore.add(timed("sim.restoreCheckpoint", "sim", [&] {
                ok = ok && second.restoreCheckpoint(request, bytes);
            }));
            s.ckptBytes.add(static_cast<double>(bytes.size()));
            sim::RunResult resumed = second.resume();
            gate.check(ok && resumed.status == result.status &&
                           resumed.cycles == result.cycles &&
                           second.machineDigest() == digest,
                       "replay: checkpoint resume changed the run");
        }
    }

    JsonValue body = JsonValue::object();
    body.set("status", JsonValue::str(result.statusStr()));
    body.set("cycles", JsonValue::integer(result.cycles));
    body.set("machine_digest", JsonValue::str(serve::hexDigest(digest)));
    std::string rendered;
    s.jsonWrite.add(timed("serve.writeJson", "serve",
                          [&] { rendered = serve::writeJson(body); }));
    // A fresh file per write, as the daemon spools each submission id.
    const std::string spoolPath = ctx.workDir + "/replay" +
                                  std::to_string(s.spoolWrite.count()) +
                                  ".sub.json";
    s.spoolWrite.add(timed("serve.writeFileAtomicIo", "serve", [&] {
        ok = serve::writeFileAtomicIo(serve::Io::system(), spoolPath, line,
                                      serve::FsyncPolicy::kNone, error);
    }));
    gate.check(ok, "replay: spool write: " + error);
}

} // namespace

JsonValue
shapeJson(const std::string& name, int queues, int capacity, int extension,
          int penalty)
{
    return JsonValue::object()
        .set("name", JsonValue::str(name))
        .set("queues", JsonValue::integer(queues))
        .set("capacity", JsonValue::integer(capacity))
        .set("extension", JsonValue::integer(extension))
        .set("penalty", JsonValue::integer(penalty));
}

void
replayLayers(const Context& ctx, const std::vector<LayerItem>& items,
             int reps, Report& report, Gate& gate)
{
    LayerSamples s;
    for (int rep = 0; rep < reps; ++rep) {
        for (std::size_t i = 0; i < items.size(); ++i)
            replayOne(ctx, items[i], static_cast<std::int64_t>(i),
                      rep == 0, s, gate);
    }
    report.summary("text.parse_us", "us", s.parse, 1e6);
    report.summary("text.print_us", "us", s.print, 1e6);
    report.summary("core.validate_ms", "ms", s.validate, 1e3);
    report.summary("core.competing_ms", "ms", s.competing, 1e3);
    report.summary("core.labeling_ms", "ms", s.labeling, 1e3);
    report.summary("core.crossoff_ms", "ms", s.crossoff, 1e3);
    report.summary("core.analyze_ms", "ms", s.analyze, 1e3);
    report.summary("sim.compile_ms", "ms", s.compile, 1e3);
    report.summary("sim.session_build_ms", "ms", s.sessionBuild, 1e3);
    report.summary("sim.session_heap_mb", "MiB", s.sessionHeap);
    report.summary("sim.run_ns_per_cell_cycle", "ns", s.runNsPerCellCycle);
    report.summary("sim.row_encode_us", "us", s.rowEncode, 1e6);
    report.summary("sim.checkpoint_save_ms", "ms", s.ckptSave, 1e3);
    report.summary("sim.checkpoint_restore_ms", "ms", s.ckptRestore, 1e3);
    report.summary("sim.checkpoint_bytes", "bytes", s.ckptBytes);
    report.summary("serve.json_parse_us", "us", s.jsonParse, 1e6);
    report.summary("serve.parse_submission_us", "us", s.parseSubmission,
                   1e6);
    report.summary("serve.cache_key_us", "us", s.cacheKey, 1e6);
    report.summary("serve.json_write_us", "us", s.jsonWrite, 1e6);
    report.summary("serve.spool_write_us", "us", s.spoolWrite, 1e6);
}

void
reportTrace(const Context& ctx, double untracedRate, double tracedRate,
            Report& report)
{
    Tracer& tracer = Tracer::instance();
    const std::map<std::string, double> self = tracer.selfMsByLayer();
    for (const char* layer : {"text", "core", "sim", "serve", "bench"}) {
        auto it = self.find(layer);
        report.value(std::string("trace.") + layer + ".self_ms", "ms",
                     it == self.end() ? 0.0 : it->second);
    }
    report.value("trace.spans", "count",
                 static_cast<double>(tracer.spanCount()));
    // Positive = the traced pass did less work per second.
    report.value("trace_overhead_pct", "%",
                 tracedRate > 0.0
                     ? 100.0 * (untracedRate - tracedRate) / untracedRate
                     : 0.0);
    if (!ctx.tracePath.empty() && !tracer.write(ctx.tracePath))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     ctx.tracePath.c_str());
}

} // namespace perfbench
