#pragma once

/**
 * @file
 * The per-layer replay every traced run ends with: one workload's own
 * inputs pushed serially through each layer's public entry points,
 * each call timed on its own (and recorded as a span). Every workload
 * reports the same per-layer metric names, measured on its inputs:
 *
 *   text   parseProgram, printProgram
 *   core   Program::validate, CompetingAnalysis::analyze,
 *          labelMessages, crossOff, analyzeProgram
 *   sim    CompiledProgram::compile, the SimSession constructor (time
 *          and RSS), SimSession::run (ns per cell-cycle),
 *          saveRunResult, saveCheckpoint / restoreCheckpoint
 *   serve  parseJson, parseSubmission, CompileCache::keyFor,
 *          writeJson, writeFileAtomicIo (FsyncPolicy::kNone)
 */

#include <string>
#include <vector>

#include "common.h"
#include "core/machine_spec.h"
#include "core/program.h"
#include "serve/json.h"
#include "sim/session.h"

namespace perfbench {

/** One input the replay pushes through every layer. */
struct LayerItem
{
    /** Program text as a client would submit it. */
    std::string programText;
    /** The submit body's "topology" object. */
    syscomm::serve::JsonValue topology;
    /** The submit body's "shape" object (queues/capacity/...). */
    syscomm::serve::JsonValue shape;
    /** Request the run leg replays. */
    syscomm::sim::RunRequest request;
};

/** Replay @p items (each @p reps times); adds the per-layer rows. */
void replayLayers(const Context& ctx, const std::vector<LayerItem>& items,
                  int reps, Report& report, Gate& gate);

/** The "shape" JSON object the serve protocol parses. */
syscomm::serve::JsonValue shapeJson(const std::string& name, int queues,
                                    int capacity, int extension = 0,
                                    int penalty = 4);

/** Per-layer self time from the trace plus the overhead row. */
void reportTrace(const Context& ctx, double untracedRate,
                 double tracedRate, Report& report);

} // namespace perfbench
