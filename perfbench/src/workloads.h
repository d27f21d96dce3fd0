#pragma once

/**
 * @file
 * The three workloads. Each builds its inputs from ctx.seed, measures
 * for ctx.seconds, checks every outcome through the gate, and fills
 * the report: the end-to-end rows always, the per-layer rows when
 * ctx.trace is set (see perfbench/README.md for the definitions).
 *
 * Every workload reports the same end-to-end names:
 *   setup_s           median of several set-ups in the process
 *   peak_rss_mb       process peak RSS
 *   throughput_per_s  work per second (per-workload unit of work)
 *   latency_p50_ms    median latency of the workload's request
 *   latency_tail_ms   its tail (p99 on serve-mix, p90 elsewhere)
 */

#include "common.h"

namespace perfbench {

/** Run the named workload; false on a usage/setup error. */
bool runKernelLarge(const Context& ctx, Report& report, Gate& gate);
bool runPaperSweep(const Context& ctx, Report& report, Gate& gate);
bool runServeMix(const Context& ctx, Report& report, Gate& gate);

} // namespace perfbench
