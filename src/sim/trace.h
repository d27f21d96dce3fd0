#pragma once

/**
 * @file
 * Post-run visualization: an ASCII queue-occupancy timeline in the
 * spirit of Fig. 7's lower-half "time T / T+D1 / T+D1+D2" snapshots,
 * built from the run's assignment/release events, plus per-message
 * latency reporting.
 */

#include <string>

#include "core/machine_spec.h"
#include "core/program.h"
#include "sim/session.h"

namespace syscomm::sim {

/**
 * Render one character column per cycle (subsampled to at most
 * @p max_width columns) for every hardware queue; the character is
 * the first letter of the message holding the queue, '.' when free.
 */
std::string renderQueueTimeline(const RunResult& result,
                                const Program& program,
                                const MachineSpec& spec,
                                int max_width = 72);

/**
 * Per-message timing table: cycle the first word entered the network,
 * cycle the last word was read, and the span between them.
 */
std::string renderMessageLatencies(const RunResult& result,
                                   const Program& program);

/**
 * Completion time of @p program on @p topo with effectively unlimited
 * queue resources (a dedicated, deep queue per message) — the
 * baseline "special-purpose array" of section 9, where "the hardware
 * designer can afford providing as many queues as required".
 */
Cycle idealCycles(const Program& program, const Topology& topo);

} // namespace syscomm::sim
