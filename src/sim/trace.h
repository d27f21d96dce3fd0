#pragma once

/**
 * @file
 * A run's record and what reads it: RunLog, the RunObserver that
 * keeps a run's assignment trace, timing and delivered values; an
 * ASCII queue-occupancy timeline in the spirit of Fig. 7's lower-half
 * "time T / T+D1 / T+D1+D2" snapshots, built from the log's
 * assignment/release events; and per-message latency reporting.
 */

#include <string>
#include <utility>
#include <vector>

#include "core/machine_spec.h"
#include "core/program.h"
#include "sim/session.h"

namespace syscomm::sim {

/**
 * Everything a run reports through its observer hooks, recorded in
 * order. Attach it as RunRequest::observer; the section 7 audit is
 * auditAssignments(program, competing, labels, log.events).
 *
 * One log per run: clear() it before the next run it records. A
 * request run on several shapes, or on several threaded sweep cells,
 * needs its own observer for each. To continue a run restored from a
 * checkpoint, attach a copy of the log as it stood at the pause. The
 * Program must outlive the log.
 */
class RunLog final : public RunObserver
{
  public:
    explicit RunLog(const Program& program);

    /** Queue assignments, in order. */
    std::vector<AssignmentEvent> events;
    /** Queue releases (queueId = the queue freed), in order. */
    std::vector<AssignmentEvent> releases;
    /**
     * Per message: cycle its first word entered the network and cycle
     * its last word was read (-1 until then).
     */
    std::vector<std::pair<Cycle, Cycle>> msgTiming;
    /** Values received per message, in order. */
    std::vector<std::vector<double>> received;

    /** Forget the recorded run, keeping every vector's capacity. */
    void clear();

    void onAssign(const AssignmentEvent& event) override;
    void onRelease(const AssignmentEvent& event) override;
    void onSend(MessageId msg, int seq, double value, Cycle now) override;
    void onDeliver(MessageId msg, int seq, double value,
                   Cycle now) override;

    /** Same record (the four vectors; the program is not compared). */
    bool operator==(const RunLog& other) const;
    bool operator!=(const RunLog& other) const { return !(*this == other); }

  private:
    const Program* program_;
};

/**
 * Render one character column per cycle (subsampled to at most
 * @p max_width columns) for every hardware queue over a run of
 * @p cycles cycles; the character is the first letter of the message
 * holding the queue, '.' when free.
 */
std::string renderQueueTimeline(const RunLog& log, Cycle cycles,
                                const Program& program,
                                const MachineSpec& spec,
                                int max_width = 72);

/**
 * Per-message timing table: cycle the first word entered the network,
 * cycle the last word was read, and the span between them.
 */
std::string renderMessageLatencies(const RunLog& log,
                                   const Program& program);

/**
 * Completion time of @p program on @p topo with effectively unlimited
 * queue resources (a dedicated, deep queue per message) — the
 * baseline "special-purpose array" of section 9, where "the hardware
 * designer can afford providing as many queues as required".
 */
Cycle idealCycles(const Program& program, const Topology& topo);

} // namespace syscomm::sim
