#pragma once

/**
 * @file
 * Deadlock snapshot reporting. Because the simulator is deterministic
 * and progress is monotone, a cycle with zero progress events and
 * unfinished work is a proof of deadlock. The report keeps what the
 * lower half of Fig. 7 shows — the blocked cells, and the links whose
 * queues hold a message or have one waiting — by id; render() turns
 * the ids into text against the Program.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "core/program.h"
#include "core/types.h"
#include "sim/cell_exec.h"
#include "sim/span.h"

namespace syscomm::sim {

/** Frozen state of one unfinished cell; its op is cellOps(cell)[pc]. */
struct CellBlockInfo
{
    CellId cell = kInvalidCell;
    int pc = 0;
    BlockReason reason = BlockReason::kNone;

    bool operator==(const CellBlockInfo& o) const
    {
        return cell == o.cell && pc == o.pc && reason == o.reason;
    }
};

/** Frozen state of one queue. */
struct QueueSnapshot
{
    int id = 0;
    /** Assigned message, or kInvalidMessage for a free queue. */
    MessageId msg = kInvalidMessage;
    int occupancy = 0;
    int capacity = 0;

    bool operator==(const QueueSnapshot& o) const
    {
        return id == o.id && msg == o.msg && occupancy == o.occupancy &&
               capacity == o.capacity;
    }
};

/**
 * Frozen state of one implicated link: every one of its queues, and
 * the messages waiting (requested but unassigned) on it, as slices of
 * the report's flat vectors (DeadlockReport::queuesOf, waitingOf).
 */
struct LinkSnapshot
{
    LinkIndex link = kInvalidLink;
    CellId a = kInvalidCell;
    CellId b = kInvalidCell;
    std::uint32_t firstQueue = 0, numQueues = 0;
    std::uint32_t firstWaiting = 0, numWaiting = 0;

    bool operator==(const LinkSnapshot& o) const
    {
        return link == o.link && a == o.a && b == o.b &&
               firstQueue == o.firstQueue && numQueues == o.numQueues &&
               firstWaiting == o.firstWaiting && numWaiting == o.numWaiting;
    }
};

/**
 * One injected fault implicated in the frozen state: the event still
 * holds unfinished traffic or an unfinished cell hostage at the stall
 * cycle. Attribution is computed from kernel-independent machine state
 * (crossing phases, cell program counters), so both kernels report the
 * same set.
 */
struct FaultAttribution
{
    /** Index into the run's FaultPlan::events(). */
    int eventIndex = -1;
    /** FaultEvent::describe() text (self-contained for rendering). */
    std::string event;
    /** Why the event is implicated, e.g. "2 unfinished crossings". */
    std::string why;

    bool operator==(const FaultAttribution& o) const
    {
        return eventIndex == o.eventIndex && event == o.event &&
               why == o.why;
    }
};

/** Deadlock snapshot: the implicated state only, in id order. */
struct DeadlockReport
{
    bool deadlocked = false;
    Cycle atCycle = 0;
    /** Unfinished cells, ascending. */
    std::vector<CellBlockInfo> cells;
    /**
     * Links with an assigned queue or a waiting request, ascending.
     * A link whose queues are all free and that nothing waits for
     * holds no part of the deadlock and is not listed.
     */
    std::vector<LinkSnapshot> links;
    /** The listed links' queues and waiting messages, link after
     *  link: one allocation each, however many links are listed. */
    std::vector<QueueSnapshot> queues;
    std::vector<MessageId> waiting;
    /** Non-empty exactly when the run ended RunStatus::kFaulted. */
    std::vector<FaultAttribution> faults;

    Span<const QueueSnapshot> queuesOf(const LinkSnapshot& l) const
    {
        return {queues.data() + l.firstQueue, l.numQueues};
    }
    Span<const MessageId> waitingOf(const LinkSnapshot& l) const
    {
        return {waiting.data() + l.firstWaiting, l.numWaiting};
    }

    /** Multi-line rendering of the blocked machine state; the ids
     *  index @p program, which must be the program that ran. */
    std::string render(const Program& program) const;

    bool operator==(const DeadlockReport& o) const
    {
        return deadlocked == o.deadlocked && atCycle == o.atCycle &&
               cells == o.cells && links == o.links &&
               queues == o.queues && waiting == o.waiting &&
               faults == o.faults;
    }
};

} // namespace syscomm::sim
