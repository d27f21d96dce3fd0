#pragma once

/**
 * @file
 * Deterministic fault injection: a FaultPlan is a seeded, cycle-stamped
 * schedule of hardware failures applied identically by both kernels.
 *
 * The paper assumes perfectly healthy hardware and puts the whole
 * deadlock-freedom burden on the program (section 3.3); production
 * arrays lose links, lose cells, and see buffer capacity degrade
 * mid-run. A FaultPlan makes those scenarios first-class *and*
 * reproducible: the plan is plain data (sorted by cycle, digestable),
 * both kernels apply due events at the top of each executed cycle, and
 * skipped work (a dead link never ticks its assignment policy) is
 * skipped identically — so the bit-identity harness extends unchanged
 * to faulted runs, and a plan digest can gate crash-resume journals.
 *
 * Event kinds:
 *  - kKillLink:     the link is permanently unusable from `cycle` on.
 *                   No queue requests, assignments, pushes, pops or
 *                   forwarding ever happen on it again.
 *  - kKillCell:     the cell freezes (never executes another op) and
 *                   every link adjacent to it dies, from `cycle` on.
 *  - kDegradeQueue: queue `queue` on `link` has its effective capacity
 *                   clamped to `arg` words (>= 1). Words already over
 *                   the clamp stay buffered and drain normally; new
 *                   pushes obey the clamp.
 *  - kStallLink:    the link is unusable for `arg` cycles starting at
 *                   `cycle`, then revives. A transient brown-out: the
 *                   run is never declared dead while a stall is still
 *                   pending.
 *
 * A run whose frozen state implicates injected events terminates with
 * RunStatus::kFaulted and a DeadlockReport carrying fault attribution;
 * see sim/recovery.h for the checkpoint-based pipeline that resumes
 * such runs on a degraded topology.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/machine_spec.h"
#include "core/topology.h"
#include "core/types.h"

namespace syscomm::sim {

/** What a FaultEvent does to the machine. */
enum class FaultKind : std::uint8_t {
    kKillLink = 0,
    kKillCell,
    kDegradeQueue,
    kStallLink,
};

/** Short lowercase name ("kill-link", "stall-link", ...). */
const char* faultKindName(FaultKind k);

/** One cycle-stamped failure. Fields beyond the kind's are ignored. */
struct FaultEvent
{
    /** Applied at the top of this cycle, before any phase runs.
     *  Cycle 0 events are applied before policy initialization. */
    Cycle cycle = 0;
    FaultKind kind = FaultKind::kKillLink;
    /** Target link (kKillLink / kDegradeQueue / kStallLink). */
    LinkIndex link = kInvalidLink;
    /** Target cell (kKillCell). */
    CellId cell = kInvalidCell;
    /** Target queue id on `link` (kDegradeQueue). */
    int queue = -1;
    /** New capacity in words (kDegradeQueue, >= 1) or stall length in
     *  cycles (kStallLink, >= 1). */
    int arg = 0;

    /** One-line human description, e.g. "cycle 12: kill-link L3". */
    std::string describe() const;
};

/**
 * A deterministic fault schedule: events sorted by cycle (stable, so
 * same-cycle events apply in insertion order). Plans are plain data —
 * share one plan across runs, kernels and sweep rows freely; the run
 * only reads it. Like RunRequest::observer, a plan passed to a run
 * must outlive the run (and any resume/restoreCheckpoint chains
 * derived from it).
 */
class FaultPlan
{
  public:
    FaultPlan() = default;
    explicit FaultPlan(std::vector<FaultEvent> events);

    /** Insert keeping the by-cycle order (stable). */
    void add(const FaultEvent& e);

    const std::vector<FaultEvent>& events() const { return events_; }
    bool empty() const { return events_.empty(); }
    std::size_t size() const { return events_.size(); }

    /** "" when every event targets real hardware and has a sane arg;
     *  otherwise what is wrong. A run with an invalid plan is a
     *  config error. */
    std::string validate(const Topology& topo,
                         const MachineSpec& spec) const;

    /** Order-sensitive FNV digest of the full schedule. Folded into
     *  sweep journal config digests so crash-resume of a faulted
     *  sweep stays gated on the exact plan. */
    std::uint64_t digest() const;

  private:
    std::vector<FaultEvent> events_;
};

/** Knobs for randomFaultPlan. */
struct FaultPlanOptions
{
    std::uint64_t seed = 1;
    /** Total events to draw. */
    int numEvents = 4;
    /** Event cycles are drawn uniformly from [1, maxCycle]. */
    Cycle maxCycle = 256;
    /** Kind mix: disabled kinds are never drawn. At least one must
     *  stay enabled. */
    bool killLinks = true;
    bool killCells = false;
    bool degradeQueues = true;
    bool stallLinks = true;
    /** Stall lengths are drawn from [1, maxStall]. */
    int maxStall = 32;
};

/**
 * Seeded plan generator: same (topo, spec, options) => same plan,
 * everywhere. Targets are drawn uniformly over real links/cells/queues
 * and degrade capacities over [1, queueCapacity + extensionCapacity],
 * so the result always validates.
 */
FaultPlan randomFaultPlan(const Topology& topo, const MachineSpec& spec,
                          const FaultPlanOptions& options);

} // namespace syscomm::sim
