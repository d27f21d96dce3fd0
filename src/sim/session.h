#pragma once

/**
 * @file
 * The reusable simulation entry point: compile once, run many.
 *
 * A SimSession binds a Program to a MachineSpec and performs all the
 * per-program work up front — validation, competing-message analysis,
 * route registration, label computation, and the allocation of every
 * link, queue, cell and kernel-side buffer. The machine hot state
 * (links, queues and their ring storage, crossings, per-cell
 * runtimes) lives in one session-owned SimArena (sim/arena.h) of
 * contiguous pools rather than per-object heap allocations. Each
 * run(RunRequest) then resets that state in place instead of
 * reallocating it, so sweeps over seeds, policies and cycle budgets
 * pay the compile cost once.
 *
 * A run returns only its status, cycle count, SimStats counters and
 * (on deadlock) the frozen state; the session itself holds nothing
 * but machine state and counters. Everything that happened along the
 * way — queue assignments and releases, words sent and delivered —
 * reaches the caller through one channel, a RunObserver attached to
 * the request. RunLog (sim/trace.h) is the library observer that
 * records all of it, and the section 7 audit (sim/audit.h) runs over
 * its assignment events.
 *
 * A one-off run is SimSession(program, spec, options).run(request);
 * sweeps over requests and machine shapes go through ShapeSweep
 * (sim/shape_sweep.h).
 */

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/analyze.h"
#include "core/competing.h"
#include "core/labeling.h"
#include "core/machine_spec.h"
#include "core/program.h"
#include "sim/assignment.h"
#include "sim/audit.h"
#include "sim/deadlock.h"
#include "sim/fault.h"
#include "sim/serial.h"
#include "sim/stats.h"

namespace syscomm::sim {

/**
 * The program-side compile analyses a SimSession runs over: program
 * validation, the competing-message analysis (routes), the default
 * labeling (computed on first use), and the route-derived
 * registration tables (crossings per link, first/last-hop endpoints,
 * routed links, program-bearing cells). None of it depends on the
 * machine's queue resources — only on the Program and the Topology —
 * so a sweep over machine *shapes* (queue count / capacity /
 * buffering ladders, the paper's central experiments) can compile
 * once and hand the same CompiledProgram to every per-shape session
 * instead of re-running the analyses per shape. ShapeSweep
 * (sim/shape_sweep.h) is built on exactly that.
 *
 * Thread-safety: a CompiledProgram is immutable after construction
 * except for the lazily computed default labeling, guarded by a
 * once-flag, and the memoized static analysis, guarded by a mutex —
 * concurrent sessions on different threads may share one instance
 * freely (ShapeSweep's workers and the daemon's clients do).
 *
 * The Program must outlive the CompiledProgram; the Topology travels
 * as a SharedTopology, so compiling against a MachineSpec's topo (or
 * handing one compiled program to a shape ladder) shares one graph
 * instead of copying it per holder.
 */
class CompiledProgram
{
  public:
    /** Validate the program, route its messages and build the tables. */
    CompiledProgram(const Program& program, SharedTopology topo);

    /** Convenience: compile into a shareable handle. */
    static std::shared_ptr<const CompiledProgram>
    compile(const Program& program, SharedTopology topo);

    const Program& program() const { return program_; }
    const Topology& topo() const { return topo_; }
    /** The shared topology node (alias it, don't copy it). */
    const SharedTopology& sharedTopo() const { return topo_; }

    /**
     * Did program validation pass, and does every message route on
     * the topology? A session over an invalid compile answers every
     * run with kConfigError.
     */
    bool valid() const { return firstError_.empty(); }
    /** The first validation or routing error ("" when valid). */
    const std::string& error() const { return firstError_; }

    const CompetingAnalysis& competing() const { return competing_; }

    /**
     * The labeling sessions run with unless a RunRequest overrides
     * it: the normalized default labeling (core/labeling.h: section 6
     * with trivial fallback), empty for an invalid compile. It is
     * computed on first use, at most once, and is the very one
     * analysis() checks; safe to call from concurrent sessions.
     */
    const std::vector<std::int64_t>& labels() const;

    /** Route crossings per link (sizes each arena's crossing spans). */
    const std::vector<int>& crossingsPerLink() const
    {
        return crossingsPerLink_;
    }
    /** Links at least one route crosses, descending (forward order). */
    const std::vector<LinkIndex>& routedLinksDesc() const
    {
        return routedLinksDesc_;
    }
    /** Cells with a non-empty program, ascending. */
    const std::vector<CellId>& programCells() const
    {
        return programCells_;
    }
    /** Per message: link of the route's first / last hop. */
    const std::vector<LinkIndex>& firstHopLink() const
    {
        return firstHopLink_;
    }
    const std::vector<LinkIndex>& lastHopLink() const
    {
        return lastHopLink_;
    }
    /**
     * Slot of message @p m's crossing on its route's hop @p hop: its
     * registration index on that hop's link. Every session registers
     * crossings in (message, hop) order, so all sessions of this
     * program share the table.
     */
    int hopSlot(MessageId m, int hop) const
    {
        return hopSlots_[static_cast<std::size_t>(hopSlotBegin_[m] + hop)];
    }
    /** hopSlot() of @p m's last hop. */
    int lastHopSlot(MessageId m) const
    {
        return hopSlots_[static_cast<std::size_t>(hopSlotBegin_[m + 1] - 1)];
    }

    /**
     * The simlint static analysis (core/analyze.h) of this program at
     * @p spec's queue shape, equal to analyzeProgram() on the same
     * inputs. The program facts (ProgramFacts) are derived on first
     * use from this compile's validation, routes and default labeling
     * — never recomputed — and each distinct shape is finished from
     * them once and memoized: the serve CompileCache holds
     * CompiledPrograms keyed by program/topology digest, so N
     * submissions of one program pay for one set of facts plus one
     * finish per shape. Thread-safe; concurrent callers share one
     * derivation of the facts and one finish per shape. Only the
     * queue-shape fields of @p spec are consulted (the topology is
     * the compiled one).
     */
    std::shared_ptr<const AnalysisReport>
    analysis(const MachineSpec& spec) const;

    /**
     * Process-wide count of CompiledProgram constructions, i.e. of
     * full program-side analysis passes. Tests assert compile sharing
     * with it: a ShapeSweep over N shapes must advance it by exactly
     * one.
     */
    static std::int64_t buildCount();

  private:
    const Program& program_;
    SharedTopology topo_;
    std::vector<std::string> validation_;
    std::string firstError_;
    CompetingAnalysis competing_;
    std::vector<int> crossingsPerLink_;
    std::vector<LinkIndex> routedLinksDesc_;
    std::vector<CellId> programCells_;
    std::vector<LinkIndex> firstHopLink_;
    std::vector<LinkIndex> lastHopLink_;
    /** hopSlot() table: message m's hops at [begin[m], begin[m+1]). */
    std::vector<int> hopSlotBegin_;
    std::vector<int> hopSlots_;

    /** The default labeling, computed once under labelsOnce_. */
    const DefaultLabeling& defaultLabeling() const;

    mutable std::once_flag labelsOnce_;
    mutable DefaultLabeling defaultLabeling_;
    /** labels(): defaultLabeling_ normalized. */
    mutable std::vector<std::int64_t> labels_;

    /** Memoized static analysis; see analysis(). */
    mutable std::mutex analysisMutex_;
    mutable std::unique_ptr<const ProgramFacts> facts_;
    mutable std::vector<std::pair<AnalyzeOptions,
                                  std::shared_ptr<const AnalysisReport>>>
        analysisCache_;
};

/** Terminal state of a run. */
enum class RunStatus : std::uint8_t
{
    kCompleted = 0, ///< Every cell finished its program.
    kDeadlocked,    ///< Zero-progress cycle with unfinished work.
    kMaxCycles,     ///< Cycle budget exhausted (treat as a bug).
    kConfigError,   ///< Invalid program or impossible policy setup.
    /**
     * RunRequest::pauseAt reached: the run stopped mid-flight with
     * full machine state retained. Continue it with
     * SimSession::resume(), or move it to another session (possibly
     * running the other kernel) with saveCheckpoint() and
     * restoreCheckpoint() — the mechanism behind crash resume and the
     * sampled-oracle equivalence harness.
     */
    kPaused,
    /**
     * Zero-progress cycle with unfinished work where injected faults
     * (RunRequest::faults) are implicated in the frozen state: the
     * run did not deadlock on its own, the hardware died under it.
     * RunResult::deadlock carries the snapshot plus fault attribution
     * (DeadlockReport::faults). The recovery pipeline (sim/recovery.h)
     * turns these into degraded-topology reruns.
     */
    kFaulted,
};

inline constexpr int kNumRunStatuses = 6;
static_assert(static_cast<int>(RunStatus::kFaulted) + 1 ==
                  kNumRunStatuses,
              "update kNumRunStatuses when adding a RunStatus — it "
              "sizes arrays indexed by the enum");

const char* runStatusName(RunStatus status);

/**
 * Which per-cycle engine drives the run.
 *
 * Both kernels implement the identical machine semantics and produce
 * bit-identical RunResults (status, cycle counts, stats, event logs);
 * tests/test_kernel_equivalence.cpp enforces this over randomized
 * programs.
 */
enum class KernelKind : std::uint8_t
{
    /**
     * Event-driven active-set kernel: per cycle, only runnable cells,
     * links with words in flight, and links with pending queue
     * requests are touched, so a cycle costs O(active work) instead
     * of O(cells + links). Cells blocked on a read wake when their
     * input queue changes; cells blocked on a write wake when a queue
     * is assigned or frees space. Stretches where the whole machine
     * only waits for queue timing (e.g. extension penalties) are
     * fast-forwarded in one step.
     */
    kEventDriven = 0,
    /**
     * Reference kernel: the original dense loop that scans every
     * link, queue, and cell each cycle. Kept as the oracle for the
     * equivalence suite and for A/B benchmarking.
     */
    kReference,
};

const char* kernelKindName(KernelKind kind);

/**
 * Streaming sink for run events: the one way a run reports what
 * happened beyond its counters. RunLog (sim/trace.h) records every
 * hook; a consumer that wants less overrides only the hooks it needs
 * (the defaults do nothing). Hooks fire in execution order, so a
 * paused and resumed run — in one session, or restored from a
 * checkpoint into another with the same observer state — calls them
 * exactly as an unpaused run would.
 *
 * The observer is invoked from whichever thread executes the run (a
 * ShapeSweep worker, for sweeps), never concurrently for one run.
 * One observer instance attached to several requests of a threaded
 * sweep IS called concurrently — from a different worker per request
 * — and must synchronize its own state.
 */
class RunObserver
{
  public:
    virtual ~RunObserver() = default;

    /** A queue was assigned to a message. */
    virtual void onAssign(const AssignmentEvent& event) { (void)event; }
    /** A queue was released (queueId = the queue freed). */
    virtual void onRelease(const AssignmentEvent& event) { (void)event; }
    /** A sender pushed word @p seq of @p msg into the network. */
    virtual void
    onSend(MessageId msg, int seq, double value, Cycle now)
    {
        (void)msg;
        (void)seq;
        (void)value;
        (void)now;
    }
    /** A receiver consumed word @p seq of @p msg. */
    virtual void
    onDeliver(MessageId msg, int seq, double value, Cycle now)
    {
        (void)msg;
        (void)seq;
        (void)value;
        (void)now;
    }
};

/**
 * Session-scoped configuration: everything that shapes the
 * compiled/allocated machine state shared by every run. Labels are
 * not among it: a session runs with its compiled program's default
 * labeling, and RunRequest::labels overrides it for one run.
 */
struct SessionOptions
{
    KernelKind kernel = KernelKind::kEventDriven;
    /** Memory-to-memory communication model (Fig. 1 baseline). */
    bool memoryToMemory = false;
    /** Cycles per local memory access in memory-to-memory mode. */
    int memAccessCost = 1;
};

/** Per-run knobs: everything that may vary between runs of a session. */
struct RunRequest
{
    PolicyKind policy = PolicyKind::kCompatible;
    std::uint64_t seed = 1;
    Cycle maxCycles = 1'000'000;
    /**
     * The one label override: labels per MessageId for this run;
     * empty = the session's (CompiledProgram::labels()).
     */
    std::vector<std::int64_t> labels;
    /**
     * Optional streaming sink (a RunLog records everything); must
     * outlive the run and any resume of it.
     */
    RunObserver* observer = nullptr;
    /**
     * 0 = run to a terminal status. Otherwise pause at the first
     * executed cycle >= pauseAt (termination wins a tie): run()
     * returns a snapshot result with status kPaused — counters and
     * queue statistics settled through the pause cycle exactly as the
     * reference kernel would report them — and the session keeps the
     * mid-run machine state for resume() or saveCheckpoint(). Pausing
     * never perturbs the run: resuming to the end produces the
     * bit-identical result an unpaused run would have. Sweeps should
     * leave this 0 — a paused worker result is just a truncated run
     * (the pool reuses the session safely; the paused state dies at
     * its next run()).
     */
    Cycle pauseAt = 0;
    /**
     * Deterministic fault schedule, or nullptr for healthy hardware.
     * Must outlive the run (and any resume/restoreCheckpoint chain
     * continuing it — a restore replays the plan's already-due events
     * to rebuild the dead-link/dead-cell state the checkpoint's
     * machine pools do not carry). Both kernels
     * apply the plan identically, so faulted runs stay bit-identical
     * across kernels and pause boundaries. An invalid plan (targets
     * outside the machine) is a kConfigError.
     */
    const FaultPlan* faults = nullptr;
};

/**
 * Does this request need a labeling (the compatible policies consume
 * labels)? SimSession's label resolution consults it: a run that
 * needs none and overrides none never invokes the labeler and reports
 * empty RunResult::labelsUsed.
 */
inline bool
runNeedsLabels(const RunRequest& request)
{
    return request.policy == PolicyKind::kCompatible ||
           request.policy == PolicyKind::kCompatibleEager;
}

/**
 * May a run of @p a stand in for a run of @p b on the same machine?
 * True when the two agree in every field except a seed their policy
 * never reads (policyReadsSeed) and neither streams to an observer —
 * an observer must see its own callbacks, so an observed run never
 * stands in for another. ShapeSweep simulates one cell per class of
 * such requests and copies its row into the rest; a field added to
 * RunRequest must be compared here.
 */
inline bool
runsEquivalent(const RunRequest& a, const RunRequest& b)
{
    return a.observer == nullptr && b.observer == nullptr &&
           a.policy == b.policy &&
           (a.seed == b.seed || !policyReadsSeed(a.policy)) &&
           a.maxCycles == b.maxCycles && a.labels == b.labels &&
           a.pauseAt == b.pauseAt && a.faults == b.faults;
}

/** Outcome of one run. */
struct RunResult
{
    RunStatus status = RunStatus::kConfigError;
    Cycle cycles = 0;
    std::string error; ///< set for kConfigError
    SimStats stats;
    DeadlockReport deadlock;
    /**
     * Labels the run used (as given or as computed). Empty when the
     * run needed none (label-free policy, no override) — identical
     * requests always report identical labels, regardless of what
     * earlier runs of the session resolved.
     */
    std::vector<std::int64_t> labelsUsed;

    bool completed() const { return status == RunStatus::kCompleted; }
    const char* statusStr() const { return runStatusName(status); }
};

/**
 * Serialize a RunResult — status, cycles, error, SimStats, labels
 * used, and the deadlock report. It round-trips losslessly, which is
 * what ShapeSweep's crash-resume journal relies on to replay finished
 * rows bit-identically.
 */
void saveRunResult(ByteWriter& out, const RunResult& result);

/** Restore saveRunResult() bytes; false on a torn stream. */
bool loadRunResult(ByteReader& in, RunResult& result);

/**
 * The run-progress header of a saveCheckpoint() stream, readable
 * without a session: what a recovery pipeline needs to know about an
 * interrupted run — how far it got (cycles, per-message stream
 * positions) and what it was running (machine digest, fault-plan
 * digest, kernel). The machine pools themselves are not parsed.
 */
struct CheckpointInfo
{
    std::uint64_t machineDigest = 0;
    /** FaultPlan::digest() of the run's plan (0 = no faults). */
    std::uint64_t faultPlanDigest = 0;
    /** Checkpoint written by the event-driven kernel? */
    bool eventKernel = false;
    /** First cycle a resumed run executes. */
    Cycle resumeFrom = 0;
    /** Pause cycle the checkpoint captured. */
    Cycle cycles = 0;
    /** Per message: words the sender has pushed into the network. */
    std::vector<int> writeSeq;
    /** Per message: words the receiver has consumed. writeSeq[m] -
     *  readSeq[m] words were in flight and are LOST if the machine
     *  is rebuilt from this checkpoint's progress alone — recovery
     *  re-sends from readSeq (at-least-once delivery). */
    std::vector<int> readSeq;
};

/** Parse the header of saveCheckpoint() bytes; false if torn or not
 *  a checkpoint stream of the current version. */
bool peekCheckpointInfo(const std::uint8_t* data, std::size_t size,
                        CheckpointInfo& info);

/**
 * A compiled, reusable simulator instance. The program and spec must
 * outlive the session. Not thread-safe: one session serves one thread
 * (ShapeSweep checks one out per in-flight cell).
 */
class SimSession
{
  public:
    SimSession(const Program& program, const MachineSpec& spec,
               SessionOptions options = {});

    /**
     * Build over shared compile analyses instead of re-running them:
     * the shape-sweep constructor. @p compiled must be non-null and
     * its topology must structurally match @p spec.topo (same cells,
     * same links) — a mismatch makes the session invalid, it never
     * runs on foreign routes.
     */
    SimSession(std::shared_ptr<const CompiledProgram> compiled,
               const MachineSpec& spec, SessionOptions options = {});

    ~SimSession();

    SimSession(const SimSession&) = delete;
    SimSession& operator=(const SimSession&) = delete;
    SimSession(SimSession&&) noexcept;
    SimSession& operator=(SimSession&&) noexcept;

    /**
     * Run to completion/deadlock/budget (or RunRequest::pauseAt),
     * resetting machine state in place first. Call as many times as
     * you like; calling it while paused abandons the paused run.
     */
    RunResult run(const RunRequest& request = {});

    /**
     * Continue a paused run under its original request, to the next
     * pause point (@p pauseAt, 0 = to a terminal status). Paused
     * snapshots and the final result are bit-identical to what a
     * single unpaused run would produce. Returns kConfigError if the
     * session is not paused.
     */
    RunResult resume(Cycle pauseAt = 0);

    /** Is a paused run waiting for resume()? */
    bool paused() const;

    /**
     * FNV digest of the kernel-independent machine state (crossing
     * phases, queue contents and counters, cell runtimes, stream
     * positions). Two sessions that executed the same machine history
     * digest identically regardless of kernel — compare at matching
     * pause cycles for an O(machine) bit-identity check that needs no
     * observer.
     */
    std::uint64_t machineDigest() const;

    /**
     * Serialize the paused run — machine pools, run progress and
     * statistics, policy decision state — into @p out for crash
     * resume across process invocations (ShapeSweep's journal is the
     * production consumer) or for a hand-off to another session,
     * whose kernel may differ. Returns false, appending nothing,
     * unless the session is paused. Restore with restoreCheckpoint()
     * on a session built over the same program, topology, machine
     * spec and memory model — resuming then yields results
     * bit-identical to the uninterrupted run. An observer's state is
     * the caller's: to continue its record, restore with an observer
     * holding what the original had seen through the pause.
     */
    bool saveCheckpoint(std::vector<std::uint8_t>& out) const;

    /**
     * Rebuild a paused run from saveCheckpoint() bytes, leaving the
     * session paused at the checkpoint cycle ready for resume().
     * @p request must be the interrupted run's original RunRequest
     * (policy, seed, budget, labels, fault plan) — the checkpoint
     * stores machine state, not run configuration; its observer
     * receives the resumed run's events. Returns false, abandoning
     * any restored fragments, when the stream is torn, was produced
     * by a differently-shaped machine or under another memory model
     * (SessionOptions::memoryToMemory / memAccessCost), or the
     * restored state fails its recorded machine digest.
     */
    bool restoreCheckpoint(const RunRequest& request,
                           const std::uint8_t* data, std::size_t size);
    bool restoreCheckpoint(const RunRequest& request,
                           const std::vector<std::uint8_t>& bytes);

    /** Did construction-time validation pass? */
    bool valid() const;
    /** First validation error ("" when valid). */
    const std::string& error() const;
    /** The compile analyses this session runs over (never null). */
    const std::shared_ptr<const CompiledProgram>& compiled() const;
    /**
     * The session's default labels: its compiled program's labels()
     * (computed on first use), empty when the session is invalid.
     */
    const std::vector<std::int64_t>& labels();
    /** run() calls so far (config-error runs included). */
    int runCount() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace syscomm::sim
