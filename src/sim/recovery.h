#pragma once

/**
 * @file
 * Checkpoint-based fault recovery: graceful degradation for runs the
 * fault injector (sim/fault.h) kills mid-flight.
 *
 * The paper's machine never breaks; real arrays do, and a long run on
 * one should survive losing a link. RecoveryDriver runs a program
 * under an injected FaultPlan, checkpointing periodically (the same
 * SimSession::saveCheckpoint machinery ShapeSweep's crash-resume
 * journal uses). When the run freezes with faults implicated
 * (RunStatus::kFaulted), the driver:
 *
 *  1. adopts the progress of the last checkpoint — the per-message
 *     delivered-word counts from its header (peekCheckpointInfo);
 *     everything after the checkpoint is considered lost, as it would
 *     be in a crash;
 *  2. rebuilds a degraded Topology excluding every killed link and
 *     cell (Topology::custom tolerates the disconnected remnants);
 *  3. derives the *residual program*: for each unfinished message,
 *     the words not yet delivered at the checkpoint, between the
 *     original endpoints — refusing honestly when an endpoint is dead
 *     or no route survives;
 *  4. runs the residual through repairProgram (core/repair.h), so the
 *     resumed schedule is deadlock-free by construction on the
 *     degraded machine;
 *  5. recompiles (CompiledProgram) for the degraded topology, carries
 *     surviving queue-capacity degradations over as a cycle-0
 *     recovery FaultPlan, and reruns with the original policy/seed.
 *
 * Delivery semantics are at-least-once from the checkpoint: words
 * delivered between the checkpoint and the fault are delivered again
 * by the recovery run. What is preserved is the transfer structure —
 * every message's remaining words arrive, in order, over surviving
 * routes — not payload values (recovery applies to transfer-only
 * programs; compute ops cannot be replayed from a progress header and
 * are refused in step 3).
 *
 * Everything is deterministic: same program, spec, plan, policy and
 * seed give the same primary run, the same checkpoints, the same
 * degraded machine and the same recovery result, so survivability
 * experiments (bench/bench_fault_sweep.cpp) are exactly reproducible.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "core/machine_spec.h"
#include "core/program.h"
#include "sim/fault.h"
#include "sim/session.h"

namespace syscomm::sim {

/** Knobs for one run-with-recovery. */
struct RecoveryOptions
{
    /** Policy/seed/budget used for both the primary and the recovery
     *  run. The observer is dropped (neither run reports events) and
     *  labels must be empty (the degraded machine computes its own
     *  section 6 labeling — the original labels do not fit the
     *  residual program). pauseAt is driven by the checkpointer. */
    RunRequest request;
    /** The injected schedule the primary run suffers. May be null or
     *  empty (then recovery never triggers). Must outlive the call. */
    const FaultPlan* faults = nullptr;
    /** Checkpoint the primary run every this many cycles; 0 disables
     *  checkpointing (recovery then restarts from scratch). */
    Cycle checkpointEvery = 64;
    /** Kernel / memory model for both runs. */
    SessionOptions session;
};

/** What one RecoveryDriver::run produced. */
struct RecoveryReport
{
    /** The primary (fault-injected) run's terminal result. */
    RunResult primary;
    /** Primary ended RunStatus::kFaulted (else nothing below ran). */
    bool faulted = false;
    /** A residual workload + surviving route existed for every
     *  unfinished message. False with `error` explaining the loss
     *  (dead endpoint, partitioned route, compute ops). */
    bool recoverable = false;
    /** The recovery run completed every residual message. */
    bool recovered = false;
    /** Why recovery was refused or failed ("" when recovered). */
    std::string error;

    /** Pause cycle of the adopted checkpoint, -1 = none existed
     *  (recovery restarted the whole workload). */
    Cycle checkpointCycle = -1;
    /** Unfinished messages / words the recovery run re-delivers. */
    int residualMessages = 0;
    int residualWords = 0;
    /** Hardware lost to the plan's kill events. */
    int deadLinks = 0;
    int deadCells = 0;
    /** Queue-capacity clamps carried into the recovery machine. */
    int carriedDegrades = 0;
    /** Ops repairProgram moved to make the residual deadlock-free. */
    int repairMovedOps = 0;

    /** The recovery run's terminal result (valid when recoverable). */
    RunResult recovery;
    /** SimSession::machineDigest() of the recovery machine at its
     *  terminal state: the one-integer determinism handle sweeps
     *  compare across hosts and kernels. */
    std::uint64_t recoveryMachineDigest = 0;

    /** The degraded machine and residual workload the recovery ran
     *  on — owned here so the report is self-contained (the recovery
     *  FaultPlan carries the surviving degrades). */
    Topology degradedTopo;
    Program residualProgram{1};
    FaultPlan recoveryPlan;

    /** Did the pipeline end with every remaining word delivered? */
    bool completedWorkload() const { return !faulted || recovered; }
};

/**
 * The pipeline driver. Construct per (program, spec); run() executes
 * one inject-checkpoint-recover cycle and is safe to call repeatedly
 * (each call builds fresh sessions). The program and spec must
 * outlive the driver.
 */
class RecoveryDriver
{
  public:
    RecoveryDriver(const Program& program, const MachineSpec& spec);

    RecoveryReport run(const RecoveryOptions& options);

  private:
    const Program& program_;
    const MachineSpec& spec_;
};

} // namespace syscomm::sim
