#pragma once

/**
 * @file
 * ShapeSweep: a shared-compile sweep driver over machine *shapes*.
 *
 * The paper's central experiments are ladders of machine shapes —
 * queue count, queue capacity and buffering variants over one program
 * — showing where systolic communication deadlocks or degrades. A
 * SimSession binds one MachineSpec, so those sweeps used to build a
 * full session per shape and re-pay the program-side compile work
 * (validation, the competing-message analysis, labeling) for every
 * rung even though only the hardware differs. ShapeSweep compiles the
 * program exactly once into a shared CompiledProgram and fans the
 * (shape × request) grid across a WorkerPool (sim/batch.h) at *cell*
 * granularity: each grid cell is one work item, run on the session
 * its worker slot owns (built over the shared CompiledProgram, and
 * rebuilt only when the slot's next cell is on another rung). Several
 * workers chew on one giant rung while the tiny rungs drain, and a
 * sweep holds at most one session per worker however long its ladder.
 * Results land in grid order, runs are bit-identical at any worker
 * count, and the scheduler is TSan-clean (tests/test_shape_sweep.cpp
 * enforces all three).
 *
 * Each distinct cell is simulated once. Two cells are equivalent when
 * their shapes agree in every field the machine reads (the name is a
 * label, not hardware) and their requests satisfy runsEquivalent: the
 * same request up to a seed the policy never reads, no observer. A
 * class of equivalent cells is one work item; its worker runs one
 * member and copies the finished row into the others (counted in
 * ShapeSweepResult::rowsShared). A seed axis under a seed-blind
 * policy, or a repeated rung, therefore costs no simulation, and
 * every copy still equals a direct SimSession::run of its own cell.
 *
 * Multi-process scale: ShapeSweepOptions::shardBegin/shardEnd
 * restrict one process to a half-open cell range of the grid. A
 * sharded journal carries a kind-tagged shard-range record (CRC
 * framed, forward-skippable by old readers); cells are only shared
 * within a shard. mergeSweepJournals /
 * `syscomm-cli sweep-merge` fold N shard journals into one summary
 * with per-rung digest cross-checks — the journal is append-only,
 * digested and resume-safe, so a huge sweep becomes an embarrassingly
 * parallel, crash-tolerant distributed job.
 *
 * Crash resume: with ShapeSweepOptions::journalPath set, every
 * finished row is appended to a journal file (status, cycles, stats,
 * deadlock report, machine digest), and with checkpointEvery > 0
 * long in-flight runs are periodically paused (RunRequest::pauseAt)
 * and their machine pools serialized into the same journal. A killed
 * sweep rerun with the same program, shapes, requests and journal
 * path resumes instead of restarting: journaled rows are replayed
 * verbatim, checkpointed rows continue from their snapshot, missing
 * rows run from scratch or are copied from a journaled equivalent
 * (every cell, copy or not, gets its own row record, so the journal
 * format is unchanged) — and because runs are deterministic and
 * pause/resume is bit-exact, the resumed sweep's results are
 * bit-identical to an uninterrupted one (tests/test_shape_sweep.cpp
 * enforces this).
 *
 * Every row records SimSession::machineDigest() at its terminal
 * state, so two sweeps — on different hosts, kernels or worker
 * counts — can be compared row-for-row with one integer each: the
 * cheap cross-host determinism check CI runs.
 */

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/batch.h"
#include "sim/session.h"

namespace syscomm::serve {
class Io; // the injectable IO layer (serve/io.h)
}

namespace syscomm::sim {

/** One machine shape: a MachineSpec minus the (shared) topology. */
struct ShapeSpec
{
    /** Row label for reports, e.g. "q=4" or "cap=8". */
    std::string name;
    int queuesPerLink = 2;
    int queueCapacity = 1;
    int extensionCapacity = 0;
    int extensionPenalty = 4;
};

/** Sweep-wide knobs. */
struct ShapeSweepOptions
{
    /**
     * Session config shared by every session the sweep builds
     * (kernel, memory model). Every session runs with the shared
     * CompiledProgram's labels unless a request overrides them
     * (RunRequest::labels).
     */
    SessionOptions session;
    /** Worker threads; <= 0 picks hardware_concurrency() (which is 1
     *  when the runtime reports 0 cores). Work is stolen at (shape ×
     *  request) cell granularity, so extra workers help even on a
     *  one-shape sweep with many requests. numWorkers == 1 runs
     *  inline on the calling thread without spawning anything. */
    int numWorkers = 0;
    /**
     * Multi-process sharding: when shardEnd > shardBegin, this run
     * only executes grid cells in [shardBegin, shardEnd) of the
     * shape-major grid (cell = shape * numRequests + request; bounds
     * are clamped to the grid). The journal then carries a
     * shard-range record naming the grid dimensions and this range,
     * a sharded journal never resumes an unsharded sweep (or a
     * different shard) and vice versa, and `complete` refers to the
     * shard's cells only. Merge the per-shard journals with
     * mergeSweepJournals / `syscomm-cli sweep-merge`.
     */
    std::size_t shardBegin = 0;
    std::size_t shardEnd = 0;
    /**
     * Crash-resume journal file; "" disables journaling. When the
     * file already holds a matching sweep (same program shape,
     * shapes, requests), run() resumes it; otherwise the file is
     * restarted. Rows whose request carries a RunObserver are not
     * journaled — they are recomputed on resume, so the observer sees
     * every callback; that is equally bit-identical, just not
     * incremental.
     */
    std::string journalPath;
    /**
     * With a journal: pause in-flight runs every this many cycles
     * and checkpoint their machine state, so a kill loses at most
     * checkpointEvery cycles of the longest run. 0 = journal only
     * whole rows.
     */
    Cycle checkpointEvery = 0;
    /**
     * Stop cleanly after this many journal records have been written
     * by this run() call (0 = unlimited): the crash-injection knob
     * the kill-and-resume tests use, also handy for bounding
     * incremental nightly work. The returned result is then partial
     * (complete == false); rerunning resumes from the journal.
     */
    std::size_t stopAfterJournalRecords = 0;
    /**
     * External stop request — the drain knob a long-running service
     * pulls on SIGTERM. When non-null and set, workers claim no
     * further rows, and a journaled in-flight run stops at its next
     * pause point *after* its checkpoint record is appended, so the
     * sweep parks in a resumable state within ~checkpointEvery cycles
     * of the request. The returned result is partial (complete ==
     * false); rerunning with the same journal resumes bit-identically.
     * Non-journaled rows (observed requests) finish their current run
     * before honoring the flag — they have no checkpoint to park in.
     * The flag must outlive run().
     */
    const std::atomic<bool>* stopFlag = nullptr;
    /**
     * Opt-in version tag folded into the journal's config digest.
     *
     * LOUD CAVEAT — the digest's one blind spot is *code*: a
     * program's compute callbacks are lambdas and cannot be hashed,
     * so a sweep whose op bodies changed (same cells, same messages,
     * same op kinds, different arithmetic) looks IDENTICAL to the
     * journal and would happily replay stale rows from a previous
     * build. If your program carries compute callbacks whose
     * behavior can change between invocations, bump this string
     * (e.g. "fir-v2") whenever they do — any change restarts the
     * journal instead of resuming it. Programs made only of
     * transfer ops (W/R) are fully covered by the structural digest
     * and can leave this "".
     */
    std::string programVersion;
    /**
     * The IO layer every journal byte goes through. nullptr = the
     * real filesystem (serve::Io::system()); tests inject a
     * serve::FaultyIo to kill or fail any individual write/rename and
     * check the recovery. Must outlive run().
     */
    serve::Io* io = nullptr;
    /**
     * fsync the journal after every appended record. Off by default:
     * the v3 CRC framing makes torn tails detectable and the rows
     * behind them recomputable, so fsync buys power-loss durability,
     * not correctness.
     */
    bool fsyncEveryRecord = false;
};

/** One (shape, request) cell of the sweep grid. */
struct ShapeSweepRow
{
    std::size_t shape = 0;
    std::size_t request = 0;
    RunResult result;
    /** SimSession::machineDigest() at the run's terminal state. */
    std::uint64_t machineDigest = 0;
    /** Replayed from the resume journal instead of executed. A row
     *  copied from an equivalent cell is not (see rowsShared). */
    bool fromJournal = false;
    /** False only when a stopped/partial sweep never ran this row. */
    bool finished = false;
};

/** Everything a shape sweep produced. */
struct ShapeSweepResult
{
    /** Shape-major grid: rows[shape * numRequests + request]. */
    std::vector<ShapeSweepRow> rows;
    std::size_t numShapes = 0;
    std::size_t numRequests = 0;
    /** The requests the grid ran (for per-shape summaries). */
    std::vector<RunRequest> requests;

    /** False when stopAfterJournalRecords stopped the sweep early.
     *  For a sharded run this covers the shard's cells only. */
    bool complete = true;
    /** Echo of ShapeSweepOptions::shardBegin/shardEnd (clamped).
     *  sharded == false means the whole grid ran here. */
    bool sharded = false;
    std::size_t shardBegin = 0;
    std::size_t shardEnd = 0;
    int workersUsed = 1;
    double wallSeconds = 0.0;
    std::size_t rowsFromJournal = 0;
    std::size_t checkpointsRestored = 0;
    /** Rows this run copied from an equivalent cell instead of
     *  simulating them (see ShapeSweep). */
    std::size_t rowsShared = 0;
    /**
     * True when the journal could not be opened or an append failed
     * (EIO, ENOSPC, torn write). The sweep's *results* are unaffected
     * — journaling degrades to off and rows recompute on the next
     * resume — but a service should surface this (the daemon's
     * degraded-mode flag keys off it). journalErrorText carries the
     * first failure's description.
     */
    bool journalError = false;
    std::string journalErrorText;

    const ShapeSweepRow&
    row(std::size_t shape, std::size_t request) const
    {
        return rows[shape * numRequests + request];
    }

    /** SweepSummary over one shape's finished rows. */
    SweepSummary shapeSummary(std::size_t shape) const;

    /** Multi-line human-readable dump (one line per shape). */
    std::string str(const std::vector<ShapeSpec>& shapes) const;
};

/**
 * Progress parsed out of a crash-resume journal without rebuilding
 * the sweep: what a service needs to report about a drained or killed
 * sweep — how many rows finished, and for each in-flight checkpointed
 * row the checkpoint's progress header (cycle reached, kernel,
 * machine digest, per-message stream positions) via
 * peekCheckpointInfo. No sessions are opened and no machine pools are
 * parsed.
 */
struct SweepJournalRow
{
    std::size_t shape = 0;
    std::size_t request = 0;
    /** Header of the row's latest machine checkpoint. */
    CheckpointInfo info;
};

struct SweepJournalInfo
{
    /** The header's config digest (identifies the exact sweep). */
    std::uint64_t configDigest = 0;
    /** Rows finished and replayable verbatim on resume. */
    std::size_t rowsDone = 0;
    /** Unfinished rows with a restorable checkpoint, latest per row,
     *  ordered by (shape, request). */
    std::vector<SweepJournalRow> inflight;
    /** Shard-range record, when the journal carries one: the grid
     *  dimensions and the half-open cell range this shard owns. */
    bool sharded = false;
    std::size_t numShapes = 0;
    std::size_t numRequests = 0;
    std::size_t shardBegin = 0;
    std::size_t shardEnd = 0;
};

/**
 * Parse @p path as a ShapeSweep journal. Returns false when the file
 * is missing, too short, or not a journal of the current version. A
 * torn or corrupt record stops the scan — everything sound before it
 * is still counted, exactly mirroring what a resume would replay.
 */
bool inspectSweepJournal(const std::string& path, SweepJournalInfo& out);

/** One finished row recovered from a set of shard journals. */
struct SweepMergeRow
{
    std::size_t shape = 0;
    std::size_t request = 0;
    std::uint64_t machineDigest = 0;
    RunResult result;
    /** Journals that carried this row (> 1 for overlapping shards —
     *  every duplicate was digest-checked against the first). */
    int sources = 1;
};

/** The union of N shard journals of one sweep. */
struct SweepMergeResult
{
    std::uint64_t configDigest = 0;
    /** Grid dimensions from the shard-range records; 0 when every
     *  input was an unsharded journal (dimensions unrecorded). */
    std::size_t numShapes = 0;
    std::size_t numRequests = 0;
    /** Finished rows in grid order — (shape, request) ascending. */
    std::vector<SweepMergeRow> rows;
    /** Rows seen in more than one journal (each one cross-checked). */
    std::size_t duplicateRows = 0;
    /** Row records of another row-record version (written by another
     *  build), skipped: a resume simulates those rows again. */
    std::size_t rowsOtherVersion = 0;
    /** True when the dimensions are known and every grid cell has a
     *  row — the merged sweep is whole. */
    bool complete = false;
    /**
     * Per-rung digest fold (FNV over the shape's row digests in
     * request order, finished rows only): one integer per shape that
     * equals the same fold over an unsharded run's rows iff the
     * sharded sweep is bit-identical to it — the cross-check
     * `syscomm-cli sweep-merge` prints. Sized numShapes when the
     * dimensions are known, else by the highest shape seen + 1.
     */
    std::vector<std::uint64_t> shapeDigests;
};

/**
 * Merge N shard journals (any mix of sharded and unsharded, any
 * order) into one summary. Hard failures — returns false with @p
 * error set, out invalid: an unreadable or non-journal file, a
 * config-digest disagreement (the journals describe different
 * sweeps), shard-range records that disagree on grid dimensions, or
 * two journals carrying the same (shape, request) with a different
 * machine digest or result (a determinism violation, never silently
 * dropped). In-flight checkpoints are ignored — merging summarizes
 * finished rows; resume each shard with its own journal to finish it.
 */
bool mergeSweepJournals(const std::vector<std::string>& paths,
                        SweepMergeResult& out, std::string& error);

/**
 * The sweep driver. Construct once per (program, topology, ladder);
 * run() any number of request batches — the shared CompiledProgram
 * is built on first use, and the worker threads and their sessions
 * (at most one per worker) persist across batches. The program must
 * outlive the sweep; the topology is shared (every per-shape spec
 * aliases one graph). run() is not reentrant. Workers only read the
 * shared Program, so its compute callbacks must not capture shared
 * mutable state when the sweep is threaded.
 */
class ShapeSweep
{
  public:
    ShapeSweep(const Program& program, SharedTopology topo,
               std::vector<ShapeSpec> shapes,
               ShapeSweepOptions options = {});

    /**
     * Build over compile analyses something else already paid for —
     * the serving daemon's compiled-program cache hands one
     * CompiledProgram to every submission of the same program, and
     * its sweeps must not recompile per submission. @p compiled must
     * be non-null; the Program it references must outlive the sweep.
     */
    ShapeSweep(std::shared_ptr<const CompiledProgram> compiled,
               std::vector<ShapeSpec> shapes,
               ShapeSweepOptions options = {});

    ~ShapeSweep();

    ShapeSweep(const ShapeSweep&) = delete;
    ShapeSweep& operator=(const ShapeSweep&) = delete;

    /** Run every request on every shape. */
    ShapeSweepResult run(const std::vector<RunRequest>& requests);

    /** The shared compile analyses (built on first run()). */
    const std::shared_ptr<const CompiledProgram>& compiled() const
    {
        return compiled_;
    }
    const std::vector<ShapeSpec>& shapes() const { return shapes_; }
    /** The full MachineSpec a shape index resolves to. */
    const MachineSpec& spec(std::size_t shape) const
    {
        return specs_[shape];
    }
    int pooledWorkers() const { return pool_.pooledWorkers(); }

  private:
    struct Journal;
    /** A worker slot's session and the shape it was built for. */
    struct SlotSession
    {
        std::size_t shape = 0;
        std::unique_ptr<SimSession> session;
    };

    const Program& program_;
    /** One shared graph: every per-shape spec and the compiled
     *  program alias this node instead of holding copies. */
    SharedTopology topo_;
    std::vector<ShapeSpec> shapes_;
    ShapeSweepOptions options_;
    /** One MachineSpec per shape; stable addresses (built once). */
    std::vector<MachineSpec> specs_;
    std::shared_ptr<const CompiledProgram> compiled_;
    /** Indexed by WorkerPool slot; kept across run() calls. */
    std::vector<SlotSession> slots_;
    WorkerPool pool_;
};

} // namespace syscomm::sim
