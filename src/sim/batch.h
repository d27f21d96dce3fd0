#pragma once

/**
 * @file
 * Sweep plumbing behind ShapeSweep (sim/shape_sweep.h): a persistent
 * work-stealing WorkerPool, the clampWorkers sizing policy, and
 * SweepSummary — the aggregate view (status histogram, cycle
 * percentiles, per-policy statistics) of a batch of results in
 * request order.
 *
 * Determinism: summarizeSweep computes every aggregate from the
 * ordered result vector, so a threaded sweep summarizes identically
 * to a serial loop over the same requests (tests/test_session.cpp
 * asserts exactly that).
 */

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "sim/session.h"

namespace syscomm::sim {

/**
 * A persistent pool of worker threads with work-stealing dispatch
 * (ShapeSweep's work items are classes of (shape × request) grid
 * cells, each run on its worker slot's session). Threads are spawned on
 * demand by the first dispatch that needs them and parked between
 * batches; the mutex hand-off orders everything the caller wrote
 * before dispatch() against the workers' reads, so callers may freely
 * prepare per-slot state (sessions, buffers) between batches.
 */
class WorkerPool
{
  public:
    WorkerPool();
    ~WorkerPool();

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    /**
     * Run @p job(slot, index) for every index in [0, count), spread
     * over @p workers slots by a shared work-stealing counter. Slot 0
     * is the calling thread; slots 1..workers-1 are pool threads. The
     * call blocks until every index completed; an exception thrown by
     * any slot is parked and rethrown here after the join (first slot
     * wins), so a throwing job fails the dispatch, not the process.
     * Not reentrant — one dispatch at a time per pool.
     */
    void dispatch(int workers, std::size_t count,
                  const std::function<void(int, std::size_t)>& job);

    /** Pool threads currently alive (spawned on demand, never shed). */
    int pooledWorkers() const;

  private:
    struct State;
    std::unique_ptr<State> state_;
};

/**
 * Worker count a dispatch over @p work_items should use: the shared
 * sizing policy of every WorkerPool client (ShapeSweep).
 * @p requested <= 0 picks std::thread::hardware_concurrency() — and
 * because that call may legitimately return 0 ("not computable"),
 * the result is floored at 1 *after* the hardware lookup, so an
 * unknowable core count degrades to a serial sweep, never to a
 * zero-worker one. The result is also clamped to the number of work
 * items (threads with nothing to steal are pure overhead), and the
 * floor applies last: even work_items == 0 yields 1, and a
 * one-worker dispatch runs inline on the calling thread without
 * spawning anything (WorkerPool::dispatch's workers == 1 path) —
 * the "single-worker sweeps are really serial" promise
 * ShapeSweepOptions makes, which tests/test_shape_sweep.cpp pins via
 * pooledWorkers().
 */
int clampWorkers(int requested, std::size_t work_items);

/** Aggregates over the runs that used one policy. */
struct PolicySummary
{
    PolicyKind policy = PolicyKind::kCompatible;
    int runs = 0;
    int completed = 0;
    int deadlocked = 0;
    int budgetExhausted = 0;
    int configErrors = 0;
    /** Truncated runs (RunRequest::pauseAt; sweeps normally use 0). */
    int paused = 0;
    /** Runs frozen with injected faults implicated (kFaulted). */
    int faulted = 0;
    /** Mean completion cycles over completed runs (0 when none). */
    double meanCycles = 0.0;
    /** Mean queue-request wait over completed runs (0 when none). */
    double meanRequestWait = 0.0;
};

/** Everything a sweep produced. */
struct SweepSummary
{
    /** One result per request, in request order. */
    std::vector<RunResult> results;

    /** Runs per terminal status, indexed by RunStatus. */
    std::int64_t statusCounts[kNumRunStatuses] = {};

    /**
     * Cycle-count distribution over runs that simulated (config
     * errors excluded). Percentiles are nearest-rank. When *no* run
     * simulated (every run was a config error, or the batch was
     * empty) there is no distribution: the five order statistics are
     * -1 — never a fabricated 0, which is a legal cycle count —
     * and meanCycles is 0.
     */
    Cycle minCycles = -1;
    Cycle maxCycles = -1;
    Cycle p50Cycles = -1;
    Cycle p90Cycles = -1;
    Cycle p99Cycles = -1;
    double meanCycles = 0.0;

    /** Per-policy aggregates, ascending PolicyKind, used kinds only. */
    std::vector<PolicySummary> perPolicy;

    std::int64_t completed() const
    {
        return statusCounts[static_cast<int>(RunStatus::kCompleted)];
    }
    std::int64_t deadlocked() const
    {
        return statusCounts[static_cast<int>(RunStatus::kDeadlocked)];
    }

    /** Multi-line human-readable dump. */
    std::string str() const;
};

/**
 * Aggregate already-computed results (a serial loop's, or one shape's
 * row of a ShapeSweep via ShapeSweepResult::shapeSummary).
 * @p results must be in request order and match @p requests in size.
 */
SweepSummary summarizeSweep(std::vector<RunResult> results,
                            const std::vector<RunRequest>& requests);

} // namespace syscomm::sim
