#include "sim/batch.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <thread>

namespace syscomm::sim {

namespace {

/**
 * Nearest-rank percentile over an ascending vector. An empty vector
 * has no order statistics: -1, the same "no distribution" marker
 * SweepSummary uses (indexing into it would be UB, and 0 is a legal
 * cycle count).
 */
Cycle
percentile(const std::vector<Cycle>& sorted, double p)
{
    if (sorted.empty())
        return -1;
    std::size_t rank = static_cast<std::size_t>(
        p / 100.0 * static_cast<double>(sorted.size()) + 0.999999);
    if (rank < 1)
        rank = 1;
    if (rank > sorted.size())
        rank = sorted.size();
    return sorted[rank - 1];
}

} // namespace

SweepSummary
summarizeSweep(std::vector<RunResult> results,
               const std::vector<RunRequest>& requests)
{
    SweepSummary summary;
    summary.results = std::move(results);

    std::vector<Cycle> cycles;
    cycles.reserve(summary.results.size());
    PolicySummary byKind[kNumPolicyKinds];
    bool kindUsed[kNumPolicyKinds] = {};
    double waitSum[kNumPolicyKinds] = {};
    double cycleSum[kNumPolicyKinds] = {};

    for (std::size_t i = 0; i < summary.results.size(); ++i) {
        const RunResult& r = summary.results[i];
        ++summary.statusCounts[static_cast<int>(r.status)];
        if (r.status != RunStatus::kConfigError)
            cycles.push_back(r.cycles);

        int kind = i < requests.size()
                       ? static_cast<int>(requests[i].policy)
                       : static_cast<int>(PolicyKind::kCompatible);
        PolicySummary& ps = byKind[kind];
        kindUsed[kind] = true;
        ps.policy = static_cast<PolicyKind>(kind);
        ++ps.runs;
        switch (r.status) {
          case RunStatus::kCompleted:
            ++ps.completed;
            cycleSum[kind] += static_cast<double>(r.cycles);
            waitSum[kind] += r.stats.avgRequestWait();
            break;
          case RunStatus::kDeadlocked:
            ++ps.deadlocked;
            break;
          case RunStatus::kMaxCycles:
            ++ps.budgetExhausted;
            break;
          case RunStatus::kConfigError:
            ++ps.configErrors;
            break;
          case RunStatus::kPaused:
            ++ps.paused;
            break;
          case RunStatus::kFaulted:
            ++ps.faulted;
            break;
        }
    }

    for (int kind = 0; kind < kNumPolicyKinds; ++kind) {
        if (!kindUsed[kind])
            continue;
        PolicySummary ps = byKind[kind];
        if (ps.completed > 0) {
            ps.meanCycles = cycleSum[kind] / ps.completed;
            ps.meanRequestWait = waitSum[kind] / ps.completed;
        }
        summary.perPolicy.push_back(ps);
    }

    // An all-config-error (or empty) batch has no cycle distribution;
    // the summary keeps its -1 "absent" markers rather than computing
    // percentiles of nothing.
    if (!cycles.empty()) {
        std::sort(cycles.begin(), cycles.end());
        summary.minCycles = cycles.front();
        summary.maxCycles = cycles.back();
        summary.p50Cycles = percentile(cycles, 50.0);
        summary.p90Cycles = percentile(cycles, 90.0);
        summary.p99Cycles = percentile(cycles, 99.0);
        double sum = 0.0;
        for (Cycle c : cycles)
            sum += static_cast<double>(c);
        summary.meanCycles = sum / static_cast<double>(cycles.size());
    }
    return summary;
}

std::string
SweepSummary::str() const
{
    std::ostringstream os;
    // Every status bucket prints, by name, from the same table the
    // simulator maintains — a RunStatus added later (as kPaused was)
    // can never silently vanish from sweep reports again.
    os << "runs: " << results.size() << " (";
    for (int s = 0; s < kNumRunStatuses; ++s) {
        if (s > 0)
            os << ", ";
        os << runStatusName(static_cast<RunStatus>(s)) << " "
           << statusCounts[s];
    }
    os << ")\n";
    os << "cycles: min " << minCycles << " p50 " << p50Cycles << " p90 "
       << p90Cycles << " p99 " << p99Cycles << " max " << maxCycles
       << " mean " << meanCycles << "\n";
    for (const PolicySummary& ps : perPolicy) {
        os << "  " << policyKindName(ps.policy) << ": " << ps.runs
           << " runs, " << ps.completed << " completed";
        if (ps.completed > 0) {
            os << " (mean " << ps.meanCycles << " cycles, mean wait "
               << ps.meanRequestWait << ")";
        }
        if (ps.deadlocked > 0)
            os << ", " << ps.deadlocked << " deadlocked";
        if (ps.budgetExhausted > 0)
            os << ", " << ps.budgetExhausted << " max-cycles";
        if (ps.configErrors > 0)
            os << ", " << ps.configErrors << " config-error";
        if (ps.paused > 0)
            os << ", " << ps.paused << " paused";
        if (ps.faulted > 0)
            os << ", " << ps.faulted << " faulted";
        os << "\n";
    }
    return os.str();
}

/**
 * Shared pool state. Threads are spawned by the first dispatch that
 * needs them and live until the pool is destroyed; dispatch() hands
 * them work by publishing a batch (the job plus a shared
 * work-stealing index) under the mutex and bumping batchId. A worker
 * participates when its slot is within the batch's worker count;
 * between batches every worker is parked on workCv, so the calling
 * thread may freely mutate per-slot state — the mutex hand-off orders
 * those writes before the workers' next reads.
 */
struct WorkerPool::State
{
    std::mutex mutex;
    std::condition_variable workCv;
    std::condition_variable doneCv;
    std::vector<std::thread> threads;

    // Guarded by mutex:
    bool stop = false;
    std::uint64_t batchId = 0;
    int participants = 0; ///< pool threads active in current batch
    int finished = 0;
    std::size_t count = 0;
    const std::function<void(int, std::size_t)>* job = nullptr;
    std::vector<std::exception_ptr>* errors = nullptr;
    std::atomic<std::size_t>* next = nullptr;
};

WorkerPool::WorkerPool() : state_(std::make_unique<State>()) {}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(state_->mutex);
        state_->stop = true;
    }
    state_->workCv.notify_all();
    for (std::thread& t : state_->threads)
        t.join();
}

int
WorkerPool::pooledWorkers() const
{
    return static_cast<int>(state_->threads.size());
}

void
WorkerPool::dispatch(int workers, std::size_t count,
                     const std::function<void(int, std::size_t)>& job)
{
    if (workers < 1)
        workers = 1;

    std::atomic<std::size_t> next{0};
    auto drain = [&](int slot) {
        for (std::size_t i = next.fetch_add(1); i < count;
             i = next.fetch_add(1)) {
            job(slot, i);
        }
    };

    if (workers == 1) {
        drain(0); // inline: a single-worker batch spawns nothing
        return;
    }

    // Exceptions (a throwing ComputeFn, OOM) are parked per slot and
    // rethrown after the batch joins, so the threaded path fails the
    // same way the serial path does instead of std::terminate-ing
    // the process.
    std::vector<std::exception_ptr> slotErrors(workers);

    // Grow the pool to cover this batch; it never shrinks — an idle
    // parked thread costs nothing, while spawning per dispatch cost
    // every small batch a thread start-up (the pre-pool design).
    while (static_cast<int>(state_->threads.size()) < workers - 1) {
        int slot = static_cast<int>(state_->threads.size()) + 1;
        state_->threads.emplace_back([this, slot] {
            std::uint64_t seen = 0;
            for (;;) {
                const std::function<void(int, std::size_t)>* batchJob;
                std::vector<std::exception_ptr>* errs;
                std::atomic<std::size_t>* idx;
                std::size_t n;
                {
                    std::unique_lock<std::mutex> lock(state_->mutex);
                    state_->workCv.wait(lock, [&] {
                        return state_->stop ||
                               (state_->batchId != seen &&
                                slot <= state_->participants);
                    });
                    if (state_->stop)
                        return;
                    seen = state_->batchId;
                    batchJob = state_->job;
                    errs = state_->errors;
                    idx = state_->next;
                    n = state_->count;
                }
                try {
                    for (std::size_t i = idx->fetch_add(1); i < n;
                         i = idx->fetch_add(1)) {
                        (*batchJob)(slot, i);
                    }
                } catch (...) {
                    (*errs)[slot] = std::current_exception();
                }
                {
                    std::lock_guard<std::mutex> lock(state_->mutex);
                    if (++state_->finished == state_->participants)
                        state_->doneCv.notify_all();
                }
            }
        });
    }

    // Publish the batch and wake the participating workers.
    {
        std::lock_guard<std::mutex> lock(state_->mutex);
        ++state_->batchId;
        state_->participants = workers - 1;
        state_->finished = 0;
        state_->count = count;
        state_->job = &job;
        state_->errors = &slotErrors;
        state_->next = &next;
    }
    state_->workCv.notify_all();

    try {
        drain(0);
    } catch (...) {
        slotErrors[0] = std::current_exception();
    }
    {
        std::unique_lock<std::mutex> lock(state_->mutex);
        state_->doneCv.wait(lock, [&] {
            return state_->finished == state_->participants;
        });
        // The batch-local pointers die with this frame; no parked
        // worker reads them again (a worker only reads them after
        // observing a *new* batchId).
        state_->job = nullptr;
        state_->errors = nullptr;
        state_->next = nullptr;
        state_->count = 0;
    }
    for (const std::exception_ptr& error : slotErrors) {
        if (error)
            std::rethrow_exception(error);
    }
}

int
clampWorkers(int requested, std::size_t work_items)
{
    int workers = requested > 0
                      ? requested
                      : static_cast<int>(
                            std::thread::hardware_concurrency());
    if (workers < 1)
        workers = 1;
    if (work_items < static_cast<std::size_t>(workers))
        workers = static_cast<int>(work_items);
    return std::max(workers, 1);
}

} // namespace syscomm::sim
