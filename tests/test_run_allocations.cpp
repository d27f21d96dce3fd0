/**
 * @file
 * Heap allocations per warm SimSession::run(). A warm run reuses the
 * session's machine, so what it still allocates is its result: the
 * statistics vectors and, for a deadlocked run, the deadlock report.
 * The report lists only the implicated cells and links by id, and
 * keeps every listed link's queues and waiting messages in two flat
 * vectors, so a deadlocked run makes a handful of allocations however
 * many links it lists. A warm run observed by a reused RunLog
 * allocates no more: the log keeps its capacity across clear().
 *
 * A compile-cache hit allocates nothing either: the cache copies the
 * program and topology only when it compiles them.
 *
 * This suite is its own binary so that the counting global operator
 * new below counts nothing but it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/program_gen.h"
#include "serve/cache.h"
#include "sim/session.h"
#include "sim/trace.h"

// ASan and TSan replace operator new, so the count below sees nothing.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SYSCOMM_TEST_MALLOC_REPLACED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SYSCOMM_TEST_MALLOC_REPLACED 1
#endif
#endif

namespace {
std::atomic<std::int64_t> allocations{0};
}

void*
operator new(std::size_t size)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace syscomm {
namespace {

using sim::PolicyKind;
using sim::RunRequest;
using sim::RunResult;
using sim::RunStatus;
using sim::SimSession;

struct AllocationTally
{
    std::int64_t completedRuns = 0;
    std::int64_t completedAllocs = 0;
    std::int64_t deadlockedRuns = 0;
    std::int64_t deadlockedAllocs = 0;
    std::int64_t listedLinks = 0;
};

/**
 * Count the allocations of every warm run over the corpus: 16 random
 * deadlock-free programs (64 messages) on an 8x8 mesh, each over the
 * q1-4 x c1-4 ladder under three policies. Small queues deadlock most
 * fcfs and random runs, and some compatible ones where the program
 * needs more queues than the rung has. With @p observed, every run
 * records into one RunLog per program, cleared before each run.
 */
void
countWarmRuns(bool observed, AllocationTally& tally)
{
    const Topology mesh = Topology::mesh(8, 8);
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        GenOptions gen;
        gen.numMessages = 64;
        gen.interleave = 0.3;
        gen.seed = seed;
        const Program program = randomDeadlockFreeProgram(mesh, gen);
        const auto compiled = sim::CompiledProgram::compile(program, mesh);
        sim::RunLog log(program);
        for (int queues = 1; queues <= 4; ++queues) {
            for (int capacity = 1; capacity <= 4; ++capacity) {
                MachineSpec spec;
                spec.topo = compiled->sharedTopo();
                spec.queuesPerLink = queues;
                spec.queueCapacity = capacity;
                SimSession session(compiled, spec);
                for (PolicyKind policy :
                     {PolicyKind::kCompatible, PolicyKind::kFcfs,
                      PolicyKind::kRandom}) {
                    RunRequest request;
                    request.policy = policy;
                    request.seed = seed;
                    if (observed)
                        request.observer = &log;
                    log.clear();
                    (void)session.run(request); // warm-up
                    log.clear();
                    const std::int64_t before = allocations.load();
                    const RunResult r = session.run(request);
                    const std::int64_t used = allocations.load() - before;
                    if (r.status == RunStatus::kCompleted) {
                        ++tally.completedRuns;
                        tally.completedAllocs += used;
                    } else {
                        ASSERT_EQ(r.status, RunStatus::kDeadlocked)
                            << r.statusStr();
                        ++tally.deadlockedRuns;
                        tally.deadlockedAllocs += used;
                        tally.listedLinks += static_cast<std::int64_t>(
                            r.deadlock.links.size());
                    }
                }
            }
        }
    }
    ASSERT_GT(tally.completedRuns, 0);
    ASSERT_GT(tally.deadlockedRuns, 0);
    std::printf("%s completed: %lld runs, %.2f allocations per run\n"
                "%s deadlocked: %lld runs, %.2f allocations per run, "
                "%.1f links per report\n",
                observed ? "observed" : "unobserved",
                static_cast<long long>(tally.completedRuns),
                static_cast<double>(tally.completedAllocs) /
                    tally.completedRuns,
                observed ? "observed" : "unobserved",
                static_cast<long long>(tally.deadlockedRuns),
                static_cast<double>(tally.deadlockedAllocs) /
                    tally.deadlockedRuns,
                static_cast<double>(tally.listedLinks) /
                    tally.deadlockedRuns);
}

TEST(RunAllocations, WarmRunsAllocateOnlyTheirResult)
{
#ifdef SYSCOMM_TEST_MALLOC_REPLACED
    GTEST_SKIP() << "the sanitizer replaces operator new";
#else
    AllocationTally tally;
    countWarmRuns(false, tally);
    if (HasFatalFailure())
        return;
    EXPECT_LE(static_cast<double>(tally.completedAllocs) /
                  tally.completedRuns,
              2.0);
    EXPECT_LE(static_cast<double>(tally.deadlockedAllocs) /
                  tally.deadlockedRuns,
              8.0);
#endif
}

TEST(RunAllocations, WarmObservedRunsReuseTheirLog)
{
    // A RunLog cleared between runs keeps its capacity, so recording a
    // warm run costs no allocation beyond the unobserved run's.
#ifdef SYSCOMM_TEST_MALLOC_REPLACED
    GTEST_SKIP() << "the sanitizer replaces operator new";
#else
    AllocationTally tally;
    countWarmRuns(true, tally);
    if (HasFatalFailure())
        return;
    EXPECT_LE(static_cast<double>(tally.completedAllocs) /
                  tally.completedRuns,
              2.0);
    EXPECT_LE(static_cast<double>(tally.deadlockedAllocs) /
                  tally.deadlockedRuns,
              8.0);
#endif
}

/** Allocations of one CompileCache::get that hits on @p program. */
std::int64_t
cacheHitAllocations(const Program& program, const Topology& topo)
{
    serve::CompileCache cache(4);
    const std::uint64_t key = serve::CompileCache::keyFor(program, topo, "");
    bool hit = true;
    (void)cache.get(key, program, topo, &hit); // the miss compiles
    EXPECT_FALSE(hit);
    const std::int64_t before = allocations.load();
    const serve::CachedProgram entry = cache.get(key, program, topo, &hit);
    const std::int64_t used = allocations.load() - before;
    EXPECT_TRUE(hit);
    EXPECT_TRUE(entry.compiled->valid());
    return used;
}

TEST(RunAllocations, CompileCacheHitsCopyNothing)
{
#ifdef SYSCOMM_TEST_MALLOC_REPLACED
    GTEST_SKIP() << "the sanitizer replaces operator new";
#else
    Program tiny(4);
    const MessageId x = tiny.declareMessage("X", 0, 3);
    tiny.write(0, x);
    tiny.read(3, x);
    const std::int64_t small =
        cacheHitAllocations(tiny, Topology::linearArray(4));

    const Topology mesh = Topology::mesh(8, 8);
    GenOptions gen;
    gen.numMessages = 64;
    gen.interleave = 0.3;
    gen.seed = 1;
    const std::int64_t large =
        cacheHitAllocations(randomDeadlockFreeProgram(mesh, gen), mesh);

    std::printf("compile-cache hit: %lld allocations (4 cells), %lld "
                "(8x8 mesh, 64 messages)\n",
                static_cast<long long>(small),
                static_cast<long long>(large));
    EXPECT_EQ(large, small);
    EXPECT_EQ(small, 0);
#endif
}

} // namespace
} // namespace syscomm
