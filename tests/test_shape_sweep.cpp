/**
 * @file
 * ShapeSweep / CompiledProgram / checkpoint-persistence coverage.
 *
 * The contracts under test, in order of importance:
 *  - a shared-compile shape sweep is bit-identical to N independent
 *    SimSession builds, across policies and seeds, while running the
 *    program-side analyses exactly once (asserted via
 *    CompiledProgram::buildCount);
 *  - each class of equivalent cells is simulated once, and every
 *    copied row still equals a direct run of its own cell — at any
 *    worker count, across a resume, and within each shard;
 *  - a sweep killed mid-flight (journal record budget) and resumed
 *    from its journal reproduces the uninterrupted sweep's results
 *    bit-identically — finished rows replay, checkpointed rows
 *    continue from their serialized machine state;
 *  - saveCheckpoint/restoreCheckpoint round-trips a paused run across
 *    sessions and across kernels.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/program_gen.h"
#include "sim/crc32c.h"
#include "sim/fault.h"
#include "sim/fnv.h"
#include "sim/shape_sweep.h"
#include "test_support.h"

// ASan and TSan replace malloc, so mallinfo2 sees nothing of it.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SYSCOMM_TEST_MALLOC_REPLACED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SYSCOMM_TEST_MALLOC_REPLACED 1
#endif
#endif

namespace syscomm {
namespace {

using sim::CompiledProgram;
using sim::KernelKind;
using sim::PolicyKind;
using sim::RunLog;
using sim::RunRequest;
using sim::RunResult;
using sim::RunStatus;
using sim::SessionOptions;
using sim::ShapeSpec;
using sim::ShapeSweep;
using sim::ShapeSweepOptions;
using sim::ShapeSweepResult;
using sim::SimSession;

/** Seed-sensitive workload mixing completions and deadlocks. */
Program
perturbedProgram(std::uint64_t seed)
{
    Topology topo = Topology::linearArray(6);
    GenOptions gen;
    gen.numMessages = 8;
    gen.maxWords = 4;
    gen.seed = 300 + seed;
    gen.interleave = 0.5;
    Program p = randomDeadlockFreeProgram(topo, gen);
    return perturbProgram(p, static_cast<int>(1 + seed % 3), seed);
}

/**
 * One long slow stream (compute gaps between words): a run of a few
 * hundred cycles, so checkpoint intervals land mid-flight.
 */
Program
longRunProgram()
{
    Program p(4);
    MessageId id = p.declareMessage("S", 0, 3);
    for (int w = 0; w < 30; ++w) {
        for (int g = 0; g < 6; ++g) {
            p.compute(0,
                      [](CellContext& ctx) { ctx.local(0) += 1.0; });
        }
        p.write(0, id);
    }
    for (int w = 0; w < 30; ++w)
        p.read(3, id);
    return p;
}

/** The acceptance-criteria ladder: 4 queue counts x 4 capacities. */
std::vector<ShapeSpec>
ladder16()
{
    std::vector<ShapeSpec> shapes;
    for (int queues : {1, 2, 3, 4}) {
        for (int capacity : {1, 2, 4, 8}) {
            ShapeSpec shape;
            shape.name = "q=" + std::to_string(queues) +
                         "/cap=" + std::to_string(capacity);
            shape.queuesPerLink = queues;
            shape.queueCapacity = capacity;
            shapes.push_back(std::move(shape));
        }
    }
    return shapes;
}

MachineSpec
specFor(const Topology& topo, const ShapeSpec& shape)
{
    MachineSpec spec;
    spec.topo = topo;
    spec.queuesPerLink = shape.queuesPerLink;
    spec.queueCapacity = shape.queueCapacity;
    spec.extensionCapacity = shape.extensionCapacity;
    spec.extensionPenalty = shape.extensionPenalty;
    return spec;
}

std::string
tempPath(const std::string& name)
{
    return testing::TempDir() + name;
}

std::vector<std::uint8_t>
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

void
writeFile(const std::string& path, const std::vector<std::uint8_t>& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/**
 * Journal layout: a 16-byte header, then records of kind, record
 * version, u64 payload length, payload (u64 shape, u64 request, ...),
 * and a CRC32C over kind..payload. Returns the payload length of the
 * record at @p at.
 */
std::size_t
recordPayloadLength(const std::vector<std::uint8_t>& bytes, std::size_t at)
{
    std::size_t len = 0;
    for (int b = 7; b >= 0; --b)
        len = len << 8 | bytes[at + 2 + b];
    return len;
}

/** Recompute the CRC32C of the (edited) record at @p at. */
void
resealRecord(std::vector<std::uint8_t>& bytes, std::size_t at)
{
    const std::size_t len = recordPayloadLength(bytes, at);
    const std::uint32_t crc = sim::crc32c(bytes.data() + at, 10 + len);
    for (int b = 0; b < 4; ++b)
        bytes[at + 10 + len + b] = static_cast<std::uint8_t>(crc >> (8 * b));
}

// ---------------------------------------------------------------------
// (a) shared compile == independent sessions, one analysis pass
// ---------------------------------------------------------------------

TEST(ShapeSweep, GoldenMatchesIndependentSessionsAndCompilesOnce)
{
    Program p = perturbedProgram(1);
    Topology topo = Topology::linearArray(6);
    std::vector<ShapeSpec> shapes = ladder16();

    std::vector<RunRequest> requests;
    for (PolicyKind policy :
         {PolicyKind::kCompatible, PolicyKind::kFcfs,
          PolicyKind::kRandom}) {
        for (std::uint64_t seed : {1ull, 7ull}) {
            RunRequest request;
            request.policy = policy;
            request.seed = seed;
            requests.push_back(request);
        }
    }

    ShapeSweepOptions options;
    options.numWorkers = 3;
    ShapeSweep sweep(p, topo, shapes, options);
    const std::int64_t before = CompiledProgram::buildCount();
    ShapeSweepResult result = sweep.run(requests);
    // >= 16 shapes, exactly one program-side analysis pass.
    EXPECT_EQ(CompiledProgram::buildCount() - before, 1);
    ASSERT_TRUE(result.complete);
    // The second seed of compatible and of fcfs repeats the first on
    // every rung: 16 x 2 rows are copies.
    EXPECT_EQ(result.rowsShared, 32u);
    ASSERT_EQ(result.rows.size(), shapes.size() * requests.size());

    bool sawDeadlock = false;
    bool sawCompleted = false;
    for (std::size_t s = 0; s < shapes.size(); ++s) {
        // The spec must outlive the session (it is held by
        // reference).
        MachineSpec freshSpec = specFor(topo, shapes[s]);
        SimSession fresh(p, freshSpec);
        for (std::size_t r = 0; r < requests.size(); ++r) {
            RunResult want = fresh.run(requests[r]);
            const std::string ctx = "shape=" + shapes[s].name +
                                    " request=" + std::to_string(r);
            expectSameRunResult(result.row(s, r).result, want, ctx);
            EXPECT_EQ(result.row(s, r).machineDigest,
                      fresh.machineDigest())
                << ctx;
            sawDeadlock |= want.status == RunStatus::kDeadlocked;
            sawCompleted |= want.status == RunStatus::kCompleted;
        }
    }
    // The workload must exercise both outcomes or the golden check
    // proves less than it claims.
    EXPECT_TRUE(sawDeadlock);
    EXPECT_TRUE(sawCompleted);

    // A second batch on the same sweep reuses sessions and compile.
    const std::int64_t again = CompiledProgram::buildCount();
    ShapeSweepResult rerun = sweep.run(requests);
    EXPECT_EQ(CompiledProgram::buildCount(), again);
    for (std::size_t i = 0; i < result.rows.size(); ++i) {
        expectSameRunResult(rerun.rows[i].result, result.rows[i].result,
                            "rerun row " + std::to_string(i));
        EXPECT_EQ(rerun.rows[i].machineDigest,
                  result.rows[i].machineDigest);
    }
}

TEST(ShapeSweep, LadderSharesOneTopology)
{
    Program p = perturbedProgram(1);
    Topology topo = Topology::linearArray(6);
    ShapeSweep sweep(p, topo, ladder16());
    sweep.run({RunRequest{}});

    // One graph serves the whole ladder: every per-shape spec and the
    // shared CompiledProgram alias the same Topology node instead of
    // holding copies (the by-value layout kept N+2 alive).
    const Topology* shared = sweep.spec(0).topo.ptr().get();
    for (std::size_t s = 1; s < sweep.shapes().size(); ++s)
        EXPECT_EQ(sweep.spec(s).topo.ptr().get(), shared);
    EXPECT_EQ(&sweep.compiled()->topo(), shared);

    // Copying a spec shares rather than copies.
    MachineSpec copy = sweep.spec(0);
    EXPECT_EQ(copy.topo.ptr().get(), shared);
    // Assigning a fresh Topology makes a fresh node.
    copy.topo = Topology::linearArray(6);
    EXPECT_NE(copy.topo.ptr().get(), shared);
}

TEST(ShapeSweep, WorkerCountDoesNotChangeResults)
{
    Program p = perturbedProgram(2);
    Topology topo = Topology::linearArray(6);
    std::vector<ShapeSpec> shapes = ladder16();
    std::vector<RunRequest> requests(2);
    requests[1].policy = PolicyKind::kFcfs;

    ShapeSweepOptions serial;
    serial.numWorkers = 1;
    ShapeSweep sweepSerial(p, topo, shapes, serial);
    ShapeSweepResult golden = sweepSerial.run(requests);

    ShapeSweepOptions threaded;
    threaded.numWorkers = 4;
    ShapeSweep sweepThreaded(p, topo, shapes, threaded);
    ShapeSweepResult result = sweepThreaded.run(requests);

    ASSERT_EQ(result.rows.size(), golden.rows.size());
    for (std::size_t i = 0; i < golden.rows.size(); ++i) {
        expectSameRunResult(result.rows[i].result, golden.rows[i].result,
                            "row " + std::to_string(i));
        EXPECT_EQ(result.rows[i].machineDigest,
                  golden.rows[i].machineDigest);
    }
}

TEST(SimSession, CompiledTopologyMismatchIsConfigError)
{
    Program p = perturbedProgram(3);
    Topology topo = Topology::linearArray(6);
    auto compiled = CompiledProgram::compile(p, topo);
    ASSERT_TRUE(compiled->valid());

    MachineSpec other;
    other.topo = Topology::linearArray(8);
    SimSession session(compiled, other);
    EXPECT_FALSE(session.valid());
    RunResult r = session.run({});
    EXPECT_EQ(r.status, RunStatus::kConfigError);
    EXPECT_NE(r.error.find("topology"), std::string::npos);
}

// ---------------------------------------------------------------------
// (b) checkpoint save/restore across sessions and kernels
// ---------------------------------------------------------------------

TEST(SimSession, CheckpointRestoresAcrossSessionsAndKernels)
{
    Program p = longRunProgram();
    MachineSpec spec;
    spec.topo = Topology::linearArray(4);
    spec.queuesPerLink = 2;

    for (PolicyKind policy : {PolicyKind::kCompatible, PolicyKind::kRandom,
                              PolicyKind::kFcfs}) {
        RunRequest request;
        request.policy = policy;
        request.seed = 11;

        SimSession oracle(p, spec);
        RunResult want = oracle.run(request);
        ASSERT_EQ(want.status, RunStatus::kCompleted);
        ASSERT_GT(want.cycles, 60);

        SimSession donor(p, spec);
        RunRequest paused = request;
        paused.pauseAt = want.cycles / 2;
        RunResult snap = donor.run(paused);
        ASSERT_EQ(snap.status, RunStatus::kPaused);
        std::vector<std::uint8_t> bytes;
        ASSERT_TRUE(donor.saveCheckpoint(bytes));
        ASSERT_FALSE(bytes.empty());

        for (KernelKind kernel :
             {KernelKind::kEventDriven, KernelKind::kReference}) {
            SessionOptions options;
            options.kernel = kernel;
            SimSession heir(p, spec, options);
            ASSERT_TRUE(heir.restoreCheckpoint(request, bytes))
                << sim::kernelKindName(kernel);
            EXPECT_TRUE(heir.paused());
            EXPECT_EQ(heir.machineDigest(), donor.machineDigest());
            RunResult got = heir.resume();
            expectSameRunResult(
                got, want,
                std::string("restored finish on ") +
                    sim::kernelKindName(kernel) + " policy " +
                    sim::policyKindName(policy));
            EXPECT_EQ(heir.machineDigest(), oracle.machineDigest());
        }
    }
}

TEST(SimSession, CheckpointRejectsMisuseAndCorruption)
{
    Program p = longRunProgram();
    MachineSpec spec;
    spec.topo = Topology::linearArray(4);
    spec.queuesPerLink = 2;

    SimSession session(p, spec);
    std::vector<std::uint8_t> bytes;
    // Not paused: nothing to save.
    EXPECT_FALSE(session.saveCheckpoint(bytes));

    RunRequest paused;
    paused.pauseAt = 40;
    ASSERT_EQ(session.run(paused).status, RunStatus::kPaused);
    ASSERT_TRUE(session.saveCheckpoint(bytes));

    // An observed run checkpoints to the same bytes: its record is
    // the caller's, and a restore continues it with a copy of the log.
    SimSession observed(p, spec);
    RunLog log(p);
    ASSERT_EQ(observed.run(observedBy(log, paused)).status,
              RunStatus::kPaused);
    std::vector<std::uint8_t> observedBytes;
    ASSERT_TRUE(observed.saveCheckpoint(observedBytes));
    EXPECT_EQ(observedBytes, bytes);
    SimSession observedHeir(p, spec);
    RunLog heirLog = log;
    ASSERT_TRUE(
        observedHeir.restoreCheckpoint(observedBy(heirLog), observedBytes));
    expectSameRunResult(observed.resume(), observedHeir.resume(),
                        "observed checkpoint");
    expectSameLog(log, heirLog, "observed checkpoint");

    SimSession heir(p, spec);

    // Truncated and bit-flipped streams are rejected.
    std::vector<std::uint8_t> truncated(bytes.begin(),
                                        bytes.end() - bytes.size() / 3);
    EXPECT_FALSE(heir.restoreCheckpoint({}, truncated));
    // Flip a bit of the recorded machine digest (bytes 8..15 after
    // the magic and version): the end-to-end digest check must
    // refuse the stream.
    std::vector<std::uint8_t> flipped = bytes;
    flipped[12] ^= 0x40;
    EXPECT_FALSE(heir.restoreCheckpoint({}, flipped));

    // A machine of a different shape refuses the stream.
    MachineSpec other = spec;
    other.queuesPerLink = 3;
    SimSession mismatched(p, other);
    EXPECT_FALSE(mismatched.restoreCheckpoint({}, bytes));

    // So does another memory model, in both directions and on a cost
    // mismatch: a memory-to-memory run stalls its cells for a
    // model-dependent number of cycles, so resuming it under another
    // model would silently diverge.
    SessionOptions m2m;
    m2m.memoryToMemory = true;
    m2m.memAccessCost = 2;
    SimSession m2mSession(p, spec, m2m);
    EXPECT_FALSE(m2mSession.restoreCheckpoint({}, bytes));
    ASSERT_EQ(m2mSession.run(paused).status, RunStatus::kPaused);
    std::vector<std::uint8_t> m2mBytes;
    ASSERT_TRUE(m2mSession.saveCheckpoint(m2mBytes));
    EXPECT_FALSE(heir.restoreCheckpoint({}, m2mBytes));
    SessionOptions cheaper = m2m;
    cheaper.memAccessCost = 1;
    SimSession cheaperSession(p, spec, cheaper);
    EXPECT_FALSE(cheaperSession.restoreCheckpoint({}, m2mBytes));
    SimSession m2mHeir(p, spec, m2m);
    ASSERT_TRUE(m2mHeir.restoreCheckpoint({}, m2mBytes));
    SimSession m2mOracle(p, spec, m2m);
    expectSameRunResult(m2mHeir.resume(), m2mOracle.run({}),
                        "memory-to-memory restore");

    // And the intact stream still restores fine afterwards.
    ASSERT_TRUE(heir.restoreCheckpoint({}, bytes));
    RunResult got = heir.resume();
    SimSession oracle(p, spec);
    expectSameRunResult(got, oracle.run({}), "post-rejection restore");
}

// ---------------------------------------------------------------------
// (c) kill-mid-sweep -> resume -> bit-identical sweep
// ---------------------------------------------------------------------

/** Drive a journaled sweep to completion across simulated crashes. */
ShapeSweepResult
runWithCrashes(const Program& p, const Topology& topo,
               const std::vector<ShapeSpec>& shapes,
               const std::vector<RunRequest>& requests,
               ShapeSweepOptions options, int maxInvocations,
               std::size_t* totalReplayed = nullptr,
               std::size_t* totalRestored = nullptr)
{
    for (int attempt = 0; attempt < maxInvocations; ++attempt) {
        ShapeSweep sweep(p, topo, shapes, options);
        ShapeSweepResult result = sweep.run(requests);
        if (totalReplayed != nullptr)
            *totalReplayed += result.rowsFromJournal;
        if (totalRestored != nullptr)
            *totalRestored += result.checkpointsRestored;
        if (result.complete)
            return result;
    }
    ADD_FAILURE() << "sweep did not complete in " << maxInvocations
                  << " invocations";
    return {};
}

TEST(ShapeSweep, KillAndResumeReproducesUninterruptedSweep)
{
    Program p = perturbedProgram(4);
    Topology topo = Topology::linearArray(6);
    std::vector<ShapeSpec> shapes;
    for (int queues : {1, 2, 3, 4}) {
        ShapeSpec shape;
        shape.name = "q=" + std::to_string(queues);
        shape.queuesPerLink = queues;
        shapes.push_back(std::move(shape));
    }
    std::vector<RunRequest> requests(3);
    requests[1].policy = PolicyKind::kFcfs;
    requests[2].policy = PolicyKind::kRandom;
    requests[2].seed = 5;

    ShapeSweepOptions plain;
    plain.numWorkers = 1;
    ShapeSweep goldenSweep(p, topo, shapes, plain);
    ShapeSweepResult golden = goldenSweep.run(requests);
    ASSERT_TRUE(golden.complete);

    const std::string journal =
        tempPath("shape_sweep_kill_resume.journal");
    std::remove(journal.c_str());
    ShapeSweepOptions crashy = plain;
    crashy.journalPath = journal;
    crashy.checkpointEvery = 7;
    crashy.stopAfterJournalRecords = 2; // "crash" every two records
    std::size_t replayed = 0;
    ShapeSweepResult resumed = runWithCrashes(
        p, topo, shapes, requests, crashy, 200, &replayed);

    ASSERT_EQ(resumed.rows.size(), golden.rows.size());
    EXPECT_GT(replayed, 0u);
    for (std::size_t i = 0; i < golden.rows.size(); ++i) {
        expectSameRunResult(resumed.rows[i].result,
                            golden.rows[i].result,
                            "resumed row " + std::to_string(i));
        EXPECT_EQ(resumed.rows[i].machineDigest,
                  golden.rows[i].machineDigest);
    }
    std::remove(journal.c_str());
}

TEST(ShapeSweep, CheckpointedRowContinuesInsteadOfRestarting)
{
    Program p = longRunProgram();
    Topology topo = Topology::linearArray(4);
    std::vector<ShapeSpec> shapes(1);
    shapes[0].name = "q=2";
    std::vector<RunRequest> requests(1);

    ShapeSweepOptions plain;
    plain.numWorkers = 1;
    ShapeSweep goldenSweep(p, topo, shapes, plain);
    ShapeSweepResult golden = goldenSweep.run(requests);
    ASSERT_EQ(golden.row(0, 0).result.status, RunStatus::kCompleted);
    ASSERT_GT(golden.row(0, 0).result.cycles, 60);

    const std::string journal = tempPath("shape_sweep_checkpoint.journal");
    std::remove(journal.c_str());
    ShapeSweepOptions crashy = plain;
    crashy.journalPath = journal;
    crashy.checkpointEvery = 20;
    crashy.stopAfterJournalRecords = 2;

    // First invocation: two mid-run checkpoints, then the simulated
    // crash — the row must be left unfinished but checkpointed.
    ShapeSweep first(p, topo, shapes, crashy);
    ShapeSweepResult partial = first.run(requests);
    EXPECT_FALSE(partial.complete);
    EXPECT_FALSE(partial.row(0, 0).finished);

    // Resumption must pick the run up mid-flight (a restored
    // checkpoint, not a restart) and finish bit-identically.
    std::size_t restored = 0;
    ShapeSweepResult resumed = runWithCrashes(
        p, topo, shapes, requests, crashy, 100, nullptr, &restored);
    EXPECT_GT(restored, 0u);
    expectSameRunResult(resumed.row(0, 0).result, golden.row(0, 0).result,
                        "checkpointed row");
    EXPECT_EQ(resumed.row(0, 0).machineDigest,
              golden.row(0, 0).machineDigest);
    std::remove(journal.c_str());
}

TEST(ShapeSweep, JournalReplayAndTornTailAreHandled)
{
    Program p = perturbedProgram(5);
    Topology topo = Topology::linearArray(6);
    std::vector<ShapeSpec> shapes;
    for (int queues : {1, 2}) {
        ShapeSpec shape;
        shape.name = "q=" + std::to_string(queues);
        shape.queuesPerLink = queues;
        shapes.push_back(std::move(shape));
    }
    std::vector<RunRequest> requests(2);
    requests[1].policy = PolicyKind::kFcfs;

    ShapeSweepOptions plain;
    plain.numWorkers = 1;
    ShapeSweep goldenSweep(p, topo, shapes, plain);
    ShapeSweepResult golden = goldenSweep.run(requests);

    const std::string journal = tempPath("shape_sweep_replay.journal");
    std::remove(journal.c_str());
    ShapeSweepOptions journaled = plain;
    journaled.journalPath = journal;
    {
        ShapeSweep sweep(p, topo, shapes, journaled);
        ShapeSweepResult result = sweep.run(requests);
        ASSERT_TRUE(result.complete);
        EXPECT_EQ(result.rowsFromJournal, 0u);
    }

    // Corrupt the tail the way a mid-write kill would.
    {
        std::FILE* f = std::fopen(journal.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        const std::uint8_t torn[] = {1, 0xff, 0xff, 0x03};
        std::fwrite(torn, 1, sizeof torn, f);
        std::fclose(f);
    }

    // Replay: every row comes from the journal, bit-identical, and
    // the torn tail is ignored.
    ShapeSweep replay(p, topo, shapes, journaled);
    ShapeSweepResult replayed = replay.run(requests);
    ASSERT_TRUE(replayed.complete);
    EXPECT_EQ(replayed.rowsFromJournal, golden.rows.size());
    for (std::size_t i = 0; i < golden.rows.size(); ++i) {
        EXPECT_TRUE(replayed.rows[i].fromJournal);
        expectSameRunResult(replayed.rows[i].result,
                            golden.rows[i].result,
                            "replayed row " + std::to_string(i));
        EXPECT_EQ(replayed.rows[i].machineDigest,
                  golden.rows[i].machineDigest);
    }

    // A different request batch must not resume a stale journal …
    std::vector<RunRequest> other(1);
    other[0].seed = 99;
    ShapeSweep fresh(p, topo, shapes, journaled);
    ShapeSweepResult refreshed = fresh.run(other);
    ASSERT_TRUE(refreshed.complete);
    EXPECT_EQ(refreshed.rowsFromJournal, 0u);

    // … and neither may a sweep whose session options change the
    // results (the memory-to-memory model here): same program,
    // shapes and requests, different machine semantics.
    ShapeSweepOptions memModel = journaled;
    memModel.session.memoryToMemory = true;
    ShapeSweep differentModel(p, topo, shapes, memModel);
    ShapeSweepResult recomputed = differentModel.run(other);
    ASSERT_TRUE(recomputed.complete);
    EXPECT_EQ(recomputed.rowsFromJournal, 0u);
    std::remove(journal.c_str());
}

// ---------------------------------------------------------------------
// (d) journal gating on programVersion and fault-plan digests
// ---------------------------------------------------------------------

TEST(ShapeSweep, ProgramVersionGatesJournalReuse)
{
    Program p = perturbedProgram(6);
    Topology topo = Topology::linearArray(6);
    std::vector<ShapeSpec> shapes(2);
    shapes[0].name = "q=1";
    shapes[0].queuesPerLink = 1;
    shapes[1].name = "q=2";
    shapes[1].queuesPerLink = 2;
    std::vector<RunRequest> requests(2);
    requests[1].policy = PolicyKind::kFcfs;

    const std::string journal = tempPath("shape_sweep_progver.journal");
    std::remove(journal.c_str());
    ShapeSweepOptions v1;
    v1.numWorkers = 1;
    v1.journalPath = journal;
    v1.programVersion = "ops-v1";
    {
        ShapeSweep sweep(p, topo, shapes, v1);
        ShapeSweepResult result = sweep.run(requests);
        ASSERT_TRUE(result.complete);
        EXPECT_EQ(result.rowsFromJournal, 0u);
    }
    {
        // The same declared version replays everything.
        ShapeSweep sweep(p, topo, shapes, v1);
        ShapeSweepResult result = sweep.run(requests);
        ASSERT_TRUE(result.complete);
        EXPECT_EQ(result.rowsFromJournal,
                  shapes.size() * requests.size());
    }
    {
        // A bumped version (the op bodies allegedly changed) must
        // refuse the stale journal and recompute from scratch.
        ShapeSweepOptions v2 = v1;
        v2.programVersion = "ops-v2";
        ShapeSweep sweep(p, topo, shapes, v2);
        ShapeSweepResult result = sweep.run(requests);
        ASSERT_TRUE(result.complete);
        EXPECT_EQ(result.rowsFromJournal, 0u);
    }
    std::remove(journal.c_str());
}

TEST(ShapeSweep, ConfigDigestOfAFixedSweepIsPinned)
{
    // The config digest decides whether a journal resumes, so this
    // fixed sweep must digest as it always has: a change to how any
    // field is hashed, or a retired field hashed as anything but the
    // value every journal held, would restart every existing journal.
    Program p(3);
    const MessageId a = p.declareMessage("A", 0, 2);
    const MessageId b = p.declareMessage("B", 2, 0);
    p.write(0, a);
    p.write(0, a);
    p.read(0, b);
    p.read(2, a);
    p.write(2, b);
    p.read(2, a);
    std::vector<ShapeSpec> shapes(2);
    shapes[0].name = "q=1";
    shapes[0].queuesPerLink = 1;
    shapes[1].name = "q=2/cap=2";
    shapes[1].queueCapacity = 2;
    std::vector<RunRequest> requests(3);
    requests[1].policy = PolicyKind::kFcfs;
    requests[2].labels = {2, 1};

    const std::string journal = tempPath("shape_sweep_pinned.journal");
    std::remove(journal.c_str());
    ShapeSweepOptions options;
    options.numWorkers = 1;
    options.journalPath = journal;
    options.programVersion = "pinned";
    ShapeSweep sweep(p, Topology::linearArray(3), shapes, options);
    ASSERT_TRUE(sweep.run(requests).complete);
    sim::SweepJournalInfo info;
    ASSERT_TRUE(sim::inspectSweepJournal(journal, info));
    EXPECT_EQ(info.configDigest, 0x3bcc8e2a7e9fd9f3ull);
    std::remove(journal.c_str());
}

/** Two opposed lock-step streams spanning a linear array (each cell
 *  alternates write/read, so buffering needs stay bounded): killing a
 *  middle link is guaranteed to freeze both. */
Program
opposedStreams()
{
    Program p(6);
    MessageId a = p.declareMessage("A", 0, 5);
    MessageId b = p.declareMessage("B", 5, 0);
    for (int w = 0; w < 20; ++w) {
        p.write(0, a);
        p.read(0, b);
        p.write(5, b);
        p.read(5, a);
    }
    return p;
}

TEST(ShapeSweep, FaultAxisKillAndResumeReproducesUninterruptedSweep)
{
    Program p = opposedStreams();
    Topology topo = Topology::linearArray(6);
    std::vector<ShapeSpec> shapes(1);
    shapes[0].name = "q=2";
    shapes[0].queuesPerLink = 2;

    // The fault-plan request axis: healthy, transient, degraded, and
    // fatally killed rows in one sweep. Plans must outlive the sweep.
    const LinkIndex middle = *topo.linkBetween(2, 3);
    std::vector<sim::FaultPlan> plans(3);
    {
        sim::FaultEvent stall;
        stall.cycle = 5;
        stall.kind = sim::FaultKind::kStallLink;
        stall.link = middle;
        stall.arg = 10;
        plans[0].add(stall);
        sim::FaultEvent degrade;
        degrade.cycle = 3;
        degrade.kind = sim::FaultKind::kDegradeQueue;
        degrade.link = middle;
        degrade.queue = 0;
        degrade.arg = 1;
        plans[1].add(degrade);
        sim::FaultEvent kill;
        kill.cycle = 8;
        kill.kind = sim::FaultKind::kKillLink;
        kill.link = middle;
        plans[2].add(kill);
    }
    std::vector<RunRequest> requests(4);
    for (std::size_t i = 0; i < plans.size(); ++i)
        requests[i + 1].faults = &plans[i];

    ShapeSweepOptions plain;
    plain.numWorkers = 1;
    ShapeSweep goldenSweep(p, topo, shapes, plain);
    ShapeSweepResult golden = goldenSweep.run(requests);
    ASSERT_TRUE(golden.complete);
    EXPECT_EQ(golden.row(0, 0).result.status, RunStatus::kCompleted);
    EXPECT_EQ(golden.row(0, 1).result.status, RunStatus::kCompleted);
    EXPECT_EQ(golden.row(0, 2).result.status, RunStatus::kCompleted);
    EXPECT_EQ(golden.row(0, 3).result.status, RunStatus::kFaulted);

    // Crash-resume over the faulted axis: mid-run checkpoints land
    // inside fault schedules, and resumed rows must reproduce the
    // uninterrupted sweep bit-identically.
    const std::string journal = tempPath("shape_sweep_fault.journal");
    std::remove(journal.c_str());
    ShapeSweepOptions crashy = plain;
    crashy.journalPath = journal;
    crashy.checkpointEvery = 6;
    crashy.stopAfterJournalRecords = 1;
    std::size_t replayed = 0;
    std::size_t restored = 0;
    ShapeSweepResult resumed = runWithCrashes(
        p, topo, shapes, requests, crashy, 200, &replayed, &restored);
    ASSERT_EQ(resumed.rows.size(), golden.rows.size());
    EXPECT_GT(replayed, 0u);
    EXPECT_GT(restored, 0u);
    for (std::size_t i = 0; i < golden.rows.size(); ++i) {
        expectSameRunResult(resumed.rows[i].result,
                            golden.rows[i].result,
                            "fault row " + std::to_string(i));
        EXPECT_EQ(resumed.rows[i].machineDigest,
                  golden.rows[i].machineDigest);
    }

    // Editing one plan invalidates the journal: the config digest
    // folds every request's plan digest.
    sim::FaultEvent extra;
    extra.cycle = 9;
    extra.kind = sim::FaultKind::kStallLink;
    extra.link = middle;
    extra.arg = 2;
    plans[2].add(extra);
    ShapeSweepOptions journaled = plain;
    journaled.journalPath = journal;
    ShapeSweep edited(p, topo, shapes, journaled);
    ShapeSweepResult recomputed = edited.run(requests);
    ASSERT_TRUE(recomputed.complete);
    EXPECT_EQ(recomputed.rowsFromJournal, 0u);
    std::remove(journal.c_str());
}

// ---------------------------------------------------------------------
// (e) cell-granular scheduler: bit-identity on a skewed ladder,
//     session-pool bounds, crash-resume mid-steal, worker sizing
// ---------------------------------------------------------------------

/**
 * Disjoint writer->reader burst pairs on a linear array: transfer
 * only (journal-coverable) and shape-sensitive — with capacity 1 +
 * extension >= words, every buffered word pays the extension penalty
 * when it surfaces, so the run stretches to ~words * penalty cycles,
 * while a capacity >= words shape finishes in ~2 * words.
 */
Program
burstPairs(int pairs, int words)
{
    Program p(2 * pairs);
    for (int i = 0; i < pairs; ++i) {
        const CellId from = static_cast<CellId>(2 * i);
        const CellId to = static_cast<CellId>(2 * i + 1);
        const MessageId id =
            p.declareMessage("B" + std::to_string(i), from, to);
        for (int w = 0; w < words; ++w)
            p.write(from, id);
        for (int w = 0; w < words; ++w)
            p.read(to, id);
    }
    return p;
}

/** One giant rung (extension-penalty bound) + @p tiny fast ones: the
 *  ladder shape that inverted the old whole-shape scaling curve. */
std::vector<ShapeSpec>
skewedLadder(int words, int penalty, int tiny)
{
    std::vector<ShapeSpec> shapes;
    ShapeSpec giant;
    giant.name = "giant";
    giant.queueCapacity = 1;
    giant.extensionCapacity = words;
    giant.extensionPenalty = penalty;
    shapes.push_back(std::move(giant));
    for (int k = 0; k < tiny; ++k) {
        ShapeSpec shape;
        shape.name = "tiny-" + std::to_string(k);
        shape.queueCapacity = words + k;
        shapes.push_back(std::move(shape));
    }
    return shapes;
}

void
expectSameRows(const ShapeSweepResult& got,
               const ShapeSweepResult& want, const std::string& what)
{
    ASSERT_EQ(got.rows.size(), want.rows.size()) << what;
    for (std::size_t i = 0; i < want.rows.size(); ++i) {
        expectSameRunResult(got.rows[i].result, want.rows[i].result,
                            what + " row " + std::to_string(i));
        EXPECT_EQ(got.rows[i].machineDigest,
                  want.rows[i].machineDigest)
            << what << " row " << i;
    }
}

/**
 * @p n random-policy requests with distinct seeds: no two cells of a
 * sweep over them are equivalent, so every cell is simulated and the
 * scheduler really has @p n busy cells per rung. (On burstPairs each
 * link carries one message, so the policy choice cannot change a
 * run — only make it distinct.)
 */
std::vector<RunRequest>
distinctRequests(std::size_t n)
{
    std::vector<RunRequest> requests(n);
    for (std::size_t r = 0; r < n; ++r) {
        requests[r].policy = PolicyKind::kRandom;
        requests[r].seed = 1 + r;
    }
    return requests;
}

TEST(ShapeSweep, SkewedLadderBitIdenticalAcrossSchedulers)
{
    // One 2k-cycle rung + fifteen ~64-cycle rungs: the miniature of
    // the bench's 64k/256 skew, small enough for a unit test.
    Program p = burstPairs(2, 32);
    Topology topo = Topology::linearArray(4);
    std::vector<ShapeSpec> shapes = skewedLadder(32, 64, 15);

    std::vector<RunRequest> requests = distinctRequests(4);
    requests[3].policy = PolicyKind::kFcfs;

    ShapeSweepOptions serial;
    serial.numWorkers = 1;
    ShapeSweep serialSweep(p, topo, shapes, serial);
    ShapeSweepResult golden = serialSweep.run(requests);
    ASSERT_TRUE(golden.complete);
    EXPECT_EQ(golden.rowsShared, 0u);
    // The skew is real: the giant rung runs ~words*penalty cycles.
    EXPECT_GT(golden.row(0, 0).result.cycles, 1000);
    EXPECT_LT(golden.row(1, 0).result.cycles, 200);

    ShapeSweepOptions cells;
    cells.numWorkers = 4;
    ShapeSweep cellSweep(p, topo, shapes, cells);
    ShapeSweepResult cellResult = cellSweep.run(requests);
    ASSERT_TRUE(cellResult.complete);
    EXPECT_EQ(cellResult.rowsShared, 0u);
    expectSameRows(cellResult, golden, "cell-granular");
}

/**
 * Holds each run at its first queue assignment until @p peers runs
 * sharing the gate have reached theirs. A wait that outlasts the
 * timeout marks the gate broken and releases every later run, so a
 * serialized sweep fails in one timeout, not one per run.
 */
struct StartGate
{
    explicit StartGate(int peers) : peers(peers) {}

    const int peers;
    std::mutex mutex;
    std::condition_variable cv;
    int started = 0;
    bool broken = false;
    /** How many runs had started when the gate broke. */
    int startedWhenBroken = 0;
};

class WaitForPeers : public sim::RunObserver
{
  public:
    explicit WaitForPeers(StartGate& gate) : gate_(gate) {}

    void onAssign(const sim::AssignmentEvent&) override
    {
        if (arrived_)
            return;
        arrived_ = true;
        std::unique_lock<std::mutex> lock(gate_.mutex);
        ++gate_.started;
        gate_.cv.notify_all();
        if (!gate_.cv.wait_for(lock, std::chrono::seconds(60), [&] {
                return gate_.started >= gate_.peers || gate_.broken;
            })) {
            gate_.broken = true;
            gate_.startedWhenBroken = gate_.started;
            gate_.cv.notify_all();
        }
    }

  private:
    StartGate& gate_;
    bool arrived_ = false;
};

TEST(ShapeSweep, FourWorkersRunFourCellsOfOneRungAtOnce)
{
    // Whole-shape dispatch gave a rung's cells to one worker in turn,
    // which inverted the skewed-ladder scaling curve. Here each of a
    // single rung's four runs waits at its first queue assignment
    // until all four have started, so the gate holds only if four
    // workers run cells of the one rung at the same time. Nothing is
    // timed: the verdict does not depend on host load.
    Program p = burstPairs(2, 8);
    Topology topo = Topology::linearArray(4);
    ShapeSpec rung;
    rung.name = "one-rung";
    rung.queueCapacity = 8;

    constexpr int kCells = 4;
    StartGate gate(kCells);
    std::vector<std::unique_ptr<WaitForPeers>> observers;
    std::vector<RunRequest> requests = distinctRequests(kCells);
    for (RunRequest& request : requests) {
        observers.push_back(std::make_unique<WaitForPeers>(gate));
        request.observer = observers.back().get();
    }

    ShapeSweepOptions options;
    options.numWorkers = kCells;
    ShapeSweep sweep(p, topo, {rung}, options);
    ShapeSweepResult result = sweep.run(requests);
    ASSERT_TRUE(result.complete);
    EXPECT_EQ(result.workersUsed, kCells);
    EXPECT_EQ(result.rowsShared, 0u);
    EXPECT_FALSE(gate.broken)
        << "only " << gate.startedWhenBroken << " of " << kCells
        << " cells had started when one gave up waiting";
    EXPECT_EQ(gate.started, kCells);
    for (const auto& row : result.rows)
        EXPECT_EQ(row.result.status, RunStatus::kCompleted);
}

TEST(ShapeSweep, CrashResumeMidStealReproducesMultiWorkerSweep)
{
    // The new failure surface: a crash while several workers hold
    // cells of the *same* shape. Kill every few records at 4 workers
    // and resume until done; the final grid must equal an
    // uninterrupted serial sweep bit-for-bit.
    Program p = burstPairs(2, 24);
    Topology topo = Topology::linearArray(4);
    std::vector<ShapeSpec> shapes = skewedLadder(24, 32, 5);
    const std::vector<RunRequest> requests = distinctRequests(4);

    ShapeSweepOptions plain;
    plain.numWorkers = 1;
    ShapeSweep goldenSweep(p, topo, shapes, plain);
    ShapeSweepResult golden = goldenSweep.run(requests);
    ASSERT_TRUE(golden.complete);

    const std::string journal =
        tempPath("shape_sweep_mid_steal.journal");
    std::remove(journal.c_str());
    ShapeSweepOptions crashy;
    crashy.numWorkers = 4;
    crashy.journalPath = journal;
    crashy.checkpointEvery = 100;
    crashy.stopAfterJournalRecords = 3;
    std::size_t replayed = 0;
    std::size_t restored = 0;
    ShapeSweepResult resumed = runWithCrashes(
        p, topo, shapes, requests, crashy, 200, &replayed, &restored);
    EXPECT_GT(replayed, 0u);
    EXPECT_GT(restored, 0u);
    EXPECT_EQ(resumed.rowsShared, 0u);
    expectSameRows(resumed, golden, "mid-steal resume");
    std::remove(journal.c_str());
}

TEST(ShapeSweep, SingleWorkerSweepStaysInline)
{
    // The batch.h promise: one worker means no pool threads at all.
    Program p = burstPairs(1, 8);
    Topology topo = Topology::linearArray(2);
    std::vector<ShapeSpec> shapes = skewedLadder(8, 4, 2);
    std::vector<RunRequest> requests(2);
    requests[1].seed = 2;

    ShapeSweepOptions options;
    options.numWorkers = 1;
    ShapeSweep sweep(p, topo, shapes, options);
    ShapeSweepResult result = sweep.run(requests);
    ASSERT_TRUE(result.complete);
    EXPECT_EQ(result.workersUsed, 1);
    EXPECT_EQ(sweep.pooledWorkers(), 0);
}

TEST(ShapeSweep, HeldSessionsAreBoundedByWorkers)
{
#if !defined(__GLIBC__) || defined(SYSCOMM_TEST_MALLOC_REPLACED)
    GTEST_SKIP() << "needs glibc's own malloc (mallinfo2)";
#else
    // Bytes glibc's malloc has handed out and not had back.
    auto heapInUse = [] {
        const struct mallinfo2 info = mallinfo2();
        return static_cast<long long>(info.uordblks + info.hblkhd);
    };
    // A 16-rung ladder over a 1,024-cell mesh, run twice by one
    // sweep. Whatever the sweep then holds beyond the rows it
    // returned must fit in one session per worker; a session kept per
    // rung would be up to 16 per worker.
    const Topology mesh = Topology::mesh(32, 32);
    GenOptions gen;
    gen.numMessages = 64;
    gen.seed = 29;
    const Program program = randomDeadlockFreeProgram(mesh, gen);
    const auto compiled = CompiledProgram::compile(program, mesh);
    const std::vector<ShapeSpec> shapes = ladder16();
    const std::vector<RunRequest> requests = distinctRequests(4);

    // One session's worth: the largest rung's session after a run.
    long long sessionBytes = 0;
    for (const ShapeSpec& shape : shapes) {
        MachineSpec spec = specFor(mesh, shape);
        spec.topo = compiled->sharedTopo();
        (void)SimSession(compiled, spec).run(requests[0]); // warm-up
        const long long before = heapInUse();
        SimSession session(compiled, spec);
        (void)session.run(requests[0]);
        sessionBytes = std::max(sessionBytes, heapInUse() - before);
    }
    ASSERT_GT(sessionBytes, 1024 * 1024);

    for (int workers : {1, 4}) {
        ShapeSweepOptions options;
        options.numWorkers = workers;
        std::vector<ShapeSweepResult> results;
        results.reserve(2);
        const long long before = heapInUse();
        auto sweep = std::make_unique<ShapeSweep>(compiled, shapes, options);
        for (int pass = 0; pass < 2; ++pass) {
            results.push_back(sweep->run(requests));
            ASSERT_TRUE(results.back().complete);
            EXPECT_EQ(results.back().workersUsed, workers);
        }
        const long long held = heapInUse() - before;
        sweep.reset();
        const long long rows = heapInUse() - before;
        std::printf("%d workers: the sweep holds %lld bytes beyond %lld "
                    "of rows; one session is %lld bytes\n",
                    workers, held - rows, rows, sessionBytes);
        // A quarter session of slack for allocator noise.
        EXPECT_LE(held - rows, (workers * 4 + 1) * sessionBytes / 4)
            << workers << " workers";
    }
#endif
}

TEST(WorkerSizing, ClampWorkersNeverReturnsZero)
{
    // hardware_concurrency() may return 0 ("not computable"); the
    // shared sizing policy must degrade to serial, never to zero.
    EXPECT_GE(sim::clampWorkers(0, 5), 1);
    EXPECT_GE(sim::clampWorkers(-3, 5), 1);
    EXPECT_EQ(sim::clampWorkers(8, 3), 3);
    EXPECT_EQ(sim::clampWorkers(8, 0), 1);
    EXPECT_EQ(sim::clampWorkers(0, 0), 1);
    EXPECT_EQ(sim::clampWorkers(2, 100), 2);
}

// ---------------------------------------------------------------------
// (f) multi-process sharding: shard journals, resume gating, merge
// ---------------------------------------------------------------------

TEST(ShapeSweep, FourWayShardMergeMatchesUnshardedSweep)
{
    Program p = perturbedProgram(2);
    Topology topo = Topology::linearArray(6);
    // A repeated first rung and a second compatible seed make cells
    // the sweep shares; 17 rungs put shard boundaries inside classes.
    std::vector<ShapeSpec> shapes = ladder16();
    shapes.push_back(shapes[0]);
    shapes.back().name += " again";
    std::vector<RunRequest> requests(4);
    requests[1].policy = PolicyKind::kFcfs;
    requests[2].policy = PolicyKind::kRandom;
    requests[2].seed = 9;
    requests[3].seed = 2;

    ShapeSweepOptions plain;
    plain.numWorkers = 2;
    ShapeSweep goldenSweep(p, topo, shapes, plain);
    ShapeSweepResult golden = goldenSweep.run(requests);
    ASSERT_TRUE(golden.complete);
    EXPECT_FALSE(golden.sharded);
    // 17 rungs x the seed-2 copy, plus the repeated rung's other 3.
    EXPECT_EQ(golden.rowsShared, 20u);

    // Split the 68-cell grid across 4 "processes", one journal each.
    // Sharing never crosses a shard boundary: a shard shares only
    // the classes wholly inside its 17 cells.
    const std::size_t cellsTotal = shapes.size() * requests.size();
    const std::size_t sharedPerShard[4] = {4, 3, 3, 4};
    std::vector<std::string> journals;
    for (int shard = 0; shard < 4; ++shard) {
        const std::string path = tempPath(
            "shape_sweep_shard_" + std::to_string(shard) + ".journal");
        std::remove(path.c_str());
        journals.push_back(path);

        ShapeSweepOptions options;
        options.numWorkers = 2;
        options.journalPath = path;
        options.checkpointEvery = 50;
        options.shardBegin = cellsTotal * shard / 4;
        options.shardEnd = cellsTotal * (shard + 1) / 4;
        ShapeSweep sweep(p, topo, shapes, options);
        ShapeSweepResult result = sweep.run(requests);
        ASSERT_TRUE(result.complete) << "shard " << shard;
        EXPECT_EQ(result.rowsShared, sharedPerShard[shard])
            << "shard " << shard;
        EXPECT_TRUE(result.sharded);
        EXPECT_EQ(result.shardBegin, options.shardBegin);
        EXPECT_EQ(result.shardEnd, options.shardEnd);
        // In-shard cells ran; out-of-shard cells were not touched.
        for (std::size_t idx = 0; idx < cellsTotal; ++idx) {
            EXPECT_EQ(result.rows[idx].finished,
                      idx >= options.shardBegin &&
                          idx < options.shardEnd)
                << "shard " << shard << " cell " << idx;
        }

        // The shard journal reports itself, a row record per cell.
        sim::SweepJournalInfo info;
        ASSERT_TRUE(sim::inspectSweepJournal(path, info));
        EXPECT_TRUE(info.sharded);
        EXPECT_EQ(info.numShapes, shapes.size());
        EXPECT_EQ(info.numRequests, requests.size());
        EXPECT_EQ(info.shardBegin, options.shardBegin);
        EXPECT_EQ(info.shardEnd, options.shardEnd);
        EXPECT_EQ(info.rowsDone,
                  options.shardEnd - options.shardBegin);

        // Resuming the same shard replays everything.
        ShapeSweep resumeSweep(p, topo, shapes, options);
        ShapeSweepResult resumed = resumeSweep.run(requests);
        ASSERT_TRUE(resumed.complete);
        EXPECT_EQ(resumed.rowsFromJournal,
                  options.shardEnd - options.shardBegin);
        EXPECT_EQ(resumed.rowsShared, 0u);
    }

    sim::SweepMergeResult merged;
    std::string error;
    ASSERT_TRUE(sim::mergeSweepJournals(journals, merged, error))
        << error;
    EXPECT_TRUE(merged.complete);
    EXPECT_EQ(merged.numShapes, shapes.size());
    EXPECT_EQ(merged.numRequests, requests.size());
    EXPECT_EQ(merged.duplicateRows, 0u);
    ASSERT_EQ(merged.rows.size(), golden.rows.size());
    for (std::size_t i = 0; i < golden.rows.size(); ++i) {
        EXPECT_EQ(merged.rows[i].shape, golden.rows[i].shape);
        EXPECT_EQ(merged.rows[i].request, golden.rows[i].request);
        EXPECT_EQ(merged.rows[i].machineDigest,
                  golden.rows[i].machineDigest)
            << "merged row " << i;
        expectSameRunResult(merged.rows[i].result,
                            golden.rows[i].result,
                            "merged row " + std::to_string(i));
    }
    // The per-rung cross-check digests equal the same fold over the
    // unsharded rows.
    ASSERT_EQ(merged.shapeDigests.size(), shapes.size());
    for (std::size_t s = 0; s < shapes.size(); ++s) {
        std::uint64_t want = sim::kFnvOffsetBasis;
        for (std::size_t r = 0; r < requests.size(); ++r)
            want = sim::fnv(want, golden.row(s, r).machineDigest);
        EXPECT_EQ(merged.shapeDigests[s], want) << "shape " << s;
    }

    // Overlapping shards merge too — duplicates are cross-checked,
    // not dropped or doubled.
    std::vector<std::string> overlapping = journals;
    overlapping.push_back(journals[0]);
    sim::SweepMergeResult overlapMerged;
    ASSERT_TRUE(
        sim::mergeSweepJournals(overlapping, overlapMerged, error))
        << error;
    EXPECT_TRUE(overlapMerged.complete);
    EXPECT_EQ(overlapMerged.rows.size(), golden.rows.size());
    EXPECT_EQ(overlapMerged.duplicateRows, cellsTotal / 4);

    // Shard gating: an unsharded run on a shard journal restarts the
    // file instead of resuming it.
    ShapeSweepOptions unsharded;
    unsharded.numWorkers = 1;
    unsharded.journalPath = journals[3];
    ShapeSweep unshardedSweep(p, topo, shapes, unsharded);
    ShapeSweepResult unshardedResult = unshardedSweep.run(requests);
    ASSERT_TRUE(unshardedResult.complete);
    EXPECT_EQ(unshardedResult.rowsFromJournal, 0u);

    for (const std::string& path : journals)
        std::remove(path.c_str());
}

TEST(ShapeSweep, ShardResumeGatingRejectsForeignShards)
{
    Program p = burstPairs(2, 12);
    Topology topo = Topology::linearArray(4);
    std::vector<ShapeSpec> shapes = skewedLadder(12, 8, 3);
    const std::vector<RunRequest> requests = distinctRequests(4);
    const std::size_t cellsTotal = shapes.size() * requests.size();

    const std::string path = tempPath("shape_sweep_gating.journal");
    std::remove(path.c_str());

    // Run the first half as a shard.
    ShapeSweepOptions first;
    first.numWorkers = 2;
    first.journalPath = path;
    first.shardBegin = 0;
    first.shardEnd = cellsTotal / 2;
    {
        ShapeSweep sweep(p, topo, shapes, first);
        ASSERT_TRUE(sweep.run(requests).complete);
    }

    // A *different* shard range must restart the journal, not adopt
    // the other shard's rows.
    ShapeSweepOptions second = first;
    second.shardBegin = cellsTotal / 2;
    second.shardEnd = cellsTotal;
    {
        ShapeSweep sweep(p, topo, shapes, second);
        ShapeSweepResult result = sweep.run(requests);
        ASSERT_TRUE(result.complete);
        EXPECT_EQ(result.rowsFromJournal, 0u);
    }

    // And a sharded run must not resume an unsharded journal.
    ShapeSweepOptions unsharded;
    unsharded.numWorkers = 1;
    unsharded.journalPath = path;
    {
        ShapeSweep sweep(p, topo, shapes, unsharded);
        ShapeSweepResult result = sweep.run(requests);
        ASSERT_TRUE(result.complete);
        // (the file held shard 2's rows — an unsharded run restarts)
        EXPECT_EQ(result.rowsFromJournal, 0u);
    }
    {
        ShapeSweep sweep(p, topo, shapes, first);
        ShapeSweepResult result = sweep.run(requests);
        ASSERT_TRUE(result.complete);
        // The unsharded run rewrote the file; shard 1 restarts too.
        EXPECT_EQ(result.rowsFromJournal, 0u);
    }
    std::remove(path.c_str());
}

TEST(ShapeSweep, MergeRejectsMismatchedSweeps)
{
    Program p = burstPairs(1, 8);
    Topology topo = Topology::linearArray(2);
    std::vector<ShapeSpec> shapes = skewedLadder(8, 4, 1);
    std::vector<RunRequest> requests(2);
    requests[1].seed = 2;

    const std::string a = tempPath("merge_mismatch_a.journal");
    const std::string b = tempPath("merge_mismatch_b.journal");
    std::remove(a.c_str());
    std::remove(b.c_str());

    ShapeSweepOptions optionsA;
    optionsA.numWorkers = 1;
    optionsA.journalPath = a;
    {
        ShapeSweep sweep(p, topo, shapes, optionsA);
        ASSERT_TRUE(sweep.run(requests).complete);
    }
    // A different request batch => different config digest.
    ShapeSweepOptions optionsB = optionsA;
    optionsB.journalPath = b;
    std::vector<RunRequest> otherRequests(2);
    otherRequests[1].seed = 7;
    {
        ShapeSweep sweep(p, topo, shapes, optionsB);
        ASSERT_TRUE(sweep.run(otherRequests).complete);
    }

    sim::SweepMergeResult merged;
    std::string error;
    EXPECT_FALSE(sim::mergeSweepJournals({a, b}, merged, error));
    EXPECT_NE(error.find("config digest"), std::string::npos);

    EXPECT_FALSE(sim::mergeSweepJournals({}, merged, error));
    EXPECT_FALSE(
        sim::mergeSweepJournals({a, "/no/such/file"}, merged, error));

    std::remove(a.c_str());
    std::remove(b.c_str());
}

// ---------------------------------------------------------------------
// (g) cell sharing: each distinct cell simulates once, every row exact
// ---------------------------------------------------------------------

/** Counts assignments; sweep workers may call it concurrently. */
class CountingObserver : public sim::RunObserver
{
  public:
    void onAssign(const sim::AssignmentEvent&) override { ++assigns; }
    std::atomic<std::int64_t> assigns{0};
};

TEST(ShapeSweep, SharedRowsEqualDirectRunsOfTheirOwnCells)
{
    Program p = perturbedProgram(1);
    Topology topo = Topology::linearArray(6);
    // Four rungs, the third a renamed repeat of the first. Only the
    // four-queue rungs let fcfs and random finish.
    std::vector<ShapeSpec> shapes = {{"q4", 4, 1, 0, 4},
                                     {"q2", 2, 2, 0, 4},
                                     {"q4 again", 4, 1, 0, 4},
                                     {"q4x", 4, 2, 2, 3}};

    sim::FaultPlan stall;
    {
        sim::FaultEvent event;
        event.cycle = 3;
        event.kind = sim::FaultKind::kStallLink;
        event.link = *topo.linkBetween(2, 3);
        event.arg = 5;
        stall.add(event);
    }
    std::vector<std::int64_t> labels(p.numMessages());
    for (std::size_t m = 0; m < labels.size(); ++m)
        labels[m] = static_cast<std::int64_t>(labels.size() - m);
    CountingObserver observed[2];

    std::vector<RunRequest> requests;
    auto add = [&](PolicyKind policy, std::uint64_t seed) -> RunRequest& {
        RunRequest request;
        request.policy = policy;
        request.seed = seed;
        requests.push_back(request);
        return requests.back();
    };
    for (PolicyKind policy :
         {PolicyKind::kCompatible, PolicyKind::kCompatibleEager,
          PolicyKind::kFcfs, PolicyKind::kRandom}) {
        for (std::uint64_t seed : {1, 2, 3})
            add(policy, seed);
    }
    for (std::uint64_t seed : {1, 2})
        add(PolicyKind::kCompatible, seed).labels = labels;
    for (std::uint64_t seed : {1, 2})
        add(PolicyKind::kFcfs, seed).faults = &stall;
    for (std::uint64_t seed : {1, 2})
        add(PolicyKind::kFcfs, seed).maxCycles = 12;
    const std::size_t firstObserved = requests.size();
    for (CountingObserver& observer : observed)
        add(PolicyKind::kCompatible, 1).observer = &observer;
    // 18 unobserved requests in 9 classes (one per seed-blind
    // policy, three random seeds, labels, fault plan, short budget)
    // on 3 distinct machines, plus the 2 observed requests alone on
    // each of the 4 rungs: 35 of the 80 cells run, 45 are copies.
    const std::size_t wantShared = 80 - (9 * 3 + 2 * 4);

    // The third pass builds the sweep over a CompiledProgram compiled
    // beforehand, as the daemon's cache hands one over.
    for (int pass = 0; pass < 3; ++pass) {
        const int workers = pass == 0 ? 1 : 4;
        const std::string what = std::to_string(workers) + " worker(s)" +
                                 (pass == 2 ? ", compiled" : "");
        for (CountingObserver& observer : observed)
            observer.assigns = 0;
        ShapeSweepOptions options;
        options.numWorkers = workers;
        std::unique_ptr<ShapeSweep> sweep =
            pass < 2 ? std::make_unique<ShapeSweep>(p, topo, shapes, options)
                     : std::make_unique<ShapeSweep>(
                           CompiledProgram::compile(p, topo), shapes,
                           options);
        ShapeSweepResult result = sweep->run(requests);
        ASSERT_TRUE(result.complete) << what;
        EXPECT_EQ(result.rowsShared, wantShared) << what;
        EXPECT_NE(result.str(shapes).find("(shared: 45 rows)"),
                  std::string::npos)
            << result.str(shapes);

        std::int64_t wantAssigns[2] = {0, 0};
        bool seen[sim::kNumRunStatuses] = {};
        for (std::size_t s = 0; s < shapes.size(); ++s) {
            MachineSpec spec = specFor(topo, shapes[s]);
            SimSession direct(p, spec, options.session);
            for (std::size_t r = 0; r < requests.size(); ++r) {
                RunRequest request = requests[r];
                CountingObserver mirror;
                if (request.observer != nullptr)
                    request.observer = &mirror;
                const RunResult want = direct.run(request);
                const std::string ctx = what + " shape " + shapes[s].name +
                                        " request " + std::to_string(r);
                expectSameRunResult(result.row(s, r).result, want, ctx);
                EXPECT_EQ(result.row(s, r).machineDigest,
                          direct.machineDigest())
                    << ctx;
                EXPECT_FALSE(result.row(s, r).fromJournal) << ctx;
                if (r >= firstObserved)
                    wantAssigns[r - firstObserved] += mirror.assigns;
                seen[static_cast<int>(want.status)] = true;
            }
        }
        // An observed request never shares: its observer saw every
        // callback of its own runs, on every rung.
        EXPECT_GT(wantAssigns[0], 0);
        for (int k = 0; k < 2; ++k)
            EXPECT_EQ(observed[k].assigns.load(), wantAssigns[k]) << what;
        // The grid must reach these outcomes or it proves less than
        // it claims.
        EXPECT_TRUE(seen[static_cast<int>(RunStatus::kCompleted)]);
        EXPECT_TRUE(seen[static_cast<int>(RunStatus::kDeadlocked)]);
        EXPECT_TRUE(seen[static_cast<int>(RunStatus::kMaxCycles)]);
    }
}

TEST(ShapeSweep, KillBetweenSharedRowRecordsResumesWithoutSimulating)
{
    Program p = longRunProgram();
    Topology topo = Topology::linearArray(4);
    std::vector<ShapeSpec> shapes(1);
    shapes[0].name = "q=2";
    // One class: the compatible policy never reads the seed.
    std::vector<RunRequest> requests(4);
    for (std::size_t r = 0; r < requests.size(); ++r)
        requests[r].seed = 1 + r;

    ShapeSweepOptions plain;
    plain.numWorkers = 1;
    ShapeSweep goldenSweep(p, topo, shapes, plain);
    ShapeSweepResult golden = goldenSweep.run(requests);
    ASSERT_TRUE(golden.complete);
    EXPECT_EQ(golden.rowsShared, 3u);

    const std::string journal = tempPath("shape_sweep_shared_kill.journal");
    std::remove(journal.c_str());
    ShapeSweepOptions journaled = plain;
    journaled.journalPath = journal;
    {
        // The simulated row's record exhausts the budget: the "kill"
        // lands before any copy is journaled.
        ShapeSweepOptions crashy = journaled;
        crashy.stopAfterJournalRecords = 1;
        ShapeSweep sweep(p, topo, shapes, crashy);
        ShapeSweepResult partial = sweep.run(requests);
        EXPECT_FALSE(partial.complete);
        EXPECT_TRUE(partial.row(0, 0).finished);
        EXPECT_EQ(partial.rowsShared, 0u);
        sim::SweepJournalInfo info;
        ASSERT_TRUE(sim::inspectSweepJournal(journal, info));
        EXPECT_EQ(info.rowsDone, 1u);
    }

    // The resume replays one row and copies it into the other three:
    // nothing is simulated.
    ShapeSweep sweep(p, topo, shapes, journaled);
    ShapeSweepResult resumed = sweep.run(requests);
    ASSERT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.rowsFromJournal, 1u);
    EXPECT_EQ(resumed.rowsShared, 3u);
    EXPECT_EQ(resumed.checkpointsRestored, 0u);
    for (std::size_t r = 0; r < requests.size(); ++r)
        EXPECT_EQ(resumed.row(0, r).fromJournal, r == 0) << r;
    expectSameRows(resumed, golden, "copied on resume");

    // Each copy was journaled as its own cell's row.
    sim::SweepJournalInfo info;
    ASSERT_TRUE(sim::inspectSweepJournal(journal, info));
    EXPECT_EQ(info.rowsDone, requests.size());
    ShapeSweep replay(p, topo, shapes, journaled);
    ShapeSweepResult replayed = replay.run(requests);
    EXPECT_EQ(replayed.rowsFromJournal, requests.size());
    EXPECT_EQ(replayed.rowsShared, 0u);
    expectSameRows(replayed, golden, "replayed");
    std::remove(journal.c_str());
}

TEST(ShapeSweep, ResumeContinuesTheCheckpointedMemberOfAClass)
{
    // A journal written by a scheduler that simulated every cell can
    // hold a checkpoint for any member of a class. The resume must
    // continue that member from its checkpoint and copy it, rather
    // than restart the class from its first member.
    Program p = longRunProgram();
    Topology topo = Topology::linearArray(4);
    std::vector<ShapeSpec> shapes(1);
    shapes[0].name = "q=2";
    std::vector<RunRequest> requests(2);
    requests[1].seed = 2;

    ShapeSweepOptions plain;
    plain.numWorkers = 1;
    ShapeSweep goldenSweep(p, topo, shapes, plain);
    ShapeSweepResult golden = goldenSweep.run(requests);
    ASSERT_TRUE(golden.complete);

    const std::string journal = tempPath("shape_sweep_member_ckpt.journal");
    std::remove(journal.c_str());
    ShapeSweepOptions journaled = plain;
    journaled.journalPath = journal;
    journaled.checkpointEvery = 20;
    {
        ShapeSweepOptions crashy = journaled;
        crashy.stopAfterJournalRecords = 1;
        ShapeSweep sweep(p, topo, shapes, crashy);
        ASSERT_FALSE(sweep.run(requests).complete);
    }

    // The one record is cell (0, 0)'s checkpoint; re-address it to
    // cell (0, 1).
    std::vector<std::uint8_t> bytes = readFile(journal);
    const std::size_t at = 16;
    ASSERT_GT(bytes.size(), at + 42);
    ASSERT_EQ(bytes[at], 2); // checkpoint record
    ASSERT_EQ(bytes.size(), at + 14 + recordPayloadLength(bytes, at));
    ASSERT_EQ(bytes[at + 18], 0);
    bytes[at + 18] = 1;
    resealRecord(bytes, at);
    writeFile(journal, bytes);
    sim::SweepJournalInfo info;
    ASSERT_TRUE(sim::inspectSweepJournal(journal, info));
    ASSERT_EQ(info.inflight.size(), 1u);
    EXPECT_EQ(info.inflight[0].request, 1u);

    ShapeSweep sweep(p, topo, shapes, journaled);
    ShapeSweepResult resumed = sweep.run(requests);
    ASSERT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.checkpointsRestored, 1u);
    EXPECT_EQ(resumed.rowsShared, 1u);
    EXPECT_EQ(resumed.rowsFromJournal, 0u);
    expectSameRows(resumed, golden, "continued member");
    std::remove(journal.c_str());
}

TEST(ShapeSweep, RowsOfAnotherVersionReRunAndCheckpointsResume)
{
    // A journal whose row records carry version 1, as the build
    // before the id-based deadlock report wrote them. Those rows are
    // skipped: a resume simulates them again, continuing each from
    // its checkpoint (checkpoint records kept version 1), and a merge
    // counts them rather than dropping them without a word.
    Program p = perturbedProgram(4);
    Topology topo = Topology::linearArray(6);
    std::vector<ShapeSpec> shapes;
    for (int queues : {1, 2, 3, 4}) {
        ShapeSpec shape;
        shape.name = "q=" + std::to_string(queues);
        shape.queuesPerLink = queues;
        shapes.push_back(std::move(shape));
    }
    std::vector<RunRequest> requests(3);
    requests[1].policy = PolicyKind::kFcfs;
    requests[2].policy = PolicyKind::kRandom;
    requests[2].seed = 5;

    ShapeSweepOptions plain;
    plain.numWorkers = 1;
    ShapeSweep goldenSweep(p, topo, shapes, plain);
    ShapeSweepResult golden = goldenSweep.run(requests);
    ASSERT_TRUE(golden.complete);
    ASSERT_EQ(golden.rowsShared, 0u);
    std::size_t deadlocked = 0;
    for (const sim::ShapeSweepRow& row : golden.rows)
        deadlocked += row.result.deadlock.deadlocked ? 1 : 0;
    ASSERT_GT(deadlocked, 0u);

    const std::string journal = tempPath("shape_sweep_old_rows.journal");
    std::remove(journal.c_str());
    ShapeSweepOptions journaled = plain;
    journaled.journalPath = journal;
    journaled.checkpointEvery = 7;
    {
        ShapeSweep sweep(p, topo, shapes, journaled);
        ASSERT_TRUE(sweep.run(requests).complete);
    }

    std::vector<std::uint8_t> bytes = readFile(journal);
    std::size_t rows = 0;
    std::set<std::pair<std::uint8_t, std::uint8_t>> checkpointed;
    std::size_t at = 16;
    while (at < bytes.size()) {
        ASSERT_LE(at + 14, bytes.size());
        if (bytes[at] == 1) { // row record
            EXPECT_EQ(bytes[at + 1], 2);
            bytes[at + 1] = 1;
            resealRecord(bytes, at);
            ++rows;
        } else if (bytes[at] == 2) { // checkpoint record
            EXPECT_EQ(bytes[at + 1], 1);
            checkpointed.insert({bytes[at + 10], bytes[at + 18]});
        }
        at += 14 + recordPayloadLength(bytes, at);
    }
    ASSERT_EQ(at, bytes.size());
    ASSERT_EQ(rows, golden.rows.size());
    ASSERT_FALSE(checkpointed.empty());
    writeFile(journal, bytes);

    sim::SweepJournalInfo info;
    ASSERT_TRUE(sim::inspectSweepJournal(journal, info));
    EXPECT_EQ(info.rowsDone, 0u);
    EXPECT_EQ(info.inflight.size(), checkpointed.size());

    sim::SweepMergeResult merged;
    std::string error;
    ASSERT_TRUE(sim::mergeSweepJournals({journal}, merged, error))
        << error;
    EXPECT_TRUE(merged.rows.empty());
    EXPECT_EQ(merged.rowsOtherVersion, rows);
    EXPECT_FALSE(merged.complete);

    ShapeSweep sweep(p, topo, shapes, journaled);
    ShapeSweepResult resumed = sweep.run(requests);
    ASSERT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.rowsFromJournal, 0u);
    EXPECT_EQ(resumed.checkpointsRestored, checkpointed.size());
    expectSameRows(resumed, golden, "re-run old row");
    std::remove(journal.c_str());
}

} // namespace
} // namespace syscomm
