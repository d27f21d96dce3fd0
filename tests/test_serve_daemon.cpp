/**
 * @file
 * End-to-end syscommd tests over a live Unix socket: submissions walk
 * the status machine to the right terminal states, compile sharing is
 * observable (N concurrent identical submissions advance
 * CompiledProgram::buildCount() by exactly one), a full admission
 * queue rejects explicitly, cancel works on waiting and in-flight
 * submissions, and a drained daemon's spool resumes on a second
 * daemon with per-row machine digests bit-identical to an
 * uninterrupted reference. A terminal submission keeps only its
 * record (bounded heap, same answers before and after a restart), and
 * stats tallies every state. The multi-client suites run under TSan
 * in CI.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/program_gen.h"
#include "core/topology.h"
#include "serve/cache.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "sim/shape_sweep.h"
#include "text/parser.h"
#include "text/printer.h"

// ASan and TSan replace malloc, so glibc's heap counters see nothing.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SYSCOMM_TEST_MALLOC_REPLACED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SYSCOMM_TEST_MALLOC_REPLACED 1
#endif
#endif

namespace syscomm::serve {
namespace {

namespace fs = std::filesystem;

/** A fresh (removed) per-process directory path, so a repeated run
 *  never recovers an earlier repetition's spool. */
std::string
tempDir(const std::string& name)
{
    const std::string dir = testing::TempDir() + name + "_" +
                            std::to_string(::getpid());
    fs::remove_all(dir);
    return dir;
}

/**
 * Ring program with writes and reads interleaved word by word: long
 * running (cycles scale with @p words), deadlock-free at any shape —
 * the serving workhorse (same construction syscomm-cli's
 * gen-ring-sweep emits).
 */
std::string
ringText(int cells, int words)
{
    std::ostringstream out;
    out << "cells " << cells << "\n";
    for (int c = 0; c < cells; ++c)
        out << "message m" << c << " " << c << " -> "
            << (c + 1) % cells << "\n";
    for (int c = 0; c < cells; ++c) {
        out << "cell " << c << " {";
        for (int w = 0; w < words; ++w)
            out << " W(m" << c << ") R(m" << (c + cells - 1) % cells
                << ")";
        out << " }\n";
    }
    return out.str();
}

/**
 * Every cell writes all its words before reading any: with more words
 * than total queue space the ring fills and every cell blocks on a
 * write — a guaranteed deadlock for the kDeadlocked path.
 */
std::string
blockingRingText(int cells, int words)
{
    std::ostringstream out;
    out << "cells " << cells << "\n";
    for (int c = 0; c < cells; ++c)
        out << "message m" << c << " " << c << " -> "
            << (c + 1) % cells << "\n";
    for (int c = 0; c < cells; ++c) {
        out << "cell " << c << " {";
        for (int w = 0; w < words; ++w)
            out << " W(m" << c << ")";
        for (int w = 0; w < words; ++w)
            out << " R(m" << (c + cells - 1) % cells << ")";
        out << " }\n";
    }
    return out.str();
}

JsonValue
ringTopology(int cells)
{
    return JsonValue::object()
        .set("kind", JsonValue::str("ring"))
        .set("cells", JsonValue::integer(cells));
}

JsonValue
shapeJson(const std::string& name, int queues, int capacity,
          int extension)
{
    return JsonValue::object()
        .set("name", JsonValue::str(name))
        .set("queues", JsonValue::integer(queues))
        .set("capacity", JsonValue::integer(capacity))
        .set("extension", JsonValue::integer(extension))
        .set("penalty", JsonValue::integer(4));
}

/** A run body over @p program on a ring, one default-ish shape. */
JsonValue
runBody(const std::string& program, int cells)
{
    JsonValue body = JsonValue::object();
    body.set("kind", JsonValue::str("run"));
    body.set("program", JsonValue::str(program));
    body.set("topology", ringTopology(cells));
    body.set("shape", shapeJson("q2c2", 2, 2, 0));
    return body;
}

/**
 * A sweep body: @p numShapes ladder x seeds 1..@p seeds of @p policy.
 * The default, random, reads its seed, so every cell is simulated and
 * a long sweep really keeps a worker busy; under a seed-blind policy
 * the daemon simulates each rung once and shares the other seeds' rows.
 */
JsonValue
sweepBody(const std::string& program, int cells, int numShapes,
          int seeds, Cycle checkpointEvery,
          const std::string& policy = "random")
{
    JsonValue body = JsonValue::object();
    body.set("kind", JsonValue::str("sweep"));
    body.set("program", JsonValue::str(program));
    body.set("topology", ringTopology(cells));
    JsonValue shapes = JsonValue::array();
    for (int k = 0; k < numShapes; ++k)
        shapes.push(shapeJson("s" + std::to_string(k), 1 + k % 3,
                              1 + (k / 3) % 3, (k % 2) * 2));
    body.set("shapes", std::move(shapes));
    JsonValue requests = JsonValue::array();
    for (int r = 0; r < seeds; ++r)
        requests.push(JsonValue::object()
                          .set("policy", JsonValue::str(policy))
                          .set("seed", JsonValue::integer(1 + r)));
    body.set("requests", std::move(requests));
    body.set("checkpoint_every",
             JsonValue::integer(checkpointEvery));
    return body;
}

/** Submit @p body and wait for a terminal state; returns the id. */
std::string
submitAndWait(ServeClient& client, const JsonValue& body,
              JsonValue& statusResponse)
{
    std::string id;
    std::string error;
    JsonValue response;
    EXPECT_TRUE(client.submit(body, id, response, error)) << error;
    EXPECT_TRUE(response.getBool("ok", false))
        << writeJson(response);
    if (id.empty())
        return id;
    EXPECT_TRUE(client.waitTerminal(id, 60'000, statusResponse,
                                    error))
        << error;
    return id;
}

/** Fetch the terminal result body (the "result" member). */
JsonValue
fetchResult(ServeClient& client, const std::string& id)
{
    JsonValue response;
    std::string error;
    EXPECT_TRUE(client.result(id, response, error)) << error;
    EXPECT_TRUE(response.getBool("ok", false))
        << writeJson(response);
    const JsonValue* result = response.find("result");
    return result != nullptr ? *result : JsonValue();
}

/** Flatten a sweep result's rows to comparable key strings. */
std::vector<std::string>
rowKeys(const JsonValue& sweepResult)
{
    std::vector<std::string> keys;
    const JsonValue* rows = sweepResult.find("rows");
    if (rows == nullptr || !rows->isArray())
        return keys;
    for (const JsonValue& row : rows->items()) {
        keys.push_back(row.getString("name") + "/" +
                       std::to_string(row.getInt("request", -1)) +
                       ":" + row.getString("status") + ":" +
                       std::to_string(row.getInt("cycles", -1)) +
                       ":" + row.getString("machine_digest"));
    }
    return keys;
}

/** Every state's count in a stats response's "submissions" object. */
std::map<std::string, std::int64_t>
stateTally(const JsonValue& stats)
{
    std::map<std::string, std::int64_t> tally;
    const JsonValue* subs = stats.find("submissions");
    if (subs == nullptr)
        return tally;
    for (const JsonValue::Member& member : subs->members())
        tally[member.first] = member.second.asInt64();
    return tally;
}

/** A full tally: @p nonZero's states, zero for every other state. */
std::map<std::string, std::int64_t>
expectedTally(const std::map<std::string, std::int64_t>& nonZero)
{
    std::map<std::string, std::int64_t> tally;
    for (int i = 0; i < kNumSubmissionStates; ++i)
        tally[submissionStateName(static_cast<SubmissionState>(i))] = 0;
    for (const auto& [state, count] : nonZero)
        tally.at(state) = count;
    return tally;
}

struct DaemonHandle
{
    std::unique_ptr<SyscommDaemon> daemon;
    std::string socketPath;

    void start(DaemonOptions options)
    {
        socketPath = options.socketPath;
        daemon = std::make_unique<SyscommDaemon>(std::move(options));
        std::string error;
        ASSERT_TRUE(daemon->start(error)) << error;
    }

    void connect(ServeClient& client)
    {
        std::string error;
        ASSERT_TRUE(client.connectUnix(socketPath, error)) << error;
    }

    ~DaemonHandle()
    {
        if (daemon)
            daemon->stop();
    }
};

DaemonOptions
baseOptions(const std::string& tag)
{
    DaemonOptions options;
    options.socketPath = testing::TempDir() + "sc_" + tag + "_" +
                         std::to_string(::getpid()) + ".sock";
    options.workers = 2;
    return options;
}

// ---------------------------------------------------------------------
// Terminal states of single runs
// ---------------------------------------------------------------------

TEST(ServeDaemon, RunCompletesAndRerunsBitIdentically)
{
    DaemonHandle handle;
    handle.start(baseOptions("run"));
    ServeClient client;
    handle.connect(client);

    const JsonValue body = runBody(ringText(4, 50), 4);
    JsonValue status;
    const std::string id1 = submitAndWait(client, body, status);
    ASSERT_FALSE(id1.empty());
    EXPECT_EQ(status.getString("state"), "completed");

    JsonValue result1 = fetchResult(client, id1);
    EXPECT_EQ(result1.getString("status"), "completed");
    EXPECT_GT(result1.getInt("cycles", 0), 0);
    const std::string digest = result1.getString("machine_digest");
    ASSERT_EQ(digest.size(), 18u) << digest; // "0x" + 16 hex chars
    EXPECT_FALSE(result1.getBool("cached_compile", true));

    // Same submission again: the compile comes from the cache and
    // the run reproduces the digest bit-exactly.
    const std::string id2 = submitAndWait(client, body, status);
    JsonValue result2 = fetchResult(client, id2);
    EXPECT_TRUE(result2.getBool("cached_compile", false));
    EXPECT_EQ(result2.getString("machine_digest"), digest);
    EXPECT_EQ(result2.getInt("cycles", -1),
              result1.getInt("cycles", -2));
}

TEST(ServeDaemon, DeadlockedRunReportsDeadlocked)
{
    DaemonHandle handle;
    handle.start(baseOptions("dead"));
    ServeClient client;
    handle.connect(client);

    // 8 words into capacity-1 queues with no extension: wedges.
    JsonValue body = runBody(blockingRingText(3, 8), 3);
    body.set("shape", shapeJson("q1c1", 1, 1, 0));
    JsonValue status;
    const std::string id = submitAndWait(client, body, status);
    ASSERT_FALSE(id.empty());
    EXPECT_EQ(status.getString("state"), "deadlocked");
    JsonValue result = fetchResult(client, id);
    EXPECT_EQ(result.getString("status"), "deadlocked");
}

TEST(ServeDaemon, CycleBudgetParksTerminalAsBudgetExhausted)
{
    DaemonOptions options = baseOptions("budget");
    options.sliceCycles = 16; // several slices inside a small budget
    DaemonHandle handle;
    handle.start(options);
    ServeClient client;
    handle.connect(client);

    JsonValue body = runBody(ringText(4, 4000), 4);
    body.set("cycle_budget", JsonValue::integer(100));
    JsonValue status;
    const std::string id = submitAndWait(client, body, status);
    ASSERT_FALSE(id.empty());
    EXPECT_EQ(status.getString("state"), "budget-exhausted");
    JsonValue result = fetchResult(client, id);
    EXPECT_EQ(result.getString("status"), "budget-exhausted");
    EXPECT_EQ(result.getInt("cycle_budget", 0), 100);
    EXPECT_GE(result.getInt("cycles", 0), 100);
}

TEST(ServeDaemon, InvalidProgramFinishesAsError)
{
    DaemonHandle handle;
    handle.start(baseOptions("inval"));
    ServeClient client;
    handle.connect(client);

    // Parses fine but fails compile-time validation: message to a
    // cell the ring cannot route to itself.
    JsonValue body = runBody(
        "cells 3\nmessage a 0 -> 0\ncell 0 { W(a) R(a) }\n", 3);
    JsonValue status;
    const std::string id = submitAndWait(client, body, status);
    ASSERT_FALSE(id.empty());
    EXPECT_EQ(status.getString("state"), "error");
    JsonValue response;
    std::string error;
    ASSERT_TRUE(client.result(id, response, error)) << error;
    EXPECT_FALSE(
        response.find("result")->getString("error").empty());
}

TEST(ServeDaemon, CompileCacheHitIsTheSubmittedProgram)
{
    DaemonHandle handle;
    handle.start(baseOptions("samekey"));
    ServeClient client;
    handle.connect(client);

    // Two programs that differ only in an endpoint share a compile-
    // cache key. The first fails validation; the second is valid and
    // must run as itself, not be answered with the first one's error.
    auto linearBody = [](const std::string& program) {
        JsonValue body = runBody(program, 3);
        body.set("topology", JsonValue::object()
                                 .set("kind", JsonValue::str("linear"))
                                 .set("cells", JsonValue::integer(3)));
        return body;
    };
    JsonValue status;
    const std::string bad = submitAndWait(
        client,
        linearBody("cells 3\nmessage m 0 -> 2\n"
                   "cell 0 { W(m) }\ncell 1 { R(m) }\n"),
        status);
    ASSERT_FALSE(bad.empty());
    EXPECT_EQ(status.getString("state"), "error");

    const std::string good = submitAndWait(
        client,
        linearBody("cells 3\nmessage m 0 -> 1\n"
                   "cell 0 { W(m) }\ncell 1 { R(m) }\n"),
        status);
    ASSERT_FALSE(good.empty());
    EXPECT_EQ(status.getString("state"), "completed");
    const JsonValue result = fetchResult(client, good);
    EXPECT_EQ(result.getString("status"), "completed");
    EXPECT_EQ(result.find("error"), nullptr) << writeJson(result);
    EXPECT_FALSE(result.getBool("cached_compile", true));
}

TEST(ServeDaemon, ProgramVersionKeysTheCompileCache)
{
    DaemonHandle handle;
    handle.start(baseOptions("version"));
    ServeClient client;
    handle.connect(client);

    // One program text under versions a, a, b: the repeat hits the
    // cache, the new version compiles afresh.
    const std::int64_t before = sim::CompiledProgram::buildCount();
    std::vector<bool> cached;
    for (const char* version : {"a", "a", "b"}) {
        JsonValue body = runBody(ringText(4, 20), 4);
        body.set("program_version", JsonValue::str(version));
        JsonValue status;
        const std::string id = submitAndWait(client, body, status);
        ASSERT_FALSE(id.empty());
        EXPECT_EQ(status.getString("state"), "completed");
        const JsonValue result = fetchResult(client, id);
        ASSERT_NE(result.find("cached_compile"), nullptr)
            << writeJson(result);
        cached.push_back(result.getBool("cached_compile", false));
    }
    EXPECT_EQ(cached, (std::vector<bool>{false, true, false}));
    EXPECT_EQ(sim::CompiledProgram::buildCount() - before, 2);
}

// ---------------------------------------------------------------------
// Sweeps: daemon rows == direct ShapeSweep rows
// ---------------------------------------------------------------------

TEST(ServeDaemon, SweepMatchesDirectShapeSweepBitExactly)
{
    DaemonHandle handle;
    handle.start(baseOptions("sweep"));
    ServeClient client;
    handle.connect(client);

    const std::string program = ringText(4, 60);
    const JsonValue body = sweepBody(program, 4, 6, 2, 500, "compatible");
    JsonValue status;
    const std::string id = submitAndWait(client, body, status);
    ASSERT_FALSE(id.empty());
    EXPECT_EQ(status.getString("state"), "completed");
    const JsonValue result = fetchResult(client, id);
    const std::vector<std::string> served = rowKeys(result);
    ASSERT_EQ(served.size(), 12u);
    // Seed 2 of the seed-blind compatible policy copies seed 1 on
    // each of the 6 rungs.
    EXPECT_EQ(result.getInt("rows_shared", -1), 6);

    // The same grid run directly through ShapeSweep — through the
    // shared-compile ctor the daemon itself uses.
    text::ParseResult parsed = text::parseProgram(program);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    Submission sub;
    std::string error;
    JsonValue wire = body;
    wire.set("verb", JsonValue::str("submit"));
    ASSERT_TRUE(parseSubmission(wire, sub, error)) << error;

    auto compiled = sim::CompiledProgram::compile(
        parsed.program, SharedTopology(Topology::ring(4)));
    ASSERT_TRUE(compiled->valid()) << compiled->error();
    sim::ShapeSweepOptions sweepOptions;
    sweepOptions.numWorkers = 1;
    sim::ShapeSweep sweep(compiled, sub.shapes, sweepOptions);
    sim::ShapeSweepResult direct = sweep.run(sub.requests);
    ASSERT_TRUE(direct.complete);
    EXPECT_EQ(direct.rowsShared, 6u);
    ASSERT_EQ(direct.rows.size(), served.size());
    for (std::size_t i = 0; i < direct.rows.size(); ++i) {
        const sim::ShapeSweepRow& row = direct.rows[i];
        const std::string key =
            sub.shapes[row.shape].name + "/" +
            std::to_string(row.request) + ":" +
            row.result.statusStr() + ":" +
            std::to_string(row.result.cycles) + ":" +
            hexDigest(row.machineDigest);
        EXPECT_EQ(served[i], key) << "row " << i;
    }
}

// ---------------------------------------------------------------------
// Compile sharing across concurrent clients (TSan runs this)
// ---------------------------------------------------------------------

TEST(ServeDaemon, ConcurrentIdenticalSubmissionsCompileOnce)
{
    DaemonOptions options = baseOptions("share");
    options.workers = 4;
    DaemonHandle handle;
    handle.start(options);

    const JsonValue body = runBody(ringText(5, 40), 5);
    constexpr int kClients = 6;
    const std::int64_t before = sim::CompiledProgram::buildCount();

    std::atomic<int> completed{0};
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&] {
            ServeClient client;
            std::string error;
            ASSERT_TRUE(
                client.connectUnix(handle.socketPath, error))
                << error;
            JsonValue status;
            const std::string id =
                submitAndWait(client, body, status);
            ASSERT_FALSE(id.empty());
            EXPECT_EQ(status.getString("state"), "completed");
            completed.fetch_add(1);
        });
    }
    for (std::thread& t : threads)
        t.join();
    EXPECT_EQ(completed.load(), kClients);

    // The tentpole acceptance criterion: one build, period.
    EXPECT_EQ(sim::CompiledProgram::buildCount() - before, 1);

    ServeClient client;
    handle.connect(client);
    JsonValue stats;
    std::string error;
    ASSERT_TRUE(client.stats(stats, error)) << error;
    const JsonValue* cache = stats.find("cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->getInt("misses", -1), 1);
    EXPECT_EQ(cache->getInt("hits", -1), kClients - 1);
    EXPECT_EQ(stateTally(stats), expectedTally({{"completed", kClients}}));
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

TEST(ServeDaemon, FullQueueRejectsExplicitly)
{
    DaemonOptions options = baseOptions("queue");
    options.workers = 1;
    options.maxQueue = 2;
    DaemonHandle handle;
    handle.start(options);
    ServeClient client;
    handle.connect(client);

    // A long sweep pins the single worker; two more fill the queue;
    // the fourth must be rejected NOW, not blocked. The grid must
    // keep the worker busy for seconds even when a loaded parallel
    // test runner starves this thread between submits — a 16-cell
    // grid could finish mid-test and free a queue slot. Scale via
    // the seed axis, not words: a bigger program makes every filler
    // submit proportionally slower to transfer and parse, which
    // hands the worker *more* time per queue slot, not less.
    // Teardown cancels everything, so the extra length costs
    // nothing.
    const JsonValue big =
        sweepBody(ringText(6, 4000), 6, 8, 64, 500);
    std::string error;
    std::vector<std::string> admitted;
    {
        std::string id;
        JsonValue response;
        ASSERT_TRUE(client.submit(big, id, response, error))
            << error;
        ASSERT_TRUE(response.getBool("ok", false))
            << writeJson(response);
        admitted.push_back(id);
        // Wait until the worker picked it up so the next two really
        // land in the queue, not behind it.
        for (int i = 0; i < 2000; ++i) {
            ASSERT_TRUE(client.status(id, response, error)) << error;
            if (response.getString("state") != "waiting")
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
    }
    for (int i = 0; i < 2; ++i) {
        std::string id;
        JsonValue response;
        ASSERT_TRUE(client.submit(big, id, response, error))
            << error;
        ASSERT_TRUE(response.getBool("ok", false))
            << writeJson(response);
        admitted.push_back(id);
    }
    std::string id;
    JsonValue response;
    ASSERT_TRUE(client.submit(big, id, response, error)) << error;
    EXPECT_FALSE(response.getBool("ok", true));
    EXPECT_EQ(response.getString("rejected"), "queue_full");
    EXPECT_EQ(response.getString("state"), "rejected");
    EXPECT_TRUE(id.empty());

    JsonValue stats;
    ASSERT_TRUE(client.stats(stats, error)) << error;
    EXPECT_EQ(stats.find("queue")->getInt("rejected_queue_full", 0),
              1);

    // Unblock the teardown: cancel everything admitted.
    for (const std::string& sid : admitted)
        client.cancel(sid, response, error);
}

// ---------------------------------------------------------------------
// Cancel
// ---------------------------------------------------------------------

TEST(ServeDaemon, CancelWaitingAndInFlightSubmissions)
{
    DaemonOptions options = baseOptions("cancel");
    options.workers = 1;
    DaemonHandle handle;
    handle.start(options);
    ServeClient client;
    handle.connect(client);

    const JsonValue big = sweepBody(ringText(6, 4000), 6, 8, 2, 200);
    std::string idA;
    std::string idB;
    JsonValue response;
    std::string error;
    ASSERT_TRUE(client.submit(big, idA, response, error)) << error;
    ASSERT_TRUE(response.getBool("ok", false));
    ASSERT_TRUE(client.submit(big, idB, response, error)) << error;
    ASSERT_TRUE(response.getBool("ok", false));

    // B sits behind A on the single worker: cancelling it is
    // deterministic and immediate.
    ASSERT_TRUE(client.cancel(idB, response, error)) << error;
    EXPECT_TRUE(response.getBool("ok", false))
        << writeJson(response);
    ASSERT_TRUE(client.status(idB, response, error)) << error;
    EXPECT_EQ(response.getString("state"), "cancelled");

    // Cancelling a terminal submission is an explicit error.
    ASSERT_TRUE(client.cancel(idB, response, error)) << error;
    EXPECT_FALSE(response.getBool("ok", true));
    EXPECT_NE(response.getString("error").find("terminal"),
              std::string::npos);

    // A is (most likely) in flight; cancel asks it to stop at its
    // next checkpoint. Either way it must end cancelled-or-terminal
    // promptly rather than running the full sweep.
    ASSERT_TRUE(client.cancel(idA, response, error)) << error;
    JsonValue status;
    ASSERT_TRUE(client.waitTerminal(idA, 60'000, status, error))
        << error;
    const std::string state = status.getString("state");
    EXPECT_TRUE(state == "cancelled" || state == "completed")
        << state;
}

// ---------------------------------------------------------------------
// Result/status error paths
// ---------------------------------------------------------------------

TEST(ServeDaemon, ResultBeforeTerminalIsAnExplicitError)
{
    DaemonOptions options = baseOptions("early");
    options.workers = 1;
    DaemonHandle handle;
    handle.start(options);
    ServeClient client;
    handle.connect(client);

    const JsonValue big = sweepBody(ringText(6, 4000), 6, 6, 2, 200);
    std::string id;
    JsonValue response;
    std::string error;
    ASSERT_TRUE(client.submit(big, id, response, error)) << error;
    ASSERT_TRUE(response.getBool("ok", false));

    ASSERT_TRUE(client.result(id, response, error)) << error;
    EXPECT_FALSE(response.getBool("ok", true));
    EXPECT_NE(response.getString("error").find("not finished"),
              std::string::npos);
    EXPECT_FALSE(response.getString("state").empty());

    ASSERT_TRUE(client.result("s-424242", response, error)) << error;
    EXPECT_FALSE(response.getBool("ok", true));

    client.cancel(id, response, error);
}

// ---------------------------------------------------------------------
// Drain -> park -> restart -> bit-identical resume
// ---------------------------------------------------------------------

TEST(ServeDaemon, DrainedSpoolResumesBitIdenticallyOnRestart)
{
    const std::string spoolA = tempDir("serve_spool_a");
    const std::string spoolB = tempDir("serve_spool_b");
    const JsonValue sweepLong =
        sweepBody(ringText(6, 6000), 6, 6, 2, 200);
    const JsonValue sweepShort =
        sweepBody(ringText(4, 300), 4, 4, 2, 100);

    // Reference: an uninterrupted daemon runs both sweeps.
    std::vector<std::string> referenceLong;
    std::vector<std::string> referenceShort;
    {
        DaemonOptions options = baseOptions("ref");
        options.spoolDir = spoolB;
        options.workers = 1;
        DaemonHandle handle;
        handle.start(options);
        ServeClient client;
        handle.connect(client);
        JsonValue status;
        const std::string idLong =
            submitAndWait(client, sweepLong, status);
        ASSERT_EQ(status.getString("state"), "completed");
        const std::string idShort =
            submitAndWait(client, sweepShort, status);
        ASSERT_EQ(status.getString("state"), "completed");
        referenceLong = rowKeys(fetchResult(client, idLong));
        referenceShort = rowKeys(fetchResult(client, idShort));
        ASSERT_EQ(referenceLong.size(), 12u);
        ASSERT_EQ(referenceShort.size(), 8u);
    }

    // Interrupted: submit both on one worker, drain while the long
    // sweep runs (the short one is still waiting — its park is
    // deterministic), then shut the daemon down.
    std::string idLong;
    std::string idShort;
    {
        DaemonOptions options = baseOptions("drainA");
        options.spoolDir = spoolA;
        options.workers = 1;
        DaemonHandle handle;
        handle.start(options);
        ServeClient client;
        handle.connect(client);
        JsonValue response;
        std::string error;
        ASSERT_TRUE(
            client.submit(sweepLong, idLong, response, error))
            << error;
        ASSERT_TRUE(response.getBool("ok", false));
        ASSERT_TRUE(
            client.submit(sweepShort, idShort, response, error))
            << error;
        ASSERT_TRUE(response.getBool("ok", false));

        // Let the long sweep actually start before draining.
        for (int i = 0; i < 2000; ++i) {
            ASSERT_TRUE(client.status(idLong, response, error))
                << error;
            const std::string state = response.getString("state");
            if (state != "waiting")
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }

        ASSERT_TRUE(client.drain(response, error)) << error;
        EXPECT_EQ(response.getString("control"), "draining");
        // New submissions are refused while draining.
        std::string rejectedId;
        ASSERT_TRUE(client.submit(sweepShort, rejectedId, response,
                                  error))
            << error;
        EXPECT_FALSE(response.getBool("ok", true));
        EXPECT_EQ(response.getString("rejected"), "draining");

        ASSERT_TRUE(handle.daemon->waitIdle(60'000));
        // The short sweep never got a worker: parked waiting.
        ASSERT_TRUE(client.status(idShort, response, error))
            << error;
        EXPECT_EQ(response.getString("state"), "waiting");
        handle.daemon->stop();
    }

    // Restart on the same spool: both submissions finish, and every
    // row matches the uninterrupted reference bit for bit.
    {
        DaemonOptions options = baseOptions("drainB");
        options.spoolDir = spoolA;
        options.workers = 1;
        DaemonHandle handle;
        handle.start(options);
        ServeClient client;
        handle.connect(client);
        JsonValue status;
        std::string error;
        ASSERT_TRUE(
            client.waitTerminal(idLong, 60'000, status, error))
            << error;
        EXPECT_EQ(status.getString("state"), "completed");
        ASSERT_TRUE(
            client.waitTerminal(idShort, 60'000, status, error))
            << error;
        EXPECT_EQ(status.getString("state"), "completed");

        const JsonValue longResult = fetchResult(client, idLong);
        EXPECT_EQ(rowKeys(longResult), referenceLong);
        EXPECT_EQ(rowKeys(fetchResult(client, idShort)),
                  referenceShort);

        // If the drain parked the long sweep mid-run (the common
        // case), the resumed daemon must have replayed finished rows
        // from the journal rather than re-running them.
        const std::int64_t fromJournal =
            longResult.getInt("rows_from_journal", -1);
        EXPECT_GE(fromJournal, 0);

        // Terminal results persist across yet another restart via
        // their done markers.
        handle.daemon->stop();
        DaemonOptions options2 = baseOptions("drainC");
        options2.spoolDir = spoolA;
        DaemonHandle handle2;
        handle2.start(options2);
        ServeClient client2;
        handle2.connect(client2);
        EXPECT_EQ(rowKeys(fetchResult(client2, idLong)),
                  referenceLong);
        JsonValue stats;
        ASSERT_TRUE(client2.stats(stats, error)) << error;
        EXPECT_EQ(stateTally(stats), expectedTally({{"completed", 2}}));
    }
}

// ---------------------------------------------------------------------
// Drain parks an in-flight single run too
// ---------------------------------------------------------------------

TEST(ServeDaemon, DrainParksInFlightRunAndRestartRecomputesIt)
{
    const std::string spool = tempDir("serve_spool_run");
    JsonValue body = runBody(ringText(5, 20000), 5);
    std::string id;
    std::string digestRef;

    // Reference digest from an uninterrupted daemon.
    {
        DaemonOptions options = baseOptions("runref");
        DaemonHandle handle;
        handle.start(options);
        ServeClient client;
        handle.connect(client);
        JsonValue status;
        const std::string rid = submitAndWait(client, body, status);
        ASSERT_EQ(status.getString("state"), "completed");
        digestRef =
            fetchResult(client, rid).getString("machine_digest");
    }

    {
        DaemonOptions options = baseOptions("runA");
        options.spoolDir = spool;
        options.workers = 1;
        options.sliceCycles = 64; // park quickly once asked
        DaemonHandle handle;
        handle.start(options);
        ServeClient client;
        handle.connect(client);
        JsonValue response;
        std::string error;
        ASSERT_TRUE(client.submit(body, id, response, error))
            << error;
        ASSERT_TRUE(response.getBool("ok", false));
        handle.daemon->requestDrain();
        ASSERT_TRUE(handle.daemon->waitIdle(60'000));
        // Wherever the drain caught it, the submission is either
        // parked (waiting) or already done; never half-reported.
        ASSERT_TRUE(client.status(id, response, error)) << error;
        const std::string state = response.getString("state");
        EXPECT_TRUE(state == "waiting" || state == "completed")
            << state;
        handle.daemon->stop();
    }

    {
        DaemonOptions options = baseOptions("runB");
        options.spoolDir = spool;
        DaemonHandle handle;
        handle.start(options);
        ServeClient client;
        handle.connect(client);
        JsonValue status;
        std::string error;
        ASSERT_TRUE(client.waitTerminal(id, 60'000, status, error))
            << error;
        EXPECT_EQ(status.getString("state"), "completed");
        EXPECT_EQ(
            fetchResult(client, id).getString("machine_digest"),
            digestRef);
    }
}

// ---------------------------------------------------------------------
// A terminal submission keeps only its record
// ---------------------------------------------------------------------

TEST(ServeDaemon, StatsTallyCountsEveryTransition)
{
    const std::string spool = tempDir("serve_spool_tally");
    const JsonValue big = sweepBody(ringText(6, 4000), 6, 8, 2, 200);
    std::int64_t completed = 1; // the first run
    std::int64_t cancelled = 1; // B, cancelled while waiting
    std::string sweepId;
    std::string parkedId;
    {
        DaemonOptions options = baseOptions("tallyA");
        options.spoolDir = spool;
        options.workers = 1;
        DaemonHandle handle;
        handle.start(options);
        ServeClient client;
        handle.connect(client);
        JsonValue status;
        std::string error;
        JsonValue response;

        submitAndWait(client, runBody(ringText(4, 50), 4), status);
        EXPECT_EQ(status.getString("state"), "completed");
        JsonValue dead = runBody(blockingRingText(3, 8), 3);
        dead.set("shape", shapeJson("q1c1", 1, 1, 0));
        submitAndWait(client, dead, status);
        EXPECT_EQ(status.getString("state"), "deadlocked");
        submitAndWait(
            client,
            runBody("cells 3\nmessage a 0 -> 0\ncell 0 { W(a) R(a) }\n",
                    3),
            status);
        EXPECT_EQ(status.getString("state"), "error");

        // A pins the worker; B waits behind it and is cancelled there;
        // A is cancelled in flight.
        std::string idA;
        std::string idB;
        ASSERT_TRUE(client.submit(big, idA, response, error)) << error;
        ASSERT_TRUE(client.submit(big, idB, response, error)) << error;
        ASSERT_TRUE(client.cancel(idB, response, error)) << error;
        ASSERT_TRUE(response.getBool("ok", false)) << writeJson(response);
        for (int i = 0; i < 2000; ++i) {
            ASSERT_TRUE(client.status(idA, response, error)) << error;
            if (response.getString("state") != "waiting")
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        ASSERT_TRUE(client.cancel(idA, response, error)) << error;
        ASSERT_TRUE(client.waitTerminal(idA, 60'000, status, error))
            << error;
        // A finishing before the cancel lands is legal; count what
        // happened.
        if (status.getString("state") == "cancelled")
            ++cancelled;
        else
            ++completed;

        // Parked for the next life: a sweep far too long to finish
        // before the drain, and a run queued behind it.
        ASSERT_TRUE(client.submit(
            sweepBody(ringText(6, 4000), 6, 8, 64, 500), sweepId,
            response, error))
            << error;
        ASSERT_TRUE(client.submit(runBody(ringText(4, 60), 4), parkedId,
                                  response, error))
            << error;
        handle.daemon->requestDrain();
        ASSERT_TRUE(handle.daemon->waitIdle(60'000));
        EXPECT_EQ(stateTally(handle.daemon->statsJson()),
                  expectedTally({{"completed", completed},
                                 {"deadlocked", 1},
                                 {"error", 1},
                                 {"cancelled", cancelled},
                                 {"waiting", 2}}));
        handle.daemon->stop();
    }

    // Recovery: done markers come back terminal, the parked entries
    // are requeued, and a spooled line that no longer parses fails as
    // error.
    {
        std::ofstream(spool + "/s-000900.sub.json") << "{not json";
    }
    DaemonOptions options = baseOptions("tallyB");
    options.spoolDir = spool;
    options.workers = 1;
    DaemonHandle handle;
    handle.start(options);
    ServeClient client;
    handle.connect(client);
    JsonValue status;
    std::string error;
    // The recovered sweep is first in id order; cancel it wherever it
    // is (requeued or resumed) and let the parked run finish.
    JsonValue response;
    ASSERT_TRUE(client.cancel(sweepId, response, error)) << error;
    EXPECT_TRUE(response.getBool("ok", false)) << writeJson(response);
    ASSERT_TRUE(client.waitTerminal(sweepId, 60'000, status, error))
        << error;
    EXPECT_EQ(status.getString("state"), "cancelled");
    ++cancelled;
    ASSERT_TRUE(client.waitTerminal(parkedId, 60'000, status, error))
        << error;
    EXPECT_EQ(status.getString("state"), "completed");
    ++completed;
    ASSERT_TRUE(handle.daemon->waitIdle(60'000));
    EXPECT_EQ(stateTally(handle.daemon->statsJson()),
              expectedTally({{"completed", completed},
                             {"deadlocked", 1},
                             {"error", 2},
                             {"cancelled", cancelled}}));
}

/** A warn-mode deadlocked run: its result carries the lint report. */
JsonValue
lintedRunBody()
{
    JsonValue body = runBody(blockingRingText(3, 8), 3);
    body.set("shape", shapeJson("q1c1", 1, 1, 0));
    body.set("idempotency_key", JsonValue::str("released-1"));
    return body;
}

/** What a client can ask of a terminal submission, as wire text. */
struct TerminalAnswers
{
    std::string status;
    std::string result;
    std::string cancel;
    std::string resubmit;
};

void
expectSameAnswers(const TerminalAnswers& want, const TerminalAnswers& got)
{
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.result, want.result);
    EXPECT_EQ(got.cancel, want.cancel);
    EXPECT_EQ(got.resubmit, want.resubmit);
}

TerminalAnswers
askTerminal(ServeClient& client, const std::string& id)
{
    TerminalAnswers answers;
    JsonValue response;
    std::string error;
    EXPECT_TRUE(client.status(id, response, error)) << error;
    answers.status = writeJson(response);
    EXPECT_TRUE(client.result(id, response, error)) << error;
    answers.result = writeJson(response);
    EXPECT_TRUE(client.cancel(id, response, error)) << error;
    answers.cancel = writeJson(response);
    std::string dedupId;
    EXPECT_TRUE(client.submit(lintedRunBody(), dedupId, response, error))
        << error;
    EXPECT_EQ(dedupId, id);
    answers.resubmit = writeJson(response);
    return answers;
}

TEST(ServeDaemon, ReleasedSubmissionAnswersAsBefore)
{
    const std::string spool = tempDir("serve_spool_released");
    DaemonOptions options = baseOptions("released");
    options.spoolDir = spool;
    options.lintMode = DaemonOptions::LintMode::kWarn;

    std::string id;
    TerminalAnswers first;
    {
        DaemonHandle handle;
        handle.start(options);
        ServeClient client;
        handle.connect(client);
        JsonValue status;
        id = submitAndWait(client, lintedRunBody(), status);
        ASSERT_FALSE(id.empty());
        first = askTerminal(client, id);

        JsonValue response;
        std::string error;
        ASSERT_TRUE(parseJson(first.status, response, error)) << error;
        EXPECT_EQ(response.getString("state"), "deadlocked");
        EXPECT_TRUE(response.getBool("terminal", false));
        EXPECT_EQ(response.find("cycles"), nullptr);
        ASSERT_TRUE(parseJson(first.result, response, error)) << error;
        const JsonValue* result = response.find("result");
        ASSERT_NE(result, nullptr) << first.result;
        EXPECT_EQ(result->getString("status"), "deadlocked");
        EXPECT_GT(result->getInt("cycles", 0), 0);
        EXPECT_EQ(result->getString("machine_digest").size(), 18u);
        const JsonValue* lint = result->find("lint");
        ASSERT_NE(lint, nullptr) << first.result;
        EXPECT_EQ(lint->getString("verdict"), "deadlock");
        ASSERT_TRUE(parseJson(first.cancel, response, error)) << error;
        EXPECT_FALSE(response.getBool("ok", true));
        EXPECT_EQ(response.getString("error"), "already terminal");
        EXPECT_EQ(response.getString("state"), "deadlocked");
        ASSERT_TRUE(parseJson(first.resubmit, response, error)) << error;
        EXPECT_TRUE(response.getBool("ok", false));
        EXPECT_TRUE(response.getBool("deduplicated", false));
        EXPECT_EQ(response.getString("state"), "deadlocked");

        // Asking again changes nothing.
        expectSameAnswers(first, askTerminal(client, id));
    }

    // The same spool in a second life: the recovered entry answers
    // byte for byte as before, and its key still deduplicates.
    DaemonHandle handle;
    handle.start(options);
    ServeClient client;
    handle.connect(client);
    expectSameAnswers(first, askTerminal(client, id));
    EXPECT_EQ(stateTally(handle.daemon->statsJson()),
              expectedTally({{"deadlocked", 1}}));
}

TEST(ServeDaemon, TerminalSubmissionHeapIsBounded)
{
#if !defined(__GLIBC__) || defined(SYSCOMM_TEST_MALLOC_REPLACED)
    GTEST_SKIP() << "needs glibc's own malloc (mallinfo2)";
#else
    // 64-message programs on an 8x8 mesh; 8 of them, so the compile
    // cache and every (program, rung) lint analysis are warm after
    // the first 32 submissions and stop growing.
    constexpr int kPrograms = 8;
    const Topology mesh = Topology::mesh(8, 8);
    std::vector<std::string> programs;
    for (int p = 0; p < kPrograms; ++p) {
        GenOptions gen;
        gen.numMessages = 64;
        gen.interleave = 0.3;
        gen.seed = 101 + p;
        programs.push_back(
            text::printProgram(randomDeadlockFreeProgram(mesh, gen)));
    }
    const JsonValue topology = JsonValue::object()
                                   .set("kind", JsonValue::str("mesh"))
                                   .set("rows", JsonValue::integer(8))
                                   .set("cols", JsonValue::integer(8));
    const JsonValue rungs[4] = {shapeJson("q2c1", 2, 1, 0),
                                shapeJson("q3c2", 3, 2, 0),
                                shapeJson("q2c3", 2, 3, 0),
                                shapeJson("q3c4", 3, 4, 0)};
    // Submission i: program i % 8; block i / 8 picks the rung, and
    // every eighth block is 4-rung x 2-request sweeps.
    auto bodyFor = [&](int i) {
        const int block = i / kPrograms;
        JsonValue body = JsonValue::object();
        body.set("program", JsonValue::str(programs[i % kPrograms]));
        body.set("topology", topology);
        JsonValue requests = JsonValue::array();
        if (block % 8 == 7) {
            body.set("kind", JsonValue::str("sweep"));
            JsonValue shapes = JsonValue::array();
            for (const JsonValue& rung : rungs)
                shapes.push(rung);
            body.set("shapes", std::move(shapes));
            requests.push(JsonValue::object()
                              .set("policy", JsonValue::str("compatible"))
                              .set("seed", JsonValue::integer(i)));
            requests.push(JsonValue::object()
                              .set("policy", JsonValue::str("fcfs"))
                              .set("seed", JsonValue::integer(i)));
        } else {
            body.set("kind", JsonValue::str("run"));
            body.set("shape", rungs[block % 4]);
            requests.push(JsonValue::object()
                              .set("policy", JsonValue::str("compatible"))
                              .set("seed", JsonValue::integer(i)));
        }
        body.set("requests", std::move(requests));
        return body;
    };

    DaemonOptions options = baseOptions("heap");
    options.lintMode = DaemonOptions::LintMode::kWarn;
    options.maxQueue = 1024;
    DaemonHandle handle;
    handle.start(options);
    ServeClient client;
    handle.connect(client);
    auto submitRange = [&](int from, int to) {
        for (int i = from; i < to; ++i) {
            std::string id;
            JsonValue response;
            std::string error;
            ASSERT_TRUE(client.submit(bodyFor(i), id, response, error))
                << error;
            ASSERT_TRUE(response.getBool("ok", false))
                << writeJson(response);
        }
        ASSERT_TRUE(handle.daemon->waitIdle(120'000));
    };

    constexpr int kWarmup = 100;
    constexpr int kMeasured = 400;
    submitRange(0, kWarmup);
    const std::size_t before = mallinfo2().uordblks;
    submitRange(kWarmup, kWarmup + kMeasured);
    const std::size_t after = mallinfo2().uordblks;

    const JsonValue stats = handle.daemon->statsJson();
    const std::map<std::string, std::int64_t> tally = stateTally(stats);
    std::int64_t terminal = 0;
    for (const auto& [state, count] : tally) {
        SubmissionState parsed = SubmissionState::kWaiting;
        ASSERT_TRUE(parseSubmissionState(state, parsed));
        if (submissionStateTerminal(parsed))
            terminal += count;
    }
    ASSERT_EQ(terminal, kWarmup + kMeasured) << writeJson(stats);

    const double perSubmission =
        (static_cast<double>(after) - static_cast<double>(before)) /
        kMeasured;
    RecordProperty("heap_bytes_per_terminal_submission",
                   static_cast<int>(perSubmission));
    EXPECT_LE(perSubmission, 12.0 * 1024)
        << "heap per terminal submission: " << perSubmission << " B";
#endif
}

} // namespace
} // namespace syscomm::serve
