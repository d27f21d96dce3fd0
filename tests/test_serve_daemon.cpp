/**
 * @file
 * End-to-end syscommd tests over a live Unix socket: submissions walk
 * the status machine to the right terminal states, compile sharing is
 * observable (N concurrent identical submissions advance
 * CompiledProgram::buildCount() by exactly one), a full admission
 * queue rejects explicitly, cancel works on waiting and in-flight
 * submissions, and a drained daemon's spool resumes on a second
 * daemon with per-row machine digests bit-identical to an
 * uninterrupted reference. The multi-client suites run under TSan in
 * CI.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/cache.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "sim/shape_sweep.h"
#include "text/parser.h"

namespace syscomm::serve {
namespace {

std::string
tempDir(const std::string& name)
{
    const std::string dir = testing::TempDir() + name + "_" +
                            std::to_string(::getpid());
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
    const JsonValue* subs = stats.find("submissions");
    ASSERT_NE(subs, nullptr);
    EXPECT_EQ(subs->getInt("completed", -1), kClients);
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
        EXPECT_EQ(stats.find("submissions")->getInt("completed", 0),
                  2);
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

} // namespace
} // namespace syscomm::serve
