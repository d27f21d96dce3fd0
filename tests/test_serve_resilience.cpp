/**
 * @file
 * Daemon failure handling and client resilience, end to end over a
 * live Unix socket:
 *
 *  - ENOSPC on the spool rejects the submit explicitly BEFORE the ack
 *    (spool-before-ack), leaves no orphan spool files, flips the
 *    stats-visible degraded flag, keeps serving reads, and recovers
 *    via clearFault + SIGHUP-style reload;
 *  - a sweep whose journal dies mid-run still completes (journaling
 *    latches off) and flags the daemon degraded;
 *  - idempotency keys deduplicate resubmissions within one daemon
 *    life and across a restart (index rebuilt from the spool);
 *  - submitWithRetry / waitTerminalRetry carry a client through a
 *    daemon stop/restart without duplicating work, finishing with
 *    digests bit-identical to an uninterrupted reference;
 *  - the worker watchdog fails a run whose slice stalls past the
 *    deadline explicitly ("watchdog: ..." error), never fires on
 *    healthy runs, and never swallows the wakeup a submit owes an
 *    idle worker;
 *  - a finished connection's thread is joined, so a long-lived daemon
 *    serving one connection per command does not leak threads.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/io.h"
#include "serve/json.h"

namespace syscomm::serve {
namespace {

namespace fs = std::filesystem;

std::string
tempDir(const std::string& name)
{
    const std::string dir = testing::TempDir() + name + "_" +
                            std::to_string(::getpid());
    fs::remove_all(dir);
    return dir;
}

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

JsonValue
ringTopology(int cells)
{
    return JsonValue::object()
        .set("kind", JsonValue::str("ring"))
        .set("cells", JsonValue::integer(cells));
}

JsonValue
shapeJson(const std::string& name, int queues, int capacity)
{
    return JsonValue::object()
        .set("name", JsonValue::str(name))
        .set("queues", JsonValue::integer(queues))
        .set("capacity", JsonValue::integer(capacity))
        .set("extension", JsonValue::integer(0))
        .set("penalty", JsonValue::integer(4));
}

JsonValue
runBody(int cells, int words)
{
    JsonValue body = JsonValue::object();
    body.set("kind", JsonValue::str("run"));
    body.set("program", JsonValue::str(ringText(cells, words)));
    body.set("topology", ringTopology(cells));
    body.set("shape", shapeJson("q2c2", 2, 2));
    return body;
}

JsonValue
sweepBody(int cells, int words, int numShapes, Cycle checkpointEvery)
{
    JsonValue body = JsonValue::object();
    body.set("kind", JsonValue::str("sweep"));
    body.set("program", JsonValue::str(ringText(cells, words)));
    body.set("topology", ringTopology(cells));
    JsonValue shapes = JsonValue::array();
    for (int k = 0; k < numShapes; ++k)
        shapes.push(shapeJson("s" + std::to_string(k), 1 + k % 3,
                              1 + (k / 3) % 3));
    body.set("shapes", std::move(shapes));
    JsonValue requests = JsonValue::array();
    requests.push(JsonValue::object()
                      .set("policy", JsonValue::str("compatible"))
                      .set("seed", JsonValue::integer(1)));
    body.set("requests", std::move(requests));
    body.set("checkpoint_every", JsonValue::integer(checkpointEvery));
    return body;
}

std::vector<std::string>
sweepDigests(const JsonValue& result)
{
    std::vector<std::string> digests;
    const JsonValue* rows = result.find("rows");
    if (rows == nullptr)
        return digests;
    for (const JsonValue& row : rows->items())
        digests.push_back(row.getString("name") + ":" +
                          row.getString("machine_digest"));
    return digests;
}

/** Daemon + connected client on a fresh socket/spool pair. */
struct Harness
{
    explicit Harness(const std::string& name, Io* io = nullptr,
                     std::int64_t watchdogMs = 0,
                     Cycle sliceCycles = 100'000)
        : socketPath(testing::TempDir() + name + "_" +
                     std::to_string(::getpid()) + ".sock"),
          spoolDir(tempDir(name + "_spool"))
    {
        DaemonOptions options;
        options.socketPath = socketPath;
        options.spoolDir = spoolDir;
        options.workers = 1;
        options.io = io;
        options.watchdogMs = watchdogMs;
        options.sliceCycles = sliceCycles;
        options.maxLineBytes = 64u << 20;
        daemon = std::make_unique<SyscommDaemon>(options);
        std::string error;
        started = daemon->start(error);
        EXPECT_TRUE(started) << error;
        if (started) {
            EXPECT_TRUE(client.connectUnix(socketPath, error))
                << error;
        }
    }

    std::string socketPath;
    std::string spoolDir;
    std::unique_ptr<SyscommDaemon> daemon;
    ServeClient client;
    bool started = false;
};

int
spoolFileCount(const std::string& dir, const std::string& suffix)
{
    int n = 0;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            ++n;
    }
    return n;
}

TEST(ServeResilience, EnospcRejectsBeforeAckAndRecovers)
{
    FaultyIo io(IoFaultKind::kEnospc, 1, 11);
    Harness h("enospc", &io);
    ASSERT_TRUE(h.started);

    // Spool-before-ack: the very first submission hits the full disk
    // and is answered "spool_error" — the client was never given an
    // id the daemon could forget.
    std::string id;
    std::string error;
    JsonValue response;
    ASSERT_TRUE(h.client.submit(runBody(4, 50), id, response, error))
        << error;
    EXPECT_FALSE(response.getBool("ok", true));
    EXPECT_EQ(response.getString("rejected"), "spool_error");
    // No orphan spool entries: nothing was acknowledged, nothing may
    // survive to be recovered.
    EXPECT_EQ(spoolFileCount(h.spoolDir, ".sub.json"), 0);
    EXPECT_EQ(spoolFileCount(h.spoolDir, ".tmp"), 0);

    // Degraded mode: new work is rejected with the explicit reason,
    // reads keep working, and stats carries the flag.
    ASSERT_TRUE(h.client.submit(runBody(4, 50), id, response, error));
    EXPECT_EQ(response.getString("rejected"), "degraded");
    ASSERT_TRUE(h.client.ping(response, error)) << error;
    EXPECT_TRUE(response.getBool("ok", false));
    ASSERT_TRUE(h.client.stats(response, error)) << error;
    EXPECT_TRUE(response.getBool("degraded", false));
    EXPECT_FALSE(response.getString("degraded_reason").empty());
    const JsonValue* queue = response.find("queue");
    ASSERT_NE(queue, nullptr);
    EXPECT_EQ(queue->getInt("rejected_degraded", 0), 1);

    // Space freed + reload (the SIGHUP path): admission resumes and
    // the next submission runs to completion, durably.
    io.clearFault();
    h.daemon->reload();
    ASSERT_TRUE(h.client.submit(runBody(4, 50), id, response, error))
        << error;
    ASSERT_TRUE(response.getBool("ok", false)) << writeJson(response);
    ASSERT_TRUE(h.client.waitTerminal(id, 30'000, response, error))
        << error;
    EXPECT_EQ(response.getString("state"), "completed");
    ASSERT_TRUE(h.client.stats(response, error)) << error;
    EXPECT_FALSE(response.getBool("degraded", true));
    EXPECT_EQ(spoolFileCount(h.spoolDir, ".sub.json"), 1);
    EXPECT_EQ(spoolFileCount(h.spoolDir, ".done.json"), 1);
}

TEST(ServeResilience, SweepSurvivesJournalDeathAndFlagsDegraded)
{
    // Let the spool write + rename pass (ops 1-2), then kill every
    // later mutating op: the sweep's journal dies mid-flight.
    FaultyIo io(IoFaultKind::kEnospc, 3, 11);
    Harness h("journal_death", &io);
    ASSERT_TRUE(h.started);

    std::string id;
    std::string error;
    JsonValue response;
    ASSERT_TRUE(h.client.submit(sweepBody(4, 60, 3, 50), id, response,
                                error))
        << error;
    ASSERT_TRUE(response.getBool("ok", false)) << writeJson(response);
    ASSERT_TRUE(h.client.waitTerminal(id, 30'000, response, error))
        << error;
    // Lost journaling must not lose compute: the sweep completes.
    EXPECT_EQ(response.getString("state"), "completed");
    ASSERT_TRUE(h.client.stats(response, error)) << error;
    EXPECT_TRUE(response.getBool("degraded", false));
    // Under sticky ENOSPC the done marker fails too and overwrites
    // the reason; either failure is an acceptable flag.
    const std::string reason = response.getString("degraded_reason");
    EXPECT_TRUE(reason.find("journal") != std::string::npos ||
                reason.find("done marker") != std::string::npos)
        << reason;
}

TEST(ServeResilience, IdempotencyKeyDeduplicates)
{
    Harness h("idem");
    ASSERT_TRUE(h.started);

    JsonValue body = runBody(4, 50);
    body.set("idempotency_key", JsonValue::str("job-42"));

    std::string id1;
    std::string id2;
    std::string error;
    JsonValue response;
    ASSERT_TRUE(h.client.submit(body, id1, response, error)) << error;
    ASSERT_TRUE(response.getBool("ok", false));
    ASSERT_TRUE(h.client.submit(body, id2, response, error)) << error;
    ASSERT_TRUE(response.getBool("ok", false));
    EXPECT_EQ(id1, id2);
    EXPECT_TRUE(response.getBool("deduplicated", false));

    // Still deduplicates after the work finished: the retry lands on
    // the terminal submission and can fetch its result.
    ASSERT_TRUE(h.client.waitTerminal(id1, 30'000, response, error))
        << error;
    ASSERT_TRUE(h.client.submit(body, id2, response, error)) << error;
    EXPECT_EQ(id2, id1);
    EXPECT_EQ(response.getString("state"), "completed");

    // A different key is different work.
    body.set("idempotency_key", JsonValue::str("job-43"));
    ASSERT_TRUE(h.client.submit(body, id2, response, error)) << error;
    EXPECT_NE(id2, id1);

    // Exactly two submissions exist.
    ASSERT_TRUE(h.client.stats(response, error)) << error;
    EXPECT_EQ(spoolFileCount(h.spoolDir, ".sub.json"), 2);
}

TEST(ServeResilience, ClientRetriesAcrossDaemonRestart)
{
    // Reference: the uninterrupted sweep's digests.
    std::vector<std::string> want;
    {
        Harness ref("restart_ref");
        ASSERT_TRUE(ref.started);
        std::string id;
        std::string error;
        JsonValue response;
        ASSERT_TRUE(ref.client.submit(sweepBody(4, 120, 4, 60), id,
                                      response, error))
            << error;
        ASSERT_TRUE(response.getBool("ok", false));
        ASSERT_TRUE(
            ref.client.waitTerminal(id, 60'000, response, error))
            << error;
        JsonValue result;
        ASSERT_TRUE(ref.client.result(id, result, error)) << error;
        want = sweepDigests(*result.find("result"));
        ASSERT_FALSE(want.empty());
    }

    const std::string socketPath = testing::TempDir() +
                                   "restart_sock_" +
                                   std::to_string(::getpid());
    const std::string spool = tempDir("restart_spool");
    DaemonOptions options;
    options.socketPath = socketPath;
    options.spoolDir = spool;
    options.workers = 1;

    JsonValue body = sweepBody(4, 120, 4, 60);
    body.set("idempotency_key", JsonValue::str("restart-sweep"));

    RetryOptions retry;
    retry.maxAttempts = 8;
    retry.baseDelayMs = 10;
    retry.maxDelayMs = 100;
    retry.jitterSeed = 7;

    ServeClient client;
    client.setTimeouts(2'000, 5'000);
    std::string id1;
    {
        auto daemon = std::make_unique<SyscommDaemon>(options);
        std::string error;
        ASSERT_TRUE(daemon->start(error)) << error;
        ASSERT_TRUE(client.connectUnix(socketPath, error)) << error;
        JsonValue response;
        ASSERT_TRUE(client.submitWithRetry(body, retry, id1, response,
                                           error))
            << error;
        ASSERT_FALSE(id1.empty());
        // Park the in-flight sweep and kill the daemon: the classic
        // lost-daemon scenario a client must survive.
        ASSERT_TRUE(client.drain(response, error)) << error;
        daemon->stop();
    }

    // Daemon gone: a blind resubmission fails over transport now but
    // succeeds once the replacement is up — and lands on the SAME
    // submission, courtesy of the spooled idempotency key.
    auto daemon2 = std::make_unique<SyscommDaemon>(options);
    std::string error;
    ASSERT_TRUE(daemon2->start(error)) << error;
    client.close(); // stale fd from the dead daemon
    std::string id2;
    JsonValue response;
    ASSERT_TRUE(
        client.submitWithRetry(body, retry, id2, response, error))
        << error;
    EXPECT_EQ(id2, id1);
    EXPECT_TRUE(response.getBool("deduplicated", false))
        << writeJson(response);

    ASSERT_TRUE(
        client.waitTerminalRetry(id1, 60'000, retry, response, error))
        << error;
    EXPECT_EQ(response.getString("state"), "completed");
    JsonValue resultResponse;
    ASSERT_TRUE(client.result(id1, resultResponse, error)) << error;
    const JsonValue* result = resultResponse.find("result");
    ASSERT_NE(result, nullptr);
    // Bit-identical to the uninterrupted reference, row for row.
    EXPECT_EQ(sweepDigests(*result), want);
    daemon2->stop();
}

TEST(ServeResilience, WatchdogFailsStuckRunExplicitly)
{
    // One slice spans the whole ~400k-cycle run (~100 ms of wall
    // time), with a 5 ms deadline: the watchdog must catch the slice
    // in flight and the daemon must answer an explicit error, not
    // hang and not park.
    Harness h("watchdog", nullptr, /*watchdogMs=*/5,
              /*sliceCycles=*/350'000);
    ASSERT_TRUE(h.started);

    std::string id;
    std::string error;
    JsonValue response;
    ASSERT_TRUE(h.client.submit(runBody(6, 200'000), id, response,
                                error))
        << error;
    ASSERT_TRUE(response.getBool("ok", false)) << writeJson(response);
    ASSERT_TRUE(h.client.waitTerminal(id, 60'000, response, error))
        << error;
    EXPECT_EQ(response.getString("state"), "error");
    JsonValue resultResponse;
    ASSERT_TRUE(h.client.result(id, resultResponse, error)) << error;
    const JsonValue* result = resultResponse.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->getString("error").rfind("watchdog", 0), 0u)
        << writeJson(*result);

    ASSERT_TRUE(h.client.stats(response, error)) << error;
    EXPECT_GE(response.getInt("watchdog_fired", 0), 1);
}

TEST(ServeResilience, WatchdogLeavesHealthyRunsAlone)
{
    // Small slices report progress every ~1 ms; a 2 s deadline never
    // comes close. The run must complete untouched.
    Harness h("watchdog_ok", nullptr, /*watchdogMs=*/2'000,
              /*sliceCycles=*/5'000);
    ASSERT_TRUE(h.started);

    std::string id;
    std::string error;
    JsonValue response;
    ASSERT_TRUE(
        h.client.submit(runBody(6, 4'000), id, response, error))
        << error;
    ASSERT_TRUE(response.getBool("ok", false));
    ASSERT_TRUE(h.client.waitTerminal(id, 60'000, response, error))
        << error;
    EXPECT_EQ(response.getString("state"), "completed");
    ASSERT_TRUE(h.client.stats(response, error)) << error;
    EXPECT_EQ(response.getInt("watchdog_fired", -1), 0);
}

TEST(ServeResilience, WatchdogNeverSwallowsAWorkerWakeup)
{
    // One idle worker and a watchdog: every submit's wakeup must reach
    // the worker, so each small run finishes promptly instead of
    // waiting for the next submit to nudge the queue.
    Harness h("watchdog_wake", nullptr, /*watchdogMs=*/2'000,
              /*sliceCycles=*/5'000);
    ASSERT_TRUE(h.started);
    for (int i = 0; i < 50; ++i) {
        std::string id;
        std::string error;
        JsonValue response;
        ASSERT_TRUE(h.client.submit(runBody(4, 20), id, response, error))
            << error;
        ASSERT_TRUE(response.getBool("ok", false)) << writeJson(response);
        ASSERT_TRUE(h.client.waitTerminal(id, 5'000, response, error))
            << "submission " << i << ": " << error;
        EXPECT_EQ(response.getString("state"), "completed");
    }
}

/** Memory mappings of this process; -1 where /proc is unavailable. */
int
mapCount()
{
    std::ifstream maps("/proc/self/maps");
    if (!maps)
        return -1;
    int lines = 0;
    std::string line;
    while (std::getline(maps, line))
        ++lines;
    return lines;
}

TEST(ServeResilience, FinishedConnectionsAreReaped)
{
    // Each connection gets a thread; one that is never joined keeps
    // its stack mapped (two mappings). A daemon serving one
    // connection per command must join them as they finish.
    Harness h("reap");
    ASSERT_TRUE(h.started);
    if (mapCount() < 0)
        GTEST_SKIP() << "no /proc/self/maps";
    auto connectPingClose = [&] {
        ServeClient client;
        std::string error;
        JsonValue response;
        return client.connectUnix(h.socketPath, error) &&
               client.ping(response, error) &&
               response.getBool("ok", false);
    };
    ASSERT_TRUE(connectPingClose());
    const int before = mapCount();
    for (int i = 0; i < 2000; ++i)
        ASSERT_TRUE(connectPingClose()) << "cycle " << i;
    EXPECT_LT(mapCount() - before, 100);

    std::string error;
    JsonValue response;
    ASSERT_TRUE(h.client.ping(response, error)) << error;
    EXPECT_TRUE(response.getBool("ok", false));
}

} // namespace
} // namespace syscomm::serve
