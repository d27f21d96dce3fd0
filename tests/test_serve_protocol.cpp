/**
 * @file
 * serve/ protocol-layer tests: the JSON value type, the wire
 * vocabulary (verbs, submission states, parseSubmission validation),
 * the lifecycle control word, the compile cache (LRU + in-flight
 * dedup), and — against a live daemon on a Unix socket — the
 * robustness paths a hostile or broken client exercises: malformed,
 * truncated and oversized request lines, unknown verbs, raw-byte
 * abuse, and mid-write disconnects. A bad client must never take the
 * daemon down or wedge other clients.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "serve/cache.h"
#include "serve/client.h"
#include "serve/control.h"
#include "serve/daemon.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "text/parser.h"

namespace syscomm::serve {
namespace {

std::string
tempPath(const std::string& name)
{
    return testing::TempDir() + name;
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

TEST(ServeJson, Int64RoundTripsExactly)
{
    // A double would already round 2^53+1; seeds and cycle counts
    // must survive the wire bit-exactly.
    const std::int64_t big = 9007199254740993LL;
    JsonValue v = JsonValue::object();
    v.set("seed", JsonValue::integer(big));
    v.set("neg", JsonValue::integer(-42));
    const std::string wire = writeJson(v);

    JsonValue back;
    std::string error;
    ASSERT_TRUE(parseJson(wire, back, error)) << error;
    EXPECT_TRUE(back.find("seed")->isIntegral());
    EXPECT_EQ(back.getInt("seed", 0), big);
    EXPECT_EQ(back.getInt("neg", 0), -42);
}

TEST(ServeJson, StringEscapesRoundTrip)
{
    const std::string nasty = "line\none\t\"quoted\" back\\slash\x01";
    JsonValue v = JsonValue::object();
    v.set("s", JsonValue::str(nasty));
    JsonValue back;
    std::string error;
    ASSERT_TRUE(parseJson(writeJson(v), back, error)) << error;
    EXPECT_EQ(back.getString("s"), nasty);
}

TEST(ServeJson, NestedStructuresRoundTrip)
{
    JsonValue inner = JsonValue::array();
    inner.push(JsonValue::integer(1));
    inner.push(JsonValue::boolean(true));
    inner.push(JsonValue());
    JsonValue v = JsonValue::object();
    v.set("list", std::move(inner));
    v.set("obj", JsonValue::object().set("x", JsonValue::number(1.5)));

    JsonValue back;
    std::string error;
    ASSERT_TRUE(parseJson(writeJson(v), back, error)) << error;
    ASSERT_TRUE(back.find("list")->isArray());
    EXPECT_EQ(back.find("list")->items().size(), 3u);
    EXPECT_TRUE(back.find("list")->items()[2].isNull());
    EXPECT_DOUBLE_EQ(back.find("obj")->getNumber("x", 0.0), 1.5);
}

TEST(ServeJson, ParseErrorsAreCleanNotFatal)
{
    JsonValue out;
    std::string error;
    // Truncated object, truncated string, bare garbage, trailing
    // garbage: each is an error string, never a crash or a partial
    // parse reported as success.
    EXPECT_FALSE(parseJson("{\"a\": 1", out, error));
    EXPECT_FALSE(parseJson("\"unterminated", out, error));
    EXPECT_FALSE(parseJson("nonsense", out, error));
    EXPECT_FALSE(parseJson("{} trailing", out, error));
    EXPECT_FALSE(parseJson("", out, error));
    EXPECT_NE(error.find("at byte"), std::string::npos) << error;
}

TEST(ServeJson, DepthLimitRejectsBombs)
{
    std::string deep;
    for (int i = 0; i < 64; ++i)
        deep += "[";
    JsonValue out;
    std::string error;
    EXPECT_FALSE(parseJson(deep, out, error));
    EXPECT_NE(error.find("deep"), std::string::npos) << error;

    // 31 levels is inside the default limit of 32.
    std::string ok;
    for (int i = 0; i < 31; ++i)
        ok += "[";
    for (int i = 0; i < 31; ++i)
        ok += "]";
    EXPECT_TRUE(parseJson(ok, out, error)) << error;
}

// ---------------------------------------------------------------------
// Vocabulary: verbs and the submission state machine
// ---------------------------------------------------------------------

TEST(ServeProtocol, VerbNamesRoundTrip)
{
    const Verb verbs[] = {Verb::kPing,   Verb::kSubmit, Verb::kStatus,
                          Verb::kResult, Verb::kCancel, Verb::kDrain,
                          Verb::kStats};
    for (Verb verb : verbs) {
        Verb back = Verb::kPing;
        ASSERT_TRUE(parseVerb(verbName(verb), back)) << verbName(verb);
        EXPECT_EQ(back, verb);
    }
    Verb out;
    EXPECT_FALSE(parseVerb("frobnicate", out));
    EXPECT_FALSE(parseVerb("", out));
}

TEST(ServeProtocol, SubmissionStateMachineIsComplete)
{
    for (int i = 0; i < kNumSubmissionStates; ++i) {
        const auto state = static_cast<SubmissionState>(i);
        SubmissionState back = SubmissionState::kError;
        ASSERT_TRUE(parseSubmissionState(submissionStateName(state),
                                         back))
            << submissionStateName(state);
        EXPECT_EQ(back, state);
        // Every state has a human description for the status verb.
        EXPECT_GT(std::string(submissionStateDescription(state)).size(),
                  10u);
    }
    // Exactly waiting/compiling/running are non-terminal.
    EXPECT_FALSE(submissionStateTerminal(SubmissionState::kWaiting));
    EXPECT_FALSE(submissionStateTerminal(SubmissionState::kCompiling));
    EXPECT_FALSE(submissionStateTerminal(SubmissionState::kRunning));
    EXPECT_TRUE(submissionStateTerminal(SubmissionState::kCompleted));
    EXPECT_TRUE(submissionStateTerminal(SubmissionState::kDeadlocked));
    EXPECT_TRUE(submissionStateTerminal(SubmissionState::kFaulted));
    EXPECT_TRUE(submissionStateTerminal(SubmissionState::kBudget));
    EXPECT_TRUE(submissionStateTerminal(SubmissionState::kRejected));
    EXPECT_TRUE(submissionStateTerminal(SubmissionState::kCancelled));
    EXPECT_TRUE(submissionStateTerminal(SubmissionState::kError));
}

TEST(ServeProtocol, RunStatusMapsOntoTerminalStates)
{
    EXPECT_EQ(submissionStateForRun(sim::RunStatus::kCompleted),
              SubmissionState::kCompleted);
    EXPECT_EQ(submissionStateForRun(sim::RunStatus::kDeadlocked),
              SubmissionState::kDeadlocked);
    EXPECT_EQ(submissionStateForRun(sim::RunStatus::kFaulted),
              SubmissionState::kFaulted);
    EXPECT_EQ(submissionStateForRun(sim::RunStatus::kMaxCycles),
              SubmissionState::kBudget);
    EXPECT_EQ(submissionStateForRun(sim::RunStatus::kConfigError),
              SubmissionState::kError);
}

// ---------------------------------------------------------------------
// parseSubmission validation
// ---------------------------------------------------------------------

const char kTinyProgram[] =
    "cells 2\n"
    "message a 0 -> 1\n"
    "cell 0 { W(a) W(a) }\n"
    "cell 1 { R(a) R(a) }\n";

JsonValue
runBody()
{
    JsonValue body = JsonValue::object();
    body.set("verb", JsonValue::str("submit"));
    body.set("kind", JsonValue::str("run"));
    body.set("program", JsonValue::str(kTinyProgram));
    body.set("topology",
             JsonValue::object()
                 .set("kind", JsonValue::str("linear"))
                 .set("cells", JsonValue::integer(2)));
    return body;
}

TEST(ServeProtocol, ParseSubmissionAcceptsMinimalRun)
{
    Submission sub;
    std::string error;
    ASSERT_TRUE(parseSubmission(runBody(), sub, error)) << error;
    EXPECT_FALSE(sub.isSweep);
    ASSERT_EQ(sub.shapes.size(), 1u);
    ASSERT_EQ(sub.requests.size(), 1u);
    EXPECT_EQ(sub.program.numCells(), 2);
    EXPECT_EQ(sub.topo.numCells(), 2);
}

TEST(ServeProtocol, ParseSubmissionRejectsBadPayloads)
{
    Submission sub;
    std::string error;

    JsonValue noProgram = runBody();
    noProgram.set("program", JsonValue());
    EXPECT_FALSE(parseSubmission(noProgram, sub, error));
    EXPECT_NE(error.find("program"), std::string::npos) << error;

    JsonValue badText = runBody();
    badText.set("program", JsonValue::str("cells two\n"));
    EXPECT_FALSE(parseSubmission(badText, sub, error));

    JsonValue badTopoKind = runBody();
    badTopoKind.set("topology",
                    JsonValue::object()
                        .set("kind", JsonValue::str("hypercube"))
                        .set("cells", JsonValue::integer(2)));
    EXPECT_FALSE(parseSubmission(badTopoKind, sub, error));
    EXPECT_NE(error.find("topology"), std::string::npos) << error;

    // Program says 2 cells, topology says 4: must not reach compile.
    JsonValue mismatch = runBody();
    mismatch.set("topology",
                 JsonValue::object()
                     .set("kind", JsonValue::str("linear"))
                     .set("cells", JsonValue::integer(4)));
    EXPECT_FALSE(parseSubmission(mismatch, sub, error));

    JsonValue badPolicy = runBody();
    JsonValue requests = JsonValue::array();
    requests.push(JsonValue::object().set(
        "policy", JsonValue::str("clairvoyant")));
    badPolicy.set("requests", std::move(requests));
    EXPECT_FALSE(parseSubmission(badPolicy, sub, error));
    EXPECT_NE(error.find("policy"), std::string::npos) << error;

    JsonValue negBudget = runBody();
    negBudget.set("cycle_budget", JsonValue::integer(-5));
    EXPECT_FALSE(parseSubmission(negBudget, sub, error));

    JsonValue sweepNoShapes = runBody();
    sweepNoShapes.set("kind", JsonValue::str("sweep"));
    sweepNoShapes.set("shapes", JsonValue::array());
    EXPECT_FALSE(parseSubmission(sweepNoShapes, sub, error));
}

TEST(ServeProtocol, GridSidesAreBoundedBeforeTheirProduct)
{
    // (2^61 + 4) x 4 overflows int64, and int(2^61 + 4) is 4: with
    // only the product bounded, both verbs took this for a 4x4 grid.
    const std::int64_t hugeRows = (std::int64_t{1} << 61) + 4;
    for (const std::string kind : {"mesh", "torus"}) {
        JsonValue body = runBody();
        body.set("program",
                 JsonValue::str("cells 16\nmessage a 0 -> 1\n"
                                "cell 0 { W(a) }\ncell 1 { R(a) }\n"));
        auto grid = [&](std::int64_t rows) {
            body.set("topology",
                     JsonValue::object()
                         .set("kind", JsonValue::str(kind))
                         .set("rows", JsonValue::integer(rows))
                         .set("cols", JsonValue::integer(4)));
            return body;
        };
        const std::string badSides =
            "topology: bad 'rows'/'cols' for kind '" + kind + "'";
        Submission sub;
        LintRequest lint;
        std::string error;
        EXPECT_FALSE(parseSubmission(grid(hugeRows), sub, error));
        EXPECT_EQ(error, badSides);
        error.clear();
        EXPECT_FALSE(parseLintRequest(grid(hugeRows), lint, error));
        EXPECT_EQ(error, badSides);

        EXPECT_TRUE(parseSubmission(grid(4), sub, error)) << error;
        EXPECT_TRUE(parseLintRequest(grid(4), lint, error)) << error;
    }
}

// ---------------------------------------------------------------------
// Control word
// ---------------------------------------------------------------------

TEST(ServeControl, AdvanceIsCompareAndSwap)
{
    ServiceControl control;
    EXPECT_EQ(control.get(), ServiceWant::kWait);
    control.set(ServiceWant::kServe);
    EXPECT_STREQ(control.status(), "serving");

    // advance() only fires from the expected state: a late SIGTERM
    // (serve -> drain) must not resurrect an already-stopped daemon.
    EXPECT_TRUE(control.advance(ServiceWant::kServe,
                                ServiceWant::kDrain));
    EXPECT_STREQ(control.status(), "draining");
    EXPECT_FALSE(control.advance(ServiceWant::kServe,
                                 ServiceWant::kStop));
    EXPECT_EQ(control.get(), ServiceWant::kDrain);
    control.set(ServiceWant::kStop);
    EXPECT_FALSE(control.advance(ServiceWant::kDrain,
                                 ServiceWant::kServe));
    EXPECT_STREQ(control.status(), "stopped");
}

// ---------------------------------------------------------------------
// Compile cache
// ---------------------------------------------------------------------

Program
tinyProgram()
{
    text::ParseResult parsed = text::parseProgram(kTinyProgram);
    EXPECT_TRUE(parsed.ok) << parsed.error;
    return parsed.program;
}

TEST(ServeCache, KeysSeparateProgramTopologyAndVersion)
{
    const Program p = tinyProgram();
    const Topology line = Topology::linearArray(2);
    const Topology ring = Topology::ring(3);
    const std::uint64_t base = CompileCache::keyFor(p, line, "");
    EXPECT_EQ(CompileCache::keyFor(p, line, ""), base);
    EXPECT_NE(CompileCache::keyFor(p, ring, ""), base);
    EXPECT_NE(CompileCache::keyFor(p, line, "v2"), base);

    Program longer = p;
    longer.write(0, 0);
    longer.read(1, 0);
    EXPECT_NE(CompileCache::keyFor(longer, line, ""), base);
}

TEST(ServeCache, ProgramsSharingAKeyEachGetTheirOwnCompile)
{
    // The key hashes neither message names nor endpoints, so these
    // three programs share one. A hit must still be the submitted
    // program: the first keeps the slot, the others compile their own.
    auto parse = [](const char* text) {
        text::ParseResult parsed = text::parseProgram(text);
        EXPECT_TRUE(parsed.ok) << parsed.error;
        return parsed.program;
    };
    const Program misrouted = parse("cells 3\nmessage m 0 -> 2\n"
                                    "cell 0 { W(m) }\ncell 1 { R(m) }\n");
    const Program valid = parse("cells 3\nmessage m 0 -> 1\n"
                                "cell 0 { W(m) }\ncell 1 { R(m) }\n");
    const Program renamed = parse("cells 3\nmessage n 0 -> 1\n"
                                  "cell 0 { W(n) }\ncell 1 { R(n) }\n");
    const Topology topo = Topology::linearArray(3);
    const std::uint64_t key = CompileCache::keyFor(misrouted, topo, "");
    ASSERT_EQ(CompileCache::keyFor(valid, topo, ""), key);
    ASSERT_EQ(CompileCache::keyFor(renamed, topo, ""), key);

    CompileCache cache(4);
    bool hit = true;
    CachedProgram first = cache.get(key, Program(misrouted),
                                    SharedTopology(Topology(topo)), &hit);
    EXPECT_FALSE(hit);
    EXPECT_FALSE(first.compiled->valid());

    CachedProgram second = cache.get(key, Program(valid),
                                     SharedTopology(Topology(topo)), &hit);
    EXPECT_FALSE(hit);
    EXPECT_TRUE(second.compiled->valid()) << second.compiled->error();
    EXPECT_EQ(second.program->message(0).receiver, 1);

    CachedProgram third = cache.get(key, Program(renamed),
                                    SharedTopology(Topology(topo)), &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(third.program->message(0).name, "n");
    EXPECT_EQ(&third.compiled->program(), third.program.get());

    cache.get(key, Program(misrouted), SharedTopology(Topology(topo)),
              &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(cache.peek(key).program, first.program);
    const CompileCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 3u);
}

TEST(ServeCache, HitsMissesAndLruEviction)
{
    CompileCache cache(2);
    const Topology topo = Topology::linearArray(2);
    const std::uint64_t k1 = CompileCache::keyFor(tinyProgram(), topo, "a");
    const std::uint64_t k2 = CompileCache::keyFor(tinyProgram(), topo, "b");
    const std::uint64_t k3 = CompileCache::keyFor(tinyProgram(), topo, "c");

    bool hit = true;
    CachedProgram e1 =
        cache.get(k1, tinyProgram(), SharedTopology(Topology(topo)), &hit);
    ASSERT_TRUE(e1.valid());
    EXPECT_TRUE(e1.compiled->valid());
    EXPECT_FALSE(hit);
    cache.get(k1, tinyProgram(), SharedTopology(Topology(topo)), &hit);
    EXPECT_TRUE(hit);

    cache.get(k2, tinyProgram(), SharedTopology(Topology(topo)), &hit);
    EXPECT_FALSE(hit);
    // k1 was most-recently used just above, so inserting k3 into the
    // 2-entry cache must evict k2, not k1.
    cache.get(k1, tinyProgram(), SharedTopology(Topology(topo)), &hit);
    EXPECT_TRUE(hit);
    cache.get(k3, tinyProgram(), SharedTopology(Topology(topo)), &hit);
    EXPECT_FALSE(hit);
    EXPECT_TRUE(cache.peek(k1).valid());
    EXPECT_FALSE(cache.peek(k2).valid());
    EXPECT_TRUE(cache.peek(k3).valid());

    const CompileCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.capacity, 2u);
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 3u);
    EXPECT_EQ(stats.evictions, 1u);

    // The evicted entry's CompiledProgram stays alive while someone
    // holds it (shared ownership — that is the whole point).
    EXPECT_TRUE(e1.compiled->valid());
}

TEST(ServeCache, ConcurrentSameKeyBuildsExactlyOnce)
{
    CompileCache cache(8);
    const Topology topo = Topology::ring(4);
    text::ParseResult parsed = text::parseProgram(
        "cells 4\n"
        "message m0 0 -> 1\nmessage m1 1 -> 2\n"
        "message m2 2 -> 3\nmessage m3 3 -> 0\n"
        "cell 0 { W(m0) R(m3) }\ncell 1 { W(m1) R(m0) }\n"
        "cell 2 { W(m2) R(m1) }\ncell 3 { W(m3) R(m2) }\n");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const std::uint64_t key =
        CompileCache::keyFor(parsed.program, topo, "");

    const std::int64_t before = sim::CompiledProgram::buildCount();
    constexpr int kThreads = 8;
    std::atomic<int> hits{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            bool wasHit = false;
            Program copy = parsed.program;
            CachedProgram entry =
                cache.get(key, std::move(copy),
                          SharedTopology(Topology(topo)), &wasHit);
            ASSERT_TRUE(entry.valid()) << "thread " << i;
            EXPECT_TRUE(entry.compiled->valid());
            if (wasHit)
                hits.fetch_add(1);
        });
    }
    for (std::thread& t : threads)
        t.join();

    // The acceptance criterion: N concurrent identical submissions,
    // exactly one program-side analysis pass.
    EXPECT_EQ(sim::CompiledProgram::buildCount() - before, 1);
    EXPECT_EQ(hits.load(), kThreads - 1);
    const CompileCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, std::uint64_t(kThreads - 1));
}

TEST(ServeCache, InvalidProgramsAreCachedToo)
{
    CompileCache cache(4);
    const Topology topo = Topology::linearArray(2);
    // Unrouteable message (self-loop) fails validation
    // deterministically; re-compiling per client would buy nothing.
    text::ParseResult parsed = text::parseProgram(
        "cells 2\nmessage a 0 -> 0\ncell 0 { W(a) R(a) }\n");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const std::uint64_t key =
        CompileCache::keyFor(parsed.program, topo, "");

    bool hit = true;
    Program copy = parsed.program;
    CachedProgram entry = cache.get(
        key, std::move(copy), SharedTopology(Topology(topo)), &hit);
    ASSERT_TRUE(entry.valid());
    EXPECT_FALSE(entry.compiled->valid());
    EXPECT_FALSE(hit);
    Program copy2 = parsed.program;
    entry = cache.get(key, std::move(copy2),
                      SharedTopology(Topology(topo)), &hit);
    EXPECT_TRUE(hit);
    EXPECT_FALSE(entry.compiled->valid());
}

// ---------------------------------------------------------------------
// Live-daemon robustness: a bad client never takes the daemon down
// ---------------------------------------------------------------------

class ServeRobustness : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        DaemonOptions options;
        options.socketPath =
            tempPath("serve_robust_" +
                     std::to_string(::getpid()) + ".sock");
        options.workers = 1;
        options.maxLineBytes = 4096; // small so the tests can hit it
        daemon_ = std::make_unique<SyscommDaemon>(options);
        socketPath_ = options.socketPath;
        std::string error;
        ASSERT_TRUE(daemon_->start(error)) << error;
    }

    void TearDown() override { daemon_->stop(); }

    void connect(ServeClient& client)
    {
        std::string error;
        ASSERT_TRUE(client.connectUnix(socketPath_, error)) << error;
    }

    /** The daemon still answers a well-formed ping on a fresh
     *  connection — the health probe after every abuse. */
    void expectStillServing()
    {
        ServeClient probe;
        connect(probe);
        JsonValue response;
        std::string error;
        ASSERT_TRUE(probe.ping(response, error)) << error;
        EXPECT_TRUE(response.getBool("ok", false));
    }

    std::string socketPath_;
    std::unique_ptr<SyscommDaemon> daemon_;
};

TEST_F(ServeRobustness, MalformedLinesGetErrorsNotDisconnects)
{
    ServeClient client;
    connect(client);
    std::string response;
    std::string error;

    // Raw garbage, truncated JSON, a non-object document and an
    // unknown verb: each answers one error line on the SAME
    // connection — the session survives all four.
    const char* bad[] = {
        "this is not json",
        "{\"verb\": \"submit\", \"kind\":",
        "[1, 2, 3]",
        "{\"verb\": \"frobnicate\"}",
        "{\"nothing\": true}",
    };
    for (const char* line : bad) {
        ASSERT_TRUE(client.roundTrip(line, response, error))
            << line << ": " << error;
        JsonValue parsed;
        ASSERT_TRUE(parseJson(response, parsed, error)) << response;
        EXPECT_FALSE(parsed.getBool("ok", true)) << line;
        EXPECT_FALSE(parsed.getString("error").empty()) << line;
    }
    // And the connection still works for real traffic.
    ASSERT_TRUE(client.roundTrip("{\"verb\":\"ping\"}", response,
                                 error))
        << error;
    JsonValue parsed;
    ASSERT_TRUE(parseJson(response, parsed, error));
    EXPECT_TRUE(parsed.getBool("ok", false));
}

TEST_F(ServeRobustness, TagIsEchoedEvenOnErrors)
{
    ServeClient client;
    connect(client);
    JsonValue request = JsonValue::object();
    request.set("verb", JsonValue::str("status"));
    request.set("id", JsonValue::str("s-999999"));
    request.set("tag", JsonValue::integer(77));
    JsonValue response;
    std::string error;
    ASSERT_TRUE(client.request(request, response, error)) << error;
    EXPECT_FALSE(response.getBool("ok", true));
    EXPECT_EQ(response.getInt("tag", 0), 77);
}

TEST_F(ServeRobustness, OversizedLineAnswersOnceAndCloses)
{
    ServeClient client;
    connect(client);
    // One line beyond maxLineBytes (4096 here), sent in raw chunks
    // with no newline until the end.
    std::string huge(8192, 'x');
    huge = "{\"verb\":\"ping\",\"pad\":\"" + huge + "\"}\n";
    ASSERT_TRUE(client.sendBytes(huge));

    std::string response;
    std::string error;
    // The daemon answers a single "too long" error...
    ASSERT_TRUE(client.roundTrip("", response, error)) << error;
    JsonValue parsed;
    ASSERT_TRUE(parseJson(response, parsed, error)) << response;
    EXPECT_FALSE(parsed.getBool("ok", true));
    EXPECT_NE(parsed.getString("error").find("too long"),
              std::string::npos);
    // ...then hangs up: the next round trip fails.
    EXPECT_FALSE(client.roundTrip("{\"verb\":\"ping\"}", response,
                                  error));
    expectStillServing();
}

TEST_F(ServeRobustness, MidWriteDisconnectIsHarmless)
{
    {
        ServeClient client;
    connect(client);
        // Half a request line, no newline, then slam the connection.
        ASSERT_TRUE(client.sendBytes("{\"verb\":\"submit\", \"kind"));
        client.close();
    }
    {
        // Disconnect with a complete but unanswered pipeline too.
        ServeClient client;
    connect(client);
        ASSERT_TRUE(client.sendBytes(
            "{\"verb\":\"ping\"}\n{\"verb\":\"stats\"}\n"));
        client.close();
    }
    expectStillServing();
}

TEST_F(ServeRobustness, CrlfAndBlankLinesAreTolerated)
{
    ServeClient client;
    connect(client);
    ASSERT_TRUE(client.sendBytes("\n\r\n{\"verb\":\"ping\"}\r\n"));
    std::string response;
    std::string error;
    ASSERT_TRUE(client.roundTrip("", response, error)) << error;
    JsonValue parsed;
    ASSERT_TRUE(parseJson(response, parsed, error)) << response;
    EXPECT_TRUE(parsed.getBool("ok", false));
}

TEST_F(ServeRobustness, ManyAbusiveClientsConcurrently)
{
    // Hammer the daemon from several threads mixing valid pings with
    // garbage; TSan runs this suite too. Every thread must see the
    // daemon answer its valid traffic.
    constexpr int kClients = 6;
    std::atomic<int> served{0};
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            ServeClient client;
            std::string error;
            ASSERT_TRUE(client.connectUnix(socketPath_, error))
                << error;
            std::string response;
            for (int round = 0; round < 20; ++round) {
                if ((round + i) % 3 == 0)
                    client.roundTrip("garbage #" + std::to_string(i),
                                     response, error);
                ASSERT_TRUE(client.roundTrip("{\"verb\":\"ping\"}",
                                             response, error))
                    << error;
            }
            served.fetch_add(1);
        });
    }
    for (std::thread& t : threads)
        t.join();
    EXPECT_EQ(served.load(), kClients);
    expectStillServing();
}

} // namespace
} // namespace syscomm::serve
