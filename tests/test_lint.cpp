/**
 * @file
 * End-to-end tests of the daemon's static-analysis surface over a
 * live Unix socket: the `lint` verb answers with the full report and
 * shares the compile cache, `--lint warn` admits everything but
 * stamps diagnostics onto terminal results, and `--lint enforce`
 * rejects statically-deadlocked submissions at admission — with the
 * blocked-cycle witness in the reply and zero simulation cycles
 * spent.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <memory>
#include <sstream>
#include <string>

#include "core/analyze.h"
#include "core/topology.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/json.h"
#include "serve/lint.h"
#include "text/parser.h"

namespace syscomm::serve {
namespace {

const char* kReadCycle = "cells 2\n"
                         "message X 0 -> 1\n"
                         "message Y 1 -> 0\n"
                         "cell 0 { R(Y) W(X) }\n"
                         "cell 1 { R(X) W(Y) }\n";

/** Fig. 7 of the paper: certified, zero diagnostics. */
const char* kFig7 = "cells 4\n"
                    "message A 1 -> 2\n"
                    "message B 2 -> 3\n"
                    "message C 0 -> 3\n"
                    "cell 0 { W(C) W(C) W(C) W(C) }\n"
                    "cell 1 { W(A) W(A) W(A) W(A) }\n"
                    "cell 2 { R(A) R(A) R(A) R(A)"
                    " W(B) W(B) W(B) W(B) }\n"
                    "cell 3 { R(C) R(C) R(C) R(C)"
                    " R(B) R(B) R(B) R(B) }\n";

/** Word-interleaved ring: deadlock-free on any shape (via lookahead
 *  buffering — "unknown" to the analyzer, not certified). */
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
linearTopology(int cells)
{
    return JsonValue::object()
        .set("kind", JsonValue::str("linear"))
        .set("cells", JsonValue::integer(cells));
}

JsonValue
runBody(const std::string& program, JsonValue topology,
        const std::string& policy)
{
    JsonValue body = JsonValue::object();
    body.set("kind", JsonValue::str("run"));
    body.set("program", JsonValue::str(program));
    body.set("topology", std::move(topology));
    body.set("shape", JsonValue::object()
                          .set("queues", JsonValue::integer(2))
                          .set("capacity", JsonValue::integer(1)));
    JsonValue requests = JsonValue::array();
    requests.push(JsonValue::object()
                      .set("policy", JsonValue::str(policy))
                      .set("seed", JsonValue::integer(1)));
    body.set("requests", std::move(requests));
    return body;
}

struct DaemonHandle
{
    std::unique_ptr<SyscommDaemon> daemon;
    std::string socketPath;

    void start(DaemonOptions::LintMode mode, const char* tag)
    {
        DaemonOptions options;
        options.socketPath = testing::TempDir() + "sc_lint_" + tag +
                             "_" + std::to_string(::getpid()) +
                             ".sock";
        options.workers = 2;
        options.lintMode = mode;
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

JsonValue
lintRequest(const std::string& program)
{
    JsonValue msg = JsonValue::object();
    msg.set("verb", JsonValue::str("lint"));
    msg.set("program", JsonValue::str(program));
    msg.set("topology", linearTopology(2));
    return msg;
}

TEST(ServeLint, LintVerbReportsWitnessAndSharesTheCache)
{
    DaemonHandle handle;
    handle.start(DaemonOptions::LintMode::kOff, "verb");
    ServeClient client;
    handle.connect(client);

    JsonValue response;
    std::string error;
    ASSERT_TRUE(client.request(lintRequest(kReadCycle), response,
                               error))
        << error;
    EXPECT_TRUE(response.getBool("ok", false)) << writeJson(response);
    EXPECT_FALSE(response.getBool("cached_compile", true));
    const JsonValue* lint = response.find("lint");
    ASSERT_NE(lint, nullptr);
    EXPECT_EQ(lint->getString("verdict"), "deadlock");
    const JsonValue* witness = lint->find("witness");
    ASSERT_NE(witness, nullptr);
    const JsonValue* cycle = witness->find("cycle");
    ASSERT_NE(cycle, nullptr);
    EXPECT_EQ(cycle->items().size(), 2u);
    EXPECT_FALSE(response.getString("digest").empty());

    // Same program again: the compile (and with it the memoized
    // analysis) is a cache hit.
    JsonValue again;
    ASSERT_TRUE(client.request(lintRequest(kReadCycle), again,
                               error))
        << error;
    EXPECT_TRUE(again.getBool("cached_compile", false))
        << writeJson(again);
    EXPECT_EQ(again.getString("digest"),
              response.getString("digest"));

    // The verb answers on any daemon; admission stays un-gated in
    // kOff (the deadlocked run is admitted and dynamically wedges).
    std::string id;
    JsonValue submitResponse;
    ASSERT_TRUE(client.submit(
        runBody(kReadCycle, linearTopology(2), "fcfs"), id,
        submitResponse, error))
        << error;
    EXPECT_TRUE(submitResponse.getBool("ok", false));
    JsonValue status;
    ASSERT_TRUE(client.waitTerminal(id, 60'000, status, error))
        << error;
    EXPECT_EQ(status.getString("state"), "deadlocked");
}

TEST(ServeLint, LintVerbReportsWhatAnalyzeProgramReports)
{
    DaemonHandle handle;
    handle.start(DaemonOptions::LintMode::kOff, "same");
    ServeClient client;
    handle.connect(client);

    // The verb answers from the compiled program's memoized facts; its
    // report must be the standalone analyzer's byte for byte: for an
    // invalid program (two reads of a one-word message), a deadlocked
    // one (witness), one free only with lookahead buffering whose
    // section 6 labeling falls back (SL020), and a certified one. The
    // second shape of each is finished from the facts the first
    // derived.
    struct Case
    {
        std::string text;
        const char* topology;
        const char* verdict;
    };
    const Case cases[] = {
        {"cells 2\n"
         "message X 0 -> 1\n"
         "cell 0 { W(X) }\n"
         "cell 1 { R(X) R(X) }\n",
         "linear", "invalid"},
        {kReadCycle, "linear", "deadlock"},
        {ringText(4, 3), "ring", "unknown"},
        {kFig7, "linear", "certified"},
    };
    for (const Case& c : cases) {
        const text::ParseResult parsed = text::parseProgram(c.text);
        ASSERT_TRUE(parsed.ok) << parsed.error;
        const int cells = parsed.program.numCells();
        const Topology topo = std::string(c.topology) == "ring"
                                  ? Topology::ring(cells)
                                  : Topology::linearArray(cells);
        for (const auto& [queues, capacity] :
             {std::pair<int, int>{2, 1}, std::pair<int, int>{1, 3}}) {
            JsonValue msg = JsonValue::object();
            msg.set("verb", JsonValue::str("lint"));
            msg.set("program", JsonValue::str(c.text));
            msg.set("topology",
                    JsonValue::object()
                        .set("kind", JsonValue::str(c.topology))
                        .set("cells", JsonValue::integer(cells)));
            msg.set("shape", JsonValue::object()
                                 .set("queues", JsonValue::integer(queues))
                                 .set("capacity",
                                      JsonValue::integer(capacity)));
            JsonValue response;
            std::string error;
            ASSERT_TRUE(client.request(msg, response, error)) << error;
            const JsonValue* lint = response.find("lint");
            ASSERT_NE(lint, nullptr) << writeJson(response);

            AnalyzeOptions options;
            options.queuesPerLink = queues;
            options.queueCapacity = capacity;
            const AnalysisReport expected =
                analyzeProgram(parsed.program, topo, options);
            EXPECT_EQ(writeJson(*lint),
                      writeJson(lintReportJson(expected, parsed.program)));
            EXPECT_EQ(lint->getString("verdict"), c.verdict)
                << writeJson(*lint);
        }
    }
}

/** The message names along a lint response's witness cycle. */
std::string
witnessMessages(const JsonValue& response)
{
    std::string names;
    const JsonValue* lint = response.find("lint");
    const JsonValue* witness =
        lint != nullptr ? lint->find("witness") : nullptr;
    const JsonValue* cycle =
        witness != nullptr ? witness->find("cycle") : nullptr;
    if (cycle == nullptr)
        return names;
    for (const JsonValue& entry : cycle->items())
        names += entry.getString("msg");
    return names;
}

TEST(ServeLint, LintRendersTheRequestsOwnMessageNames)
{
    DaemonHandle handle;
    handle.start(DaemonOptions::LintMode::kOff, "names");
    ServeClient client;
    handle.connect(client);

    // Renaming the messages leaves the compile-cache key as it is; the
    // witness must still name the messages each request sent.
    const std::string renamed = "cells 2\n"
                                "message P 0 -> 1\n"
                                "message Q 1 -> 0\n"
                                "cell 0 { R(Q) W(P) }\n"
                                "cell 1 { R(P) W(Q) }\n";
    JsonValue original;
    JsonValue variant;
    std::string error;
    ASSERT_TRUE(client.request(lintRequest(kReadCycle), original, error))
        << error;
    ASSERT_TRUE(client.request(lintRequest(renamed), variant, error))
        << error;
    EXPECT_EQ(variant.getString("digest"), original.getString("digest"));
    EXPECT_FALSE(variant.getBool("cached_compile", true));

    const std::string xy = witnessMessages(original);
    ASSERT_EQ(xy.size(), 2u) << writeJson(original);
    EXPECT_EQ(xy.find_first_not_of("XY"), std::string::npos) << xy;
    const std::string pq = witnessMessages(variant);
    ASSERT_EQ(pq.size(), 2u) << writeJson(variant);
    EXPECT_EQ(pq.find_first_not_of("PQ"), std::string::npos) << pq;
}

TEST(ServeLint, WarnModeStampsDiagnosticsOnTheResult)
{
    DaemonHandle handle;
    handle.start(DaemonOptions::LintMode::kWarn, "warn");
    ServeClient client;
    handle.connect(client);

    // The deadlocked program is still admitted (warn does not gate),
    // wedges dynamically, and its result carries the lint report.
    std::string id;
    JsonValue response;
    std::string error;
    ASSERT_TRUE(client.submit(
        runBody(kReadCycle, linearTopology(2), "fcfs"), id, response,
        error))
        << error;
    EXPECT_TRUE(response.getBool("ok", false)) << writeJson(response);
    JsonValue status;
    ASSERT_TRUE(client.waitTerminal(id, 60'000, status, error))
        << error;
    EXPECT_EQ(status.getString("state"), "deadlocked");

    JsonValue result;
    ASSERT_TRUE(client.result(id, result, error)) << error;
    const JsonValue* body = result.find("result");
    ASSERT_NE(body, nullptr) << writeJson(result);
    const JsonValue* lint = body->find("lint");
    ASSERT_NE(lint, nullptr) << writeJson(result);
    EXPECT_EQ(lint->getString("verdict"), "deadlock");
    ASSERT_NE(lint->find("witness"), nullptr);

    // A certified program's result stays clean: no lint member.
    std::string cleanId;
    ASSERT_TRUE(client.submit(
        runBody(kFig7, linearTopology(4), "compatible"), cleanId,
        response, error))
        << error;
    ASSERT_TRUE(client.waitTerminal(cleanId, 60'000, status, error))
        << error;
    EXPECT_EQ(status.getString("state"), "completed");
    JsonValue cleanResult;
    ASSERT_TRUE(client.result(cleanId, cleanResult, error)) << error;
    const JsonValue* cleanBody = cleanResult.find("result");
    ASSERT_NE(cleanBody, nullptr);
    EXPECT_EQ(cleanBody->find("lint"), nullptr)
        << writeJson(cleanResult);
}

TEST(ServeLint, EnforceRejectsBeforeAnySimulationCycle)
{
    DaemonHandle handle;
    handle.start(DaemonOptions::LintMode::kEnforce, "enforce");
    ServeClient client;
    handle.connect(client);

    std::string id;
    JsonValue response;
    std::string error;
    const bool accepted = client.submit(
        runBody(kReadCycle, linearTopology(2), "fcfs"), id, response,
        error);
    EXPECT_FALSE(accepted && response.getBool("ok", false))
        << writeJson(response);
    EXPECT_EQ(response.getString("rejected"), "lint");
    EXPECT_EQ(response.getString("state"), "rejected");
    const JsonValue* lint = response.find("lint");
    ASSERT_NE(lint, nullptr) << writeJson(response);
    EXPECT_EQ(lint->getString("verdict"), "deadlock");
    const JsonValue* witness = lint->find("witness");
    ASSERT_NE(witness, nullptr);
    EXPECT_EQ(witness->find("cycle")->items().size(), 2u);

    // Rejected at admission: nothing ever compiled-for-run, ran, or
    // terminated — the counters prove zero simulation happened.
    JsonValue stats = handle.daemon->statsJson();
    EXPECT_EQ(stats.getString("lint_mode"), "enforce");
    const JsonValue* queue = stats.find("queue");
    ASSERT_NE(queue, nullptr);
    EXPECT_EQ(queue->getInt("rejected_lint", -1), 1);
    const JsonValue* subs = stats.find("submissions");
    ASSERT_NE(subs, nullptr);
    EXPECT_EQ(subs->getInt("running", -1), 0);
    EXPECT_EQ(subs->getInt("completed", -1), 0);
    EXPECT_EQ(subs->getInt("deadlocked", -1), 0);

    // A certified program sails through enforce — and because the
    // admission gate already compiled it through the shared cache,
    // even this FIRST submission's execution is a cache hit.
    std::string cleanId;
    ASSERT_TRUE(client.submit(
        runBody(ringText(4, 8),
                JsonValue::object()
                    .set("kind", JsonValue::str("ring"))
                    .set("cells", JsonValue::integer(4)),
                "compatible"),
        cleanId, response, error))
        << error;
    EXPECT_TRUE(response.getBool("ok", false)) << writeJson(response);
    JsonValue status;
    ASSERT_TRUE(client.waitTerminal(cleanId, 60'000, status, error))
        << error;
    EXPECT_EQ(status.getString("state"), "completed");
    JsonValue result;
    ASSERT_TRUE(client.result(cleanId, result, error)) << error;
    const JsonValue* body = result.find("result");
    ASSERT_NE(body, nullptr);
    EXPECT_TRUE(body->getBool("cached_compile", false))
        << writeJson(result);
}

TEST(ServeLint, IdempotentRetryDedupsAheadOfTheGate)
{
    DaemonHandle handle;
    handle.start(DaemonOptions::LintMode::kEnforce, "dedup");
    ServeClient client;
    handle.connect(client);

    JsonValue body = runBody(ringText(4, 8),
                             JsonValue::object()
                                 .set("kind", JsonValue::str("ring"))
                                 .set("cells",
                                      JsonValue::integer(4)),
                             "compatible");
    body.set("idempotency_key", JsonValue::str("job-lint-1"));

    std::string id1;
    JsonValue response1;
    std::string error;
    ASSERT_TRUE(client.submit(body, id1, response1, error)) << error;
    EXPECT_TRUE(response1.getBool("ok", false));

    // The retry lands on the original id without re-running the
    // admission analysis gate.
    std::string id2;
    JsonValue response2;
    ASSERT_TRUE(client.submit(body, id2, response2, error)) << error;
    EXPECT_TRUE(response2.getBool("ok", false));
    EXPECT_EQ(id2, id1);
    EXPECT_TRUE(response2.getBool("deduplicated", false))
        << writeJson(response2);
}

} // namespace
} // namespace syscomm::serve
