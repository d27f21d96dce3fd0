/**
 * @file
 * Edge cases of the section 8.1 lookahead rules at their boundaries,
 * checked three ways against each other: the crossing-off procedure
 * with an explicit skip bound, the analyzer's inferred buffer bounds,
 * and real simulator runs at the matching queue shapes.
 *
 *  - R2 exactly at capacity: a write run of B words is free at skip
 *    bound B and wedged at B-1, and the machine behaves identically
 *    at per-queue capacity B vs B-1.
 *  - Zero bound: uniformSkipBound(0)/zeroSkipBound degenerate to the
 *    basic (lookahead-free) procedure on every program.
 *  - Per-message vs uniform bounds: a program whose two messages need
 *    different budgets — a uniform bound of 1 frees it while a
 *    per-message assignment with a *larger* maximum (but on the
 *    wrong message) stays wedged.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/analyze.h"
#include "core/crossoff.h"
#include "core/machine_spec.h"
#include "core/program.h"
#include "core/topology.h"
#include "sim/session.h"
#include "text/parser.h"

namespace syscomm {
namespace {

Program
parse(const std::string& source)
{
    const text::ParseResult result = text::parseProgram(source);
    EXPECT_TRUE(result.ok) << result.error;
    return result.program;
}

std::string
boundaryText(int words)
{
    std::ostringstream out;
    out << "cells 2\nmessage X 0 -> 1\nmessage Y 1 -> 0\n";
    out << "cell 0 {";
    for (int w = 0; w < words; ++w)
        out << " W(X)";
    for (int w = 0; w < words; ++w)
        out << " R(Y)";
    out << " }\ncell 1 {";
    for (int w = 0; w < words; ++w)
        out << " W(Y)";
    for (int w = 0; w < words; ++w)
        out << " R(X)";
    out << " }\n";
    return out.str();
}

bool
freeWithBound(const Program& program, SkipBoundFn bound)
{
    CrossOffOptions options;
    options.lookahead = true;
    options.skip_bound = std::move(bound);
    return crossOff(program, options).deadlockFree;
}

sim::RunStatus
runAtCapacity(const Program& program, int capacity)
{
    MachineSpec spec;
    spec.topo = SharedTopology(Topology::linearArray(2));
    spec.queuesPerLink = 2;
    spec.queueCapacity = capacity;
    sim::RunRequest request;
    request.policy = sim::PolicyKind::kFcfs;
    request.maxCycles = 100'000;
    return sim::SimSession(program, spec).run(request).status;
}

TEST(LookaheadEdge, SkipBoundExactlyAtWriteRun)
{
    const int kWords = 3;
    const Program program = parse(boundaryText(kWords));

    // Crossing-off: free at bound B, wedged one below.
    EXPECT_TRUE(freeWithBound(program, uniformSkipBound(kWords)));
    EXPECT_FALSE(freeWithBound(program, uniformSkipBound(kWords - 1)));

    // Analyzer: same boundary, expressed as capacity (1-hop routes).
    const AnalysisReport report =
        analyzeProgram(program, Topology::linearArray(2));
    EXPECT_EQ(report.minUniformSkipBound, kWords);
    EXPECT_EQ(report.minUniformCapacity, kWords);

    // Machine: deadlocks strictly below the bound, completes at it.
    EXPECT_EQ(runAtCapacity(program, kWords - 1),
              sim::RunStatus::kDeadlocked);
    EXPECT_EQ(runAtCapacity(program, kWords),
              sim::RunStatus::kCompleted);
}

TEST(LookaheadEdge, ZeroBoundDegeneratesToBasicProcedure)
{
    const char* sources[] = {
        // Wedged without buffering.
        "cells 2\nmessage X 0 -> 1\nmessage Y 1 -> 0\n"
        "cell 0 { W(X) W(X) R(Y) R(Y) }\n"
        "cell 1 { W(Y) W(Y) R(X) R(X) }\n",
        // Free without buffering (word-interleaved ping-pong).
        "cells 2\nmessage X 0 -> 1\nmessage Y 1 -> 0\n"
        "cell 0 { W(X) R(Y) W(X) R(Y) }\n"
        "cell 1 { R(X) W(Y) R(X) W(Y) }\n",
        // A read cycle (wedged at any bound).
        "cells 2\nmessage X 0 -> 1\nmessage Y 1 -> 0\n"
        "cell 0 { R(Y) W(X) }\n"
        "cell 1 { R(X) W(Y) }\n",
    };
    for (const char* source : sources) {
        const Program program = parse(source);
        const bool basic = crossOff(program, {}).deadlockFree;
        EXPECT_EQ(freeWithBound(program, zeroSkipBound()), basic)
            << source;
        EXPECT_EQ(freeWithBound(program, uniformSkipBound(0)), basic)
            << source;
    }
}

TEST(LookaheadEdge, PerMessageAndUniformBoundsDisagree)
{
    // X carries a 3-word write run; Y needs only one word of slack.
    // Frees via EITHER skipping 1 write of Y (reach R(X)) or 3 writes
    // of X (reach R(Y)).
    const Program program =
        parse("cells 2\nmessage X 0 -> 1\nmessage Y 1 -> 0\n"
              "cell 0 { W(X) W(X) W(X) R(Y) }\n"
              "cell 1 { W(Y) R(X) R(X) R(X) }\n");
    const MessageId msgX = 0;
    const MessageId msgY = 1;

    // A uniform bound of 1 suffices (the Y path).
    EXPECT_TRUE(freeWithBound(program, uniformSkipBound(1)));
    EXPECT_FALSE(freeWithBound(program, uniformSkipBound(0)));

    // A per-message assignment with max budget 2 — larger than the
    // sufficient uniform bound, but placed on the wrong message —
    // stays wedged: X's run needs 3 and Y got nothing.
    auto wrongMessage = [msgX, msgY](MessageId msg) {
        if (msg == msgX)
            return 2;
        return msg == msgY ? 0 : 0;
    };
    EXPECT_FALSE(freeWithBound(program, wrongMessage));

    // The same shape of assignment frees it once X's budget covers
    // the full run.
    auto enoughForX = [msgX](MessageId msg) {
        return msg == msgX ? 3 : 0;
    };
    EXPECT_TRUE(freeWithBound(program, enoughForX));

    // The analyzer's uniform bound is the cheap sufficient one, and
    // the machine agrees: per-queue capacity 1 completes.
    const AnalysisReport report =
        analyzeProgram(program, Topology::linearArray(2));
    EXPECT_EQ(report.minUniformCapacity, 1);
    EXPECT_EQ(runAtCapacity(program, 1), sim::RunStatus::kCompleted);
}

TEST(LookaheadEdge, ExtensionCapacityCountsTowardTheBound)
{
    const int kWords = 4;
    const Program program = parse(boundaryText(kWords));
    const Topology topo = Topology::linearArray(2);

    AnalyzeOptions base;
    base.queueCapacity = 1;
    EXPECT_EQ(analyzeProgram(program, topo, base).verdict,
              LintVerdict::kDeadlock);

    // capacity 1 + extension 3 buffers 4 words: free (section 8).
    AnalyzeOptions extended = base;
    extended.extensionCapacity = kWords - 1;
    EXPECT_NE(analyzeProgram(program, topo, extended).verdict,
              LintVerdict::kDeadlock);

    // And the machine with the extension completes where the
    // unextended one wedges.
    MachineSpec spec;
    spec.topo = SharedTopology(Topology::linearArray(2));
    spec.queuesPerLink = 2;
    spec.queueCapacity = 1;
    spec.extensionCapacity = kWords - 1;
    sim::RunRequest request;
    request.policy = sim::PolicyKind::kFcfs;
    request.maxCycles = 100'000;
    EXPECT_EQ(sim::SimSession(program, spec).run(request).status,
              sim::RunStatus::kCompleted);
    EXPECT_EQ(runAtCapacity(program, 1),
              sim::RunStatus::kDeadlocked);
}

} // namespace
} // namespace syscomm
