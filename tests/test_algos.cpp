/**
 * @file
 * Convolution, matrix-vector, sorting, and stream generators: each
 * workload validates, passes the deadlock analyses, and computes the
 * right values on the simulator.
 */

#include <algorithm>
#include <gtest/gtest.h>

#include "algos/convolution.h"
#include "algos/matvec.h"
#include "algos/sort.h"
#include "algos/streams.h"
#include "core/crossoff.h"
#include "sim/session.h"
#include "test_support.h"

namespace syscomm {
namespace {

using sim::RunStatus;

MachineSpec
machineFor(Topology topo, int queues = 2)
{
    MachineSpec s;
    s.topo = std::move(topo);
    s.queuesPerLink = queues;
    return s;
}

// ---------------------------------------------------------------------
// Convolution
// ---------------------------------------------------------------------

class ConvSweep : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(ConvSweep, MatchesReference)
{
    auto [kernel, outputs] = GetParam();
    algos::ConvSpec spec =
        algos::ConvSpec::random(kernel, outputs, kernel * 71 + outputs);
    Program p = algos::makeConvolutionProgram(spec);
    ASSERT_TRUE(p.valid());
    EXPECT_TRUE(isDeadlockFree(p));

    MachineSpec machine = machineFor(algos::convTopology(spec));
    sim::SimSession session(p, machine);
    const auto report = session.compiled()->analysis(machine);
    ASSERT_EQ(report->verdict, LintVerdict::kCertified)
        << report->render(p);

    sim::RunLog log(p);
    sim::RunResult r = session.run(observedBy(log));
    ASSERT_EQ(r.status, RunStatus::kCompleted) << r.statusStr();
    std::vector<double> expected = algos::convReference(spec);
    for (int i = 1; i <= outputs; ++i) {
        auto id = *p.messageByName("R" + std::to_string(i));
        ASSERT_EQ(log.received[id].size(), 1u);
        EXPECT_NEAR(log.received[id][0], expected[i - 1], 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(
    KernelByOutputs, ConvSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 5),
                       ::testing::Values(1, 2, 4, 6)),
    [](const auto& info) {
        return "k" + std::to_string(std::get<0>(info.param)) + "_n" +
               std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// Matrix-vector
// ---------------------------------------------------------------------

class MatVecSweep : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(MatVecSweep, MatchesReference)
{
    auto [rows, cols] = GetParam();
    algos::MatVecSpec spec =
        algos::MatVecSpec::random(rows, cols, rows * 13 + cols);
    Program p = algos::makeMatVecProgram(spec);
    ASSERT_TRUE(p.valid());
    EXPECT_TRUE(isDeadlockFree(p));

    MachineSpec machine = machineFor(algos::matvecTopology(spec));
    sim::RunLog log(p);
    sim::RunResult r = sim::SimSession(p, machine).run(observedBy(log));
    ASSERT_EQ(r.status, RunStatus::kCompleted) << r.statusStr();

    std::vector<double> expected = algos::matvecReference(spec);
    auto pn = *p.messageByName("P" + std::to_string(cols));
    ASSERT_EQ(log.received[pn].size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_NEAR(log.received[pn][i], expected[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    RowsByCols, MatVecSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 5),
                       ::testing::Values(1, 2, 3, 6)),
    [](const auto& info) {
        return "m" + std::to_string(std::get<0>(info.param)) + "_n" +
               std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// Odd-even transposition sort
// ---------------------------------------------------------------------

class SortSweep : public ::testing::TestWithParam<int>
{};

TEST_P(SortSweep, SortsRandomInputs)
{
    int n = GetParam();
    algos::SortSpec spec = algos::SortSpec::random(n, n * 7 + 1);
    Program p = algos::makeSortProgram(spec);
    ASSERT_TRUE(p.valid());
    EXPECT_TRUE(isDeadlockFree(p));

    MachineSpec machine = machineFor(algos::sortTopology(spec));
    sim::RunLog log(p);
    sim::RunResult r = sim::SimSession(p, machine).run(observedBy(log));
    ASSERT_EQ(r.status, RunStatus::kCompleted) << r.statusStr();

    std::vector<double> got = algos::extractSorted(p, log.received, n);
    std::vector<double> expected = spec.values;
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_DOUBLE_EQ(got[i], expected[i]) << "slot " << i;
}

INSTANTIATE_TEST_SUITE_P(Sizes, SortSweep,
                         ::testing::Values(2, 3, 4, 5, 8, 12));

TEST(Sort, AlreadySortedAndReversed)
{
    for (bool reversed : {false, true}) {
        algos::SortSpec spec;
        for (int i = 0; i < 6; ++i)
            spec.values.push_back(reversed ? 6.0 - i : 1.0 + i);
        Program p = algos::makeSortProgram(spec);
        sim::RunLog log(p);
        sim::RunResult r =
            sim::SimSession(p, machineFor(algos::sortTopology(spec)))
                .run(observedBy(log));
        ASSERT_EQ(r.status, RunStatus::kCompleted);
        std::vector<double> got = algos::extractSorted(p, log.received, 6);
        for (int i = 0; i < 6; ++i)
            EXPECT_DOUBLE_EQ(got[i], 1.0 + i);
    }
}

// ---------------------------------------------------------------------
// Stream generators
// ---------------------------------------------------------------------

TEST(Streams, AllPatternsAreDeadlockFree)
{
    for (auto pattern :
         {algos::StreamPattern::kSequential,
          algos::StreamPattern::kInterleaved,
          algos::StreamPattern::kFanIn, algos::StreamPattern::kFanOut}) {
        algos::StreamSpec spec;
        spec.numCells = 5;
        spec.numStreams = 3;
        spec.wordsPerStream = 4;
        spec.pattern = pattern;
        Program p = algos::makeStreamsProgram(spec);
        EXPECT_TRUE(p.valid()) << algos::streamPatternName(pattern);
        EXPECT_TRUE(isDeadlockFree(p))
            << algos::streamPatternName(pattern);
    }
}

TEST(Streams, InterleavedNeedsAQueuePerStream)
{
    algos::StreamSpec spec;
    spec.numCells = 3;
    spec.numStreams = 3;
    spec.wordsPerStream = 3;
    spec.pattern = algos::StreamPattern::kInterleaved;
    Program p = algos::makeStreamsProgram(spec);

    // With numStreams queues: completes.
    sim::RunResult ok =
        sim::SimSession(p, machineFor(algos::streamsTopology(spec), 3)).run();
    EXPECT_EQ(ok.status, RunStatus::kCompleted);
    // With fewer, the same-label group cannot be placed.
    sim::RunResult bad =
        sim::SimSession(p, machineFor(algos::streamsTopology(spec), 2)).run();
    EXPECT_EQ(bad.status, RunStatus::kDeadlocked);
}

TEST(Streams, SequentialRunsWithOneQueue)
{
    algos::StreamSpec spec;
    spec.numCells = 4;
    spec.numStreams = 4;
    spec.wordsPerStream = 3;
    spec.pattern = algos::StreamPattern::kSequential;
    Program p = algos::makeStreamsProgram(spec);
    sim::RunResult r =
        sim::SimSession(p, machineFor(algos::streamsTopology(spec), 1)).run();
    EXPECT_EQ(r.status, RunStatus::kCompleted) << r.statusStr();
}

TEST(Streams, FanPatternsCompleteWithEnoughQueues)
{
    for (auto pattern :
         {algos::StreamPattern::kFanIn, algos::StreamPattern::kFanOut}) {
        algos::StreamSpec spec;
        spec.numCells = 4;
        spec.numStreams = 3;
        spec.wordsPerStream = 3;
        spec.pattern = pattern;
        Program p = algos::makeStreamsProgram(spec);
        sim::RunResult r =
            sim::SimSession(p, machineFor(algos::streamsTopology(spec), 3))
                .run();
        EXPECT_EQ(r.status, RunStatus::kCompleted)
            << algos::streamPatternName(pattern) << ": " << r.statusStr();
    }
}

} // namespace
} // namespace syscomm
