/**
 * @file
 * Generated FIR programs (Fig. 2 generalized): parameterized sweep
 * over taps and outputs, checking deadlock-freedom, labeling,
 * simulation, and numerics against the direct reference.
 */

#include <gtest/gtest.h>

#include "algos/fir.h"
#include "core/crossoff.h"
#include "sim/session.h"
#include "test_support.h"

namespace syscomm {
namespace {

using algos::FirSpec;
using algos::firReference;
using algos::firTopology;
using algos::makeFirProgram;
using sim::RunStatus;

class FirSweep : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(FirSweep, EndToEnd)
{
    auto [taps, outputs] = GetParam();
    FirSpec spec = FirSpec::random(taps, outputs,
                                   1000 + taps * 31 + outputs);
    Program p = makeFirProgram(spec);
    ASSERT_TRUE(p.valid());
    EXPECT_TRUE(isDeadlockFree(p));

    MachineSpec machine;
    machine.topo = firTopology(taps);
    machine.queuesPerLink = 2;
    sim::SimSession session(p, machine);
    const auto report = session.compiled()->analysis(machine);
    ASSERT_EQ(report->verdict, LintVerdict::kCertified)
        << report->render(p);
    EXPECT_FALSE(report->labelingFellBack);

    sim::RunLog log(p);
    sim::RunResult r = session.run(observedBy(log));
    ASSERT_EQ(r.status, RunStatus::kCompleted) << r.statusStr();
    EXPECT_TRUE(sim::auditAssignments(p, session.compiled()->competing(),
                                      r.labelsUsed, log.events)
                    .compatible);

    auto y = *p.messageByName(algos::firHostOutputMessage());
    std::vector<double> expected = firReference(spec);
    ASSERT_EQ(log.received[y].size(), expected.size());
    for (std::size_t j = 0; j < expected.size(); ++j)
        EXPECT_NEAR(log.received[y][j], expected[j], 1e-9) << "y" << j;
}

INSTANTIATE_TEST_SUITE_P(
    TapsByOutputs, FirSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 6, 8),
                       ::testing::Values(1, 2, 4, 7)),
    [](const auto& info) {
        return "taps" + std::to_string(std::get<0>(info.param)) +
               "_out" + std::to_string(std::get<1>(info.param));
    });

TEST(Fir, PaperExampleMatchesHandComputation)
{
    FirSpec spec = FirSpec::paperExample();
    std::vector<double> y = firReference(spec);
    ASSERT_EQ(y.size(), 2u);
    EXPECT_DOUBLE_EQ(y[0], 3 * 1 + 5 * 2 + 7 * 3.0);
    EXPECT_DOUBLE_EQ(y[1], 3 * 2 + 5 * 3 + 7 * 4.0);
}

TEST(Fir, GeneratedProgramHasPaperMessageStructure)
{
    FirSpec spec = FirSpec::paperExample();
    Program p = makeFirProgram(spec);
    // X1 has outputs + taps - 1 words, shrinking by one per cell; the
    // Y streams all carry `outputs` words.
    EXPECT_EQ(p.messageLength(*p.messageByName("X1")), 4);
    EXPECT_EQ(p.messageLength(*p.messageByName("X2")), 3);
    EXPECT_EQ(p.messageLength(*p.messageByName("X3")), 2);
    for (const char* y : {"Y1", "Y2", "Y3"})
        EXPECT_EQ(p.messageLength(*p.messageByName(y)), 2) << y;
}

TEST(Fir, HigherBufferDoesNotChangeResults)
{
    FirSpec spec = FirSpec::random(4, 5, 99);
    Program p = makeFirProgram(spec);
    MachineSpec machine;
    machine.topo = firTopology(4);
    machine.queuesPerLink = 2;
    std::vector<double> expected = firReference(spec);
    for (int capacity : {1, 2, 8}) {
        machine.queueCapacity = capacity;
        sim::RunLog log(p);
        sim::RunResult r = sim::SimSession(p, machine).run(observedBy(log));
        ASSERT_EQ(r.status, RunStatus::kCompleted) << capacity;
        auto y = *p.messageByName("Y1");
        for (std::size_t j = 0; j < expected.size(); ++j)
            EXPECT_NEAR(log.received[y][j], expected[j], 1e-9);
    }
}

TEST(Fir, DeeperBuffersNeverSlowItDown)
{
    FirSpec spec = FirSpec::random(4, 8, 7);
    Program p = makeFirProgram(spec);
    MachineSpec machine;
    machine.topo = firTopology(4);
    machine.queuesPerLink = 2;
    machine.queueCapacity = 1;
    Cycle shallow = sim::SimSession(p, machine).run().cycles;
    machine.queueCapacity = 4;
    Cycle deep = sim::SimSession(p, machine).run().cycles;
    EXPECT_LE(deep, shallow);
}

} // namespace
} // namespace syscomm
