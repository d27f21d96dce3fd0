/**
 * @file
 * 2-D mesh support: the paper's machinery applied to a higher
 * dimensionality (mesh matmul with XY routing).
 */

#include <gtest/gtest.h>

#include "algos/mesh_matmul.h"
#include "core/crossoff.h"
#include "core/label_verify.h"
#include "core/program_gen.h"
#include "sim/session.h"
#include "test_support.h"

namespace syscomm {
namespace {

using sim::RunStatus;

class MatMulSweep : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(MatMulSweep, MatchesReference)
{
    auto [n, k] = GetParam();
    algos::MatMulSpec spec = algos::MatMulSpec::random(n, k, n * 37 + k);
    Program p = algos::makeMatMulProgram(spec);
    ASSERT_TRUE(p.valid());
    EXPECT_TRUE(isDeadlockFree(p));

    MachineSpec machine;
    machine.topo = algos::matmulTopology(spec);
    machine.queuesPerLink = 4;
    sim::SimSession session(p, machine);
    const auto report = session.compiled()->analysis(machine);
    ASSERT_EQ(report->verdict, LintVerdict::kCertified)
        << report->render(p);

    sim::RunLog log(p);
    sim::RunResult r = session.run(observedBy(log));
    ASSERT_EQ(r.status, RunStatus::kCompleted) << r.statusStr();

    std::vector<double> got =
        algos::extractMatMulResult(p, log.received, spec);
    std::vector<double> expected = algos::matmulReference(spec);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_NEAR(got[i], expected[i], 1e-9) << "entry " << i;
}

INSTANTIATE_TEST_SUITE_P(
    NByK, MatMulSweep,
    ::testing::Combine(::testing::Values(2, 3, 4),
                       ::testing::Values(1, 2, 5)),
    [](const auto& info) {
        return "n" + std::to_string(std::get<0>(info.param)) + "_k" +
               std::to_string(std::get<1>(info.param));
    });

TEST(Mesh, MatMulLabelingIsConsistent)
{
    algos::MatMulSpec spec = algos::MatMulSpec::random(3, 2, 5);
    Program p = algos::makeMatMulProgram(spec);
    Labeling labeling = labelMessages(p);
    ASSERT_TRUE(labeling.success) << labeling.error;
    EXPECT_TRUE(isConsistentLabeling(p, labeling.labels));
}

TEST(Mesh, StreamsShareOneLabelClass)
{
    // Interleaved A/B handling inside each cell makes the whole
    // A/B-stream family one related class.
    algos::MatMulSpec spec = algos::MatMulSpec::random(2, 3, 9);
    Program p = algos::makeMatMulProgram(spec);
    auto a01 = p.messageByName("A0_1");
    auto b10 = p.messageByName("B1_0");
    ASSERT_TRUE(a01 && b10);
    Labeling labeling = labelMessages(p);
    ASSERT_TRUE(labeling.success);
    EXPECT_EQ(labeling.labels[*a01], labeling.labels[*b10]);
}

TEST(Mesh, RandomProgramsOnMeshComplete)
{
    // End-to-end Theorem 1 exercise on a mesh topology.
    Topology topo = Topology::mesh(3, 3);
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        GenOptions gen;
        gen.numMessages = 8;
        gen.maxWords = 4;
        gen.seed = seed + 100;
        Program p = randomDeadlockFreeProgram(topo, gen);

        MachineSpec machine;
        machine.topo = topo;
        machine.queuesPerLink = gen.numMessages; // generous
        sim::RunResult r = sim::SimSession(p, machine).run();
        EXPECT_EQ(r.status, RunStatus::kCompleted)
            << "seed " << seed << ": " << r.statusStr();
    }
}

} // namespace
} // namespace syscomm
