/**
 * @file
 * LCS on a linear systolic array (the paper's P-NAC reference [8]):
 * parameterized sweep against the direct DP, plus analysis checks.
 */

#include <gtest/gtest.h>

#include "algos/align.h"
#include "core/crossoff.h"
#include "core/related.h"
#include "sim/session.h"
#include "test_support.h"

namespace syscomm {
namespace {

using sim::RunStatus;

int
runLcs(const algos::AlignSpec& spec)
{
    Program p = algos::makeLcsProgram(spec);
    if (!p.valid())
        return -2;
    MachineSpec machine;
    machine.topo = algos::alignTopology(spec);
    machine.queuesPerLink = 2;
    sim::RunLog log(p);
    sim::RunResult r = sim::SimSession(p, machine).run(observedBy(log));
    if (r.status != RunStatus::kCompleted)
        return -1;
    auto res = *p.messageByName("RES");
    return static_cast<int>(log.received[res][0]);
}

class LcsSweep : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(LcsSweep, MatchesDpReference)
{
    auto [la, lb] = GetParam();
    algos::AlignSpec spec = algos::AlignSpec::random(la, lb, la * 17 + lb);
    EXPECT_EQ(runLcs(spec), algos::lcsReference(spec));
}

INSTANTIATE_TEST_SUITE_P(
    Lengths, LcsSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 6, 9),
                       ::testing::Values(1, 3, 5, 8)),
    [](const auto& info) {
        return "a" + std::to_string(std::get<0>(info.param)) + "_b" +
               std::to_string(std::get<1>(info.param));
    });

TEST(Lcs, KnownCases)
{
    EXPECT_EQ(runLcs({"ACGT", "ACGT"}), 4);
    EXPECT_EQ(runLcs({"AAAA", "TTTT"}), 0);
    EXPECT_EQ(runLcs({"ACGT", "TGCA"}), 1);
    EXPECT_EQ(runLcs({"AGCAT", "GAC"}), 2);
    EXPECT_EQ(runLcs({"A", "A"}), 1);
}

TEST(Lcs, ProgramIsDeadlockFree)
{
    algos::AlignSpec spec = algos::AlignSpec::random(6, 7, 3);
    Program p = algos::makeLcsProgram(spec);
    EXPECT_TRUE(isDeadlockFree(p));
}

TEST(Lcs, CharAndRowStreamsAreRelated)
{
    // Each cell interleaves R(B_i) with R(ROW_i): one label class per
    // link, so the dynamic scheme needs two queues.
    algos::AlignSpec spec = algos::AlignSpec::random(4, 5, 8);
    Program p = algos::makeLcsProgram(spec);
    EXPECT_TRUE(areRelated(p, *p.messageByName("B1"),
                           *p.messageByName("ROW1")));

    MachineSpec machine;
    machine.topo = algos::alignTopology(spec);
    machine.queuesPerLink = 2;
    const auto compiled = sim::CompiledProgram::compile(p, machine.topo);
    const auto report = compiled->analysis(machine);
    ASSERT_EQ(report->verdict, LintVerdict::kCertified)
        << report->render(p);
    EXPECT_EQ(report->requiredQueuesPerLink, 2);

    machine.queuesPerLink = 1;
    EXPECT_NE(compiled->analysis(machine)->verdict,
              LintVerdict::kCertified);
}

TEST(Lcs, LongerSequencesStillExact)
{
    algos::AlignSpec spec = algos::AlignSpec::random(12, 20, 99);
    EXPECT_EQ(runLcs(spec), algos::lcsReference(spec));
}

} // namespace
} // namespace syscomm
