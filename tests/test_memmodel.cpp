/**
 * @file
 * Systolic vs memory-to-memory model (paper Fig. 1 and section 1):
 * four local memory accesses per word at every cell that both reads
 * and writes it; zero under the systolic model.
 */

#include <gtest/gtest.h>

#include "algos/streams.h"
#include "sim/memmodel.h"

namespace syscomm {
namespace {

using sim::compareModels;
using sim::ModelComparison;
using sim::RunStatus;
using sim::SessionOptions;
using sim::SimSession;

MachineSpec
spec(Topology topo, int queues = 2)
{
    MachineSpec s;
    s.topo = std::move(topo);
    s.queuesPerLink = queues;
    return s;
}

/** A pipeline that forwards `words` words through every interior cell. */
Program
forwardingPipeline(int cells, int words)
{
    Program p(cells);
    std::vector<MessageId> hop(cells, kInvalidMessage);
    for (int c = 1; c < cells; ++c) {
        hop[c] = p.declareMessage("H" + std::to_string(c), c - 1, c);
    }
    for (int w = 0; w < words; ++w)
        p.write(0, hop[1]);
    for (int c = 1; c + 1 < cells; ++c) {
        for (int w = 0; w < words; ++w) {
            p.read(c, hop[c]);
            p.write(c, hop[c + 1]);
        }
    }
    for (int w = 0; w < words; ++w)
        p.read(cells - 1, hop[cells - 1]);
    return p;
}

TEST(MemModel, SystolicHasZeroMemoryAccesses)
{
    Program p = forwardingPipeline(4, 6);
    sim::RunResult r = SimSession(p, spec(Topology::linearArray(4))).run();
    ASSERT_EQ(r.status, RunStatus::kCompleted);
    EXPECT_EQ(r.stats.memAccesses, 0);
}

TEST(MemModel, MemoryToMemoryChargesFourPerUpdate)
{
    // Each interior cell performs R + W per word: 2 + 2 accesses, the
    // paper's "at least four local memory accesses ... to update a
    // data item flowing through the array".
    int cells = 4, words = 6;
    Program p = forwardingPipeline(cells, words);
    SessionOptions options;
    options.memoryToMemory = true;
    sim::RunResult r =
        SimSession(p, spec(Topology::linearArray(cells)), options).run();
    ASSERT_EQ(r.status, RunStatus::kCompleted);
    // Interior cells: (cells-2) * words * 4; endpoints add 2 per word
    // each (host write staging + receiver read staging).
    std::int64_t interior = static_cast<std::int64_t>(cells - 2) * words * 4;
    std::int64_t endpoints = 2LL * words * 2;
    EXPECT_EQ(r.stats.memAccesses, interior + endpoints);
}

TEST(MemModel, MemoryToMemoryIsSlower)
{
    Program p = forwardingPipeline(5, 12);
    ModelComparison cmp =
        compareModels(p, spec(Topology::linearArray(5)));
    ASSERT_EQ(cmp.systolic.status, RunStatus::kCompleted);
    ASSERT_EQ(cmp.memToMem.status, RunStatus::kCompleted);
    EXPECT_GT(cmp.memToMem.cycles, cmp.systolic.cycles);
    EXPECT_GT(cmp.speedup(), 1.5);
}

TEST(MemModel, SpeedupGrowsWithMemoryCost)
{
    Program p = forwardingPipeline(4, 8);
    SessionOptions cheap;
    cheap.memAccessCost = 1;
    SessionOptions expensive;
    expensive.memAccessCost = 4;
    ModelComparison c1 =
        compareModels(p, spec(Topology::linearArray(4)), cheap);
    ModelComparison c2 =
        compareModels(p, spec(Topology::linearArray(4)), expensive);
    EXPECT_GT(c2.speedup(), c1.speedup());
}

TEST(MemModel, ResultsAreIdenticalAcrossModels)
{
    // The memory model changes timing, never values.
    algos::StreamSpec sspec;
    sspec.numCells = 3;
    sspec.numStreams = 2;
    sspec.wordsPerStream = 4;
    sspec.pattern = algos::StreamPattern::kInterleaved;
    Program p = algos::makeStreamsProgram(sspec);
    ModelComparison cmp =
        compareModels(p, spec(Topology::linearArray(3)));
    ASSERT_EQ(cmp.systolic.status, RunStatus::kCompleted);
    ASSERT_EQ(cmp.memToMem.status, RunStatus::kCompleted);
    EXPECT_EQ(cmp.systolic.stats.wordsDelivered,
              cmp.memToMem.stats.wordsDelivered);
}

TEST(MemModel, SummaryMentionsSpeedup)
{
    Program p = forwardingPipeline(3, 4);
    ModelComparison cmp =
        compareModels(p, spec(Topology::linearArray(3)));
    EXPECT_NE(cmp.summary().find("speedup"), std::string::npos);
    EXPECT_GT(cmp.accessesPerWord(), 0.0);
}

} // namespace
} // namespace syscomm
