/**
 * @file
 * Section 6 consistent labeling: the Fig. 7 worked example, rules
 * 1a-1d, and consistency on generated programs.
 */

#include <gtest/gtest.h>

#include "algos/paper_figures.h"
#include "core/label_verify.h"
#include "core/labeling.h"
#include "core/program_gen.h"

namespace syscomm {
namespace {

TEST(Labeling, Fig7LabelsMatchPaper)
{
    // "messages A, B, and C will receive labels 1, 3, and 2".
    Program p = algos::fig7Program();
    Labeling labeling = labelMessages(p);
    ASSERT_TRUE(labeling.success) << labeling.error;
    EXPECT_EQ(labeling.labels[*p.messageByName("A")], Rational(1));
    EXPECT_EQ(labeling.labels[*p.messageByName("B")], Rational(3));
    EXPECT_EQ(labeling.labels[*p.messageByName("C")], Rational(2));
    EXPECT_TRUE(isConsistentLabeling(p, labeling.labels));
}

TEST(Labeling, Fig7NormalizedPreservesOrder)
{
    Program p = algos::fig7Program();
    Labeling labeling = labelMessages(p);
    ASSERT_TRUE(labeling.success);
    auto norm = labeling.normalized();
    EXPECT_EQ(norm[*p.messageByName("A")], 1);
    EXPECT_EQ(norm[*p.messageByName("C")], 2);
    EXPECT_EQ(norm[*p.messageByName("B")], 3);
}

TEST(Labeling, Fig2LabelsAreConsistent)
{
    Program p = algos::fig2FirProgram();
    Labeling labeling = labelMessages(p);
    ASSERT_TRUE(labeling.success) << labeling.error;
    EXPECT_TRUE(isConsistentLabeling(p, labeling.labels))
        << labeling.str(p);
}

TEST(Labeling, Fig6CycleLabelsAreConsistent)
{
    Program p = algos::fig6CycleProgram();
    Labeling labeling = labelMessages(p);
    ASSERT_TRUE(labeling.success);
    EXPECT_TRUE(isConsistentLabeling(p, labeling.labels));
}

TEST(Labeling, RelatedMessagesShareALabel)
{
    // Fig. 8: interleaved reads make A and B related.
    Program p = algos::fig8Program();
    Labeling labeling = labelMessages(p);
    ASSERT_TRUE(labeling.success);
    EXPECT_EQ(labeling.labels[*p.messageByName("A")],
              labeling.labels[*p.messageByName("B")]);
    EXPECT_TRUE(isConsistentLabeling(p, labeling.labels));
}

TEST(Labeling, Fig9InterleavedWritesShareALabel)
{
    Program p = algos::fig9Program();
    Labeling labeling = labelMessages(p);
    ASSERT_TRUE(labeling.success);
    EXPECT_EQ(labeling.labels[*p.messageByName("A")],
              labeling.labels[*p.messageByName("B")]);
}

TEST(Labeling, DeadlockedProgramFails)
{
    Program p = algos::fig5P1();
    Labeling labeling = labelMessages(p);
    EXPECT_FALSE(labeling.success);
    EXPECT_NE(labeling.error.find("not deadlock-free"), std::string::npos);
}

TEST(Labeling, TrivialLabelingIsAlwaysConsistent)
{
    for (Program p : {algos::fig2FirProgram(), algos::fig7Program(),
                      algos::fig8Program(), algos::fig5P1()}) {
        Labeling labeling = trivialLabeling(p);
        ASSERT_TRUE(labeling.success);
        EXPECT_TRUE(isConsistentLabeling(p, labeling.labels));
    }
}

TEST(Labeling, LookaheadGivesSkippedMessagesSameLabel)
{
    // P1 under lookahead: B's pair skips A's writes, so rule 1d gives
    // A the label of B.
    Program p = algos::fig5P1();
    LabelingOptions options;
    options.lookahead = true;
    options.skip_bound = uniformSkipBound(2);
    Labeling labeling = labelMessages(p, options);
    ASSERT_TRUE(labeling.success) << labeling.error;
    EXPECT_EQ(labeling.labels[*p.messageByName("A")],
              labeling.labels[*p.messageByName("B")]);
    EXPECT_TRUE(isConsistentLabeling(p, labeling.labels));
}

TEST(Labeling, SequentialStreamsGetAscendingLabels)
{
    Program p(2);
    MessageId a = p.declareMessage("A", 0, 1);
    MessageId b = p.declareMessage("B", 0, 1);
    MessageId c = p.declareMessage("C", 0, 1);
    for (MessageId m : {a, b, c}) {
        p.write(0, m);
        p.write(0, m);
        p.read(1, m);
        p.read(1, m);
    }
    Labeling labeling = labelMessages(p);
    ASSERT_TRUE(labeling.success);
    EXPECT_LT(labeling.labels[a], labeling.labels[b]);
    EXPECT_LT(labeling.labels[b], labeling.labels[c]);
}

TEST(GraphLabeling, Fig7MatchesPaperOrder)
{
    // Constraints: A <= B (C3) and C <= B (C4); declaration-order
    // Kahn emission gives the paper's exact labels.
    Program p = algos::fig7Program();
    Labeling labeling = graphLabeling(p);
    ASSERT_TRUE(labeling.success);
    EXPECT_TRUE(isConsistentLabeling(p, labeling.labels));
    EXPECT_EQ(labeling.labels[*p.messageByName("A")], Rational(1));
    EXPECT_EQ(labeling.labels[*p.messageByName("C")], Rational(2));
    EXPECT_EQ(labeling.labels[*p.messageByName("B")], Rational(3));
}

TEST(GraphLabeling, SharesOnlyWhenForced)
{
    // Fig. 8's interleaving forms an SCC: A and B must share.
    Program p8 = algos::fig8Program();
    Labeling l8 = graphLabeling(p8);
    ASSERT_TRUE(l8.success);
    EXPECT_EQ(l8.labels[*p8.messageByName("A")],
              l8.labels[*p8.messageByName("B")]);

    // Sequential streams stay distinct.
    Program p(2);
    MessageId a = p.declareMessage("A", 0, 1);
    MessageId b = p.declareMessage("B", 0, 1);
    for (MessageId m : {a, b}) {
        p.write(0, m);
        p.read(1, m);
    }
    Labeling l = graphLabeling(p);
    ASSERT_TRUE(l.success);
    EXPECT_NE(l.labels[a], l.labels[b]);
}

TEST(GraphLabeling, WorksEvenOnDeadlockedPrograms)
{
    // Consistency is a property of the program text; the graph scheme
    // does not need crossing-off and labels P1-P3 consistently.
    for (Program p : {algos::fig5P1(), algos::fig5P2(), algos::fig5P3()}) {
        Labeling labeling = graphLabeling(p);
        ASSERT_TRUE(labeling.success);
        EXPECT_TRUE(isConsistentLabeling(p, labeling.labels));
    }
}

TEST(GraphLabeling, ConsistentOnEveryWorkload)
{
    for (Program p :
         {algos::fig2FirProgram(), algos::fig6CycleProgram(),
          algos::fig9Program()}) {
        Labeling labeling = graphLabeling(p);
        ASSERT_TRUE(labeling.success);
        EXPECT_TRUE(isConsistentLabeling(p, labeling.labels));
    }
}

TEST(GraphLabeling, ConsistentOnRandomAndScrambledPrograms)
{
    Topology topo = Topology::linearArray(5);
    for (std::uint64_t seed = 0; seed < 60; ++seed) {
        GenOptions gen;
        gen.numMessages = 10;
        gen.maxWords = 4;
        gen.seed = seed;
        Program p = randomDeadlockFreeProgram(topo, gen);
        Program q = perturbProgram(p, 25, seed + 5);
        for (const Program* prog : {&p, &q}) {
            Labeling labeling = graphLabeling(*prog);
            ASSERT_TRUE(labeling.success);
            EXPECT_TRUE(isConsistentLabeling(*prog, labeling.labels))
                << "seed " << seed;
        }
    }
}

TEST(Labeling, RandomProgramsAlwaysConsistent)
{
    // The section 6 scheme must produce a consistent labeling for any
    // deadlock-free program.
    Topology topo = Topology::linearArray(5);
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        GenOptions gen;
        gen.numMessages = 10;
        gen.maxWords = 5;
        gen.seed = seed;
        Program p = randomDeadlockFreeProgram(topo, gen);
        Labeling labeling = labelMessages(p);
        ASSERT_TRUE(labeling.success)
            << "seed " << seed << ": " << labeling.error;
        EXPECT_TRUE(isConsistentLabeling(p, labeling.labels))
            << "seed " << seed << ": " << labeling.str(p);
    }
}

} // namespace
} // namespace syscomm
