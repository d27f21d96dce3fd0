/**
 * @file
 * Cross-validation of the static analyzer against the simulator: over
 * randomized programs (clean section 3.3 constructions plus
 * perturbed variants) on three topologies, the static verdict and
 * the dynamic outcome must never disagree —
 *
 *   certified  => a compatible-policy run completes (Theorem 1),
 *   deadlock   => a run deadlocks under ANY policy, and the dynamic
 *                 DeadlockReport implicates every witnessed cell.
 *
 * Both simulator kernels are held to this, so the suite doubles as a
 * kernel-equivalence check through the analyzer's lens. kUnknown
 * programs make no static claim, but still must simulate without
 * faulting.
 *
 * Over the same corpus, the compiled path (CompiledProgram::analysis,
 * which derives the program facts once and finishes each shape from
 * them) must report exactly what the standalone analyzeProgram does.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/analyze.h"
#include "core/machine_spec.h"
#include "core/program.h"
#include "core/program_gen.h"
#include "core/topology.h"
#include "serve/json.h"
#include "serve/lint.h"
#include "sim/session.h"

namespace syscomm {
namespace {

struct Tally
{
    int programs = 0;
    int certified = 0;
    int witnessed = 0;
    int unknown = 0;
};

sim::RunResult
runOnce(const Program& program, const Topology& topo,
        sim::PolicyKind policy, sim::KernelKind kernel)
{
    MachineSpec spec;
    spec.topo = SharedTopology(Topology(topo));
    spec.queuesPerLink = 2;
    spec.queueCapacity = 1;
    sim::SessionOptions options;
    options.kernel = kernel;
    sim::RunRequest request;
    request.policy = policy;
    request.maxCycles = 200'000;
    return sim::SimSession(program, spec, options).run(request);
}

void
checkProgram(const Program& program, const Topology& topo,
             Tally& tally)
{
    const AnalysisReport report = analyzeProgram(program, topo);
    ++tally.programs;
    const sim::KernelKind kernels[] = {sim::KernelKind::kEventDriven,
                                       sim::KernelKind::kReference};

    if (report.verdict == LintVerdict::kCertified) {
        ++tally.certified;
        for (const sim::KernelKind kernel : kernels) {
            const sim::RunResult result = runOnce(
                program, topo, sim::PolicyKind::kCompatible, kernel);
            EXPECT_TRUE(result.completed())
                << "certified program failed dynamically ("
                << result.statusStr() << "):\n"
                << report.render(program);
        }
        return;
    }

    if (report.verdict == LintVerdict::kDeadlock) {
        ++tally.witnessed;
        ASSERT_FALSE(report.witness.empty());
        std::set<CellId> witnessed;
        for (const WitnessEntry& entry : report.witness.cycle)
            witnessed.insert(entry.cell);
        // The witness claims deadlock under ANY policy; hold it to
        // the harshest ones on both kernels.
        const sim::PolicyKind policies[] = {
            sim::PolicyKind::kFcfs, sim::PolicyKind::kCompatible};
        for (const sim::PolicyKind policy : policies) {
            for (const sim::KernelKind kernel : kernels) {
                const sim::RunResult result =
                    runOnce(program, topo, policy, kernel);
                ASSERT_EQ(result.status, sim::RunStatus::kDeadlocked)
                    << "witnessed program did not deadlock ("
                    << result.statusStr() << "):\n"
                    << report.render(program);
                std::set<CellId> blocked;
                for (const auto& info : result.deadlock.cells)
                    blocked.insert(info.cell);
                for (const CellId cell : witnessed) {
                    EXPECT_TRUE(blocked.count(cell) > 0)
                        << "witness cell " << cell
                        << " not blocked dynamically:\n"
                        << report.render(program) << "\n"
                        << result.deadlock.render(program);
                }
            }
        }
        return;
    }

    ++tally.unknown;
    // No static claim, but the simulator must still terminate
    // cleanly (complete, deadlock, or exhaust the budget).
    const sim::RunResult result = runOnce(
        program, topo, sim::PolicyKind::kFcfs, kernels[0]);
    EXPECT_NE(result.status, sim::RunStatus::kConfigError)
        << result.error;
}

/** @p visit(program, topo) over one topology's share of the corpus. */
template <typename Visit>
void
sweepTopology(const Topology& topo, std::uint64_t seedBase,
              int seeds, Visit&& visit)
{
    for (int s = 0; s < seeds; ++s) {
        GenOptions gen;
        gen.numMessages = 6;
        gen.maxWords = 4;
        gen.seed = seedBase + static_cast<std::uint64_t>(s);
        gen.interleave = 0.4;
        const Program clean = randomDeadlockFreeProgram(topo, gen);
        visit(clean, topo);
        // Perturbations keep word counts valid but may wreck the
        // section 3.3 order — the analyzer's job is to notice.
        const Program shaken =
            perturbProgram(clean, 3, gen.seed + 1'000);
        visit(shaken, topo);
    }
}

/** @p visit(program, topo) over the whole corpus (210 programs). */
template <typename Visit>
void
forEachProgram(Visit&& visit)
{
    sweepTopology(Topology::linearArray(5), 10, 35, visit);
    sweepTopology(Topology::ring(5), 2'000, 35, visit);
    sweepTopology(Topology::mesh(3, 3), 3'000, 35, visit);
}

TEST(AnalyzeCrossVal, StaticVerdictNeverDisagreesWithDynamics)
{
    Tally tally;
    forEachProgram([&](const Program& program, const Topology& topo) {
        checkProgram(program, topo, tally);
    });

    // The acceptance bar: >= 200 distinct programs, and the suite
    // must actually exercise both interesting verdicts — a sweep
    // that never certifies or never witnesses proves nothing.
    EXPECT_GE(tally.programs, 200);
    EXPECT_GE(tally.certified, 40) << "generator drifted";
    EXPECT_GE(tally.witnessed, 5) << "perturbation too gentle";
    ::testing::Test::RecordProperty("programs", tally.programs);
    ::testing::Test::RecordProperty("certified", tally.certified);
    ::testing::Test::RecordProperty("witnessed", tally.witnessed);
    ::testing::Test::RecordProperty("unknown", tally.unknown);
}

/** Field-for-field, text and JSON equality of two reports. */
void
expectSameReport(const AnalysisReport& a, const AnalysisReport& b,
                 const Program& program)
{
    EXPECT_EQ(a.render(program), b.render(program));
    EXPECT_EQ(serve::writeJson(serve::lintReportJson(a, program)),
              serve::writeJson(serve::lintReportJson(b, program)));
    EXPECT_EQ(a.verdict, b.verdict);
    EXPECT_EQ(a.shape.queuesPerLink, b.shape.queuesPerLink);
    EXPECT_EQ(a.shape.queueCapacity, b.shape.queueCapacity);
    EXPECT_EQ(a.shape.extensionCapacity, b.shape.extensionCapacity);
    ASSERT_EQ(a.diagnostics.size(), b.diagnostics.size());
    for (std::size_t i = 0; i < a.diagnostics.size(); ++i) {
        const Diagnostic& x = a.diagnostics[i];
        const Diagnostic& y = b.diagnostics[i];
        EXPECT_EQ(x.severity, y.severity) << i;
        EXPECT_EQ(x.rule, y.rule) << i;
        EXPECT_EQ(x.cell, y.cell) << i;
        EXPECT_EQ(x.msg, y.msg) << i;
        EXPECT_EQ(x.op, y.op) << i;
        EXPECT_EQ(x.link, y.link) << i;
        EXPECT_EQ(x.text, y.text) << i;
    }
    ASSERT_EQ(a.witness.cycle.size(), b.witness.cycle.size());
    for (std::size_t i = 0; i < a.witness.cycle.size(); ++i) {
        const WitnessEntry& x = a.witness.cycle[i];
        const WitnessEntry& y = b.witness.cycle[i];
        EXPECT_EQ(x.cell, y.cell) << i;
        EXPECT_EQ(x.op, y.op) << i;
        EXPECT_EQ(x.msg, y.msg) << i;
        EXPECT_EQ(x.isWrite, y.isWrite) << i;
        EXPECT_EQ(x.waitsFor, y.waitsFor) << i;
    }
    EXPECT_EQ(a.witness.blockedCells, b.witness.blockedCells);
    EXPECT_EQ(a.minUniformCapacity, b.minUniformCapacity);
    EXPECT_EQ(a.minUniformSkipBound, b.minUniformSkipBound);
    EXPECT_EQ(a.basicDeadlockFree, b.basicDeadlockFree);
    EXPECT_EQ(a.labelingFellBack, b.labelingFellBack);
    EXPECT_EQ(a.labelsConsistent, b.labelsConsistent);
    EXPECT_EQ(a.feasibleAtShape, b.feasibleAtShape);
    EXPECT_EQ(a.requiredQueuesPerLink, b.requiredQueuesPerLink);
    EXPECT_EQ(a.worstLink, b.worstLink);
}

TEST(AnalyzeCrossVal, CompiledAnalysisEqualsAnalyzeProgram)
{
    // 32 shapes: queues 1-4 x capacity 1-4 x extension 0 and 2. Each
    // program is compiled once, so every shape after its first is
    // finished from facts derived at another shape.
    int reports = 0;
    int fellBack = 0;
    int witnessed = 0;
    int certified = 0;
    forEachProgram([&](const Program& program, const Topology& topo) {
        const auto compiled = sim::CompiledProgram::compile(program, topo);
        for (int queues = 1; queues <= 4; ++queues) {
            for (int capacity = 1; capacity <= 4; ++capacity) {
                for (int extension : {0, 2}) {
                    AnalyzeOptions options;
                    options.queuesPerLink = queues;
                    options.queueCapacity = capacity;
                    options.extensionCapacity = extension;
                    MachineSpec spec;
                    spec.topo = compiled->sharedTopo();
                    spec.queuesPerLink = queues;
                    spec.queueCapacity = capacity;
                    spec.extensionCapacity = extension;
                    const AnalysisReport standalone =
                        analyzeProgram(program, topo, options);
                    SCOPED_TRACE(standalone.render(program));
                    expectSameReport(*compiled->analysis(spec),
                                     standalone, program);
                    ++reports;
                    fellBack += standalone.labelingFellBack;
                    witnessed += !standalone.witness.empty();
                    certified +=
                        standalone.verdict == LintVerdict::kCertified;
                }
            }
        }
    });
    EXPECT_EQ(reports, 210 * 32);
    // The corpus must reach the shape-dependent paths: a fallen-back
    // labeling (SL020, severity by verdict), a witness, a certificate.
    EXPECT_GT(fellBack, 0);
    EXPECT_GT(witnessed, 0);
    EXPECT_GT(certified, 0);
}

} // namespace
} // namespace syscomm
