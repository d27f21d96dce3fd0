/**
 * @file
 * Property-based validation of Theorem 1: for any deadlock-free
 * program with a consistent labeling and a compatible queue
 * assignment (with enough queues for the same-label groups), execution
 * runs to completion — across random programs, topologies, queue
 * counts and buffer depths. The unsafe baselines (FCFS/random) are
 * allowed to deadlock but must never produce a wrong delivery count.
 */

#include <gtest/gtest.h>

#include "core/program_gen.h"
#include "sim/session.h"
#include "sim/trace.h"
#include "test_support.h"

namespace syscomm {
namespace {

using sim::PolicyKind;
using sim::RunRequest;
using sim::RunResult;
using sim::RunStatus;
using sim::SimSession;

std::int64_t
totalWords(const Program& p)
{
    std::int64_t words = 0;
    for (MessageId m = 0; m < p.numMessages(); ++m)
        words += p.messageLength(m);
    return words;
}

struct Theorem1Case
{
    const char* topoName;
    int queues;
    int capacity;
};

class Theorem1 : public ::testing::TestWithParam<Theorem1Case>
{
  protected:
    Topology
    topo() const
    {
        std::string name = GetParam().topoName;
        if (name == "linear4")
            return Topology::linearArray(4);
        if (name == "linear7")
            return Topology::linearArray(7);
        if (name == "ring5")
            return Topology::ring(5);
        return Topology::mesh(3, 3);
    }
};

TEST_P(Theorem1, CompatibleAlwaysCompletes)
{
    const Theorem1Case& param = GetParam();
    Topology topology = topo();
    int completed = 0, skipped = 0;
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        GenOptions gen;
        gen.numMessages = 10;
        gen.maxWords = 4;
        gen.seed = seed * 7 + 3;
        // Interleaving creates related (same-label) classes whose
        // simultaneous assignment needs wide queue pools; scale it to
        // the machine so the sweep mostly lands in feasible territory.
        gen.interleave =
            param.queues >= 3 ? 0.3 : (param.queues == 2 ? 0.1 : 0.0);
        Program p = randomDeadlockFreeProgram(topology, gen);

        MachineSpec machine;
        machine.topo = topology;
        machine.queuesPerLink = param.queues;
        machine.queueCapacity = param.capacity;

        SimSession session(p, machine);
        ASSERT_TRUE(session.compiled()->analysis(machine)->basicDeadlockFree);
        const TheoremLabels labels =
            theoremLabels(*session.compiled(), machine);
        if (!labels.feasible) {
            // Assumption (ii) fails on this machine: Theorem 1 does
            // not apply. (Rare: section 6 labels are mostly distinct.)
            ++skipped;
            continue;
        }

        sim::RunLog log(p);
        RunRequest request;
        request.labels = labels.labels;
        request.observer = &log;
        RunResult r = session.run(request);
        ASSERT_EQ(r.status, RunStatus::kCompleted)
            << topology.name() << " queues=" << param.queues
            << " cap=" << param.capacity << " seed=" << seed << "\n"
            << r.deadlock.render(p);
        const sim::AuditReport audit =
            sim::auditAssignments(p, session.compiled()->competing(),
                                  r.labelsUsed, log.events);
        EXPECT_TRUE(audit.compatible) << audit.str(p);
        EXPECT_EQ(r.stats.wordsDelivered, totalWords(p));
        ++completed;
    }
    // The sweep must actually exercise the theorem.
    EXPECT_GT(completed, skipped);
}

INSTANTIATE_TEST_SUITE_P(
    Machines, Theorem1,
    ::testing::Values(Theorem1Case{"linear4", 2, 1},
                      Theorem1Case{"linear4", 1, 1},
                      Theorem1Case{"linear4", 2, 4},
                      Theorem1Case{"linear7", 2, 1},
                      Theorem1Case{"linear7", 3, 2},
                      Theorem1Case{"ring5", 2, 1},
                      Theorem1Case{"mesh3x3", 2, 1},
                      Theorem1Case{"mesh3x3", 3, 2}),
    [](const auto& info) {
        return std::string(info.param.topoName) + "_q" +
               std::to_string(info.param.queues) + "_c" +
               std::to_string(info.param.capacity);
    });

TEST(Theorem1Baselines, UnsafePoliciesNeverMisdeliver)
{
    // FCFS/random may deadlock, but whenever they do complete, the
    // delivery count must be exact.
    Topology topology = Topology::linearArray(5);
    int deadlocks = 0;
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        GenOptions gen;
        gen.numMessages = 10;
        gen.maxWords = 4;
        gen.seed = seed;
        Program p = randomDeadlockFreeProgram(topology, gen);

        MachineSpec machine;
        machine.topo = topology;
        machine.queuesPerLink = 1; // scarce: provoke misassignment
        for (PolicyKind kind : {PolicyKind::kFcfs, PolicyKind::kRandom}) {
            RunRequest request;
            request.policy = kind;
            request.seed = seed;
            RunResult r = SimSession(p, machine).run(request);
            ASSERT_NE(r.status, RunStatus::kConfigError);
            ASSERT_NE(r.status, RunStatus::kMaxCycles);
            if (r.status == RunStatus::kCompleted)
                EXPECT_EQ(r.stats.wordsDelivered, totalWords(p));
            else
                ++deadlocks;
        }
    }
    // With one queue per link, naive policies must hit some deadlocks.
    EXPECT_GT(deadlocks, 0);
}

TEST(Theorem1Baselines, EagerReservationAlsoSafe)
{
    Topology topology = Topology::linearArray(5);
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        GenOptions gen;
        gen.numMessages = 8;
        gen.maxWords = 3;
        gen.seed = seed + 11;
        Program p = randomDeadlockFreeProgram(topology, gen);
        MachineSpec machine;
        machine.topo = topology;
        machine.queuesPerLink = 2;

        SimSession session(p, machine);
        const TheoremLabels labels =
            theoremLabels(*session.compiled(), machine);
        if (!labels.feasible)
            continue;
        RunRequest request;
        request.policy = PolicyKind::kCompatibleEager;
        request.labels = labels.labels;
        RunResult r = session.run(request);
        EXPECT_EQ(r.status, RunStatus::kCompleted) << "seed " << seed;
    }
}

TEST(Theorem1Baselines, StaticSafeWhenFeasible)
{
    Topology topology = Topology::linearArray(4);
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        GenOptions gen;
        gen.numMessages = 6;
        gen.maxWords = 3;
        gen.seed = seed + 41;
        Program p = randomDeadlockFreeProgram(topology, gen);

        MachineSpec machine;
        machine.topo = topology;
        machine.queuesPerLink = 6; // enough for a dedicated queue each
        RunRequest request;
        request.policy = PolicyKind::kStatic;
        RunResult r = SimSession(p, machine).run(request);
        EXPECT_EQ(r.status, RunStatus::kCompleted) << "seed " << seed;
    }
}

} // namespace
} // namespace syscomm
