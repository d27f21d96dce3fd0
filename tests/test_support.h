#pragma once

/**
 * @file
 * Shared test helpers. expectSameRunResult is THE field-by-field
 * RunResult comparator for every bit-identity suite (session reuse,
 * sweep==serial, kernel equivalence, the sampled oracle, arena
 * stress), and expectSameLog its RunLog counterpart: one copy each
 * means a field added to RunResult or RunLog gets compared everywhere
 * or nowhere — never silently skipped by one suite.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/session.h"
#include "sim/trace.h"

namespace syscomm {

/**
 * The labels a Theorem 1 check runs with on a machine, and whether
 * condition (ii) holds for them there.
 */
struct TheoremLabels
{
    /** RunRequest::labels: empty = the session's own. */
    std::vector<std::int64_t> labels;
    bool feasible = false;
};

/**
 * Theorem 1 needs a consistent labeling (condition i). The session's
 * default labeling is the section 6 one, or the trivial one when the
 * scheme fails; where the scheme instead returns an inconsistent
 * labeling (the analysis reports SL021), the trivial labeling, which
 * is always consistent, runs as an explicit override.
 */
inline TheoremLabels
theoremLabels(const sim::CompiledProgram& compiled,
              const MachineSpec& machine)
{
    const auto report = compiled.analysis(machine);
    if (report->labelsConsistent)
        return {{}, report->feasibleAtShape};
    const Labeling trivial = trivialLabeling(compiled.program());
    return {trivial.normalized(),
            checkDynamicFeasibility(compiled.competing(), trivial.labels,
                                    machine)
                .feasible};
}

/** @p request with @p log attached as its observer. */
inline sim::RunRequest
observedBy(sim::RunLog& log, sim::RunRequest request = {})
{
    request.observer = &log;
    return request;
}

/**
 * @p requests, each observed by its own fresh RunLog in @p logs. The
 * requests point into @p logs, so it must not be resized while they
 * are in use.
 */
inline std::vector<sim::RunRequest>
observeEach(std::vector<sim::RunRequest> requests,
            std::vector<sim::RunLog>& logs, const Program& program)
{
    logs.assign(requests.size(), sim::RunLog(program));
    for (std::size_t i = 0; i < requests.size(); ++i)
        requests[i].observer = &logs[i];
    return requests;
}

/** Field-by-field equality of two results (bit-identical contract). */
inline void
expectSameRunResult(const sim::RunResult& a, const sim::RunResult& b,
                    const std::string& ctx)
{
    ASSERT_EQ(b.status, a.status)
        << ctx << " a=" << a.statusStr() << " b=" << b.statusStr();
    EXPECT_EQ(b.cycles, a.cycles) << ctx;
    EXPECT_EQ(b.error, a.error) << ctx;
    EXPECT_TRUE(b.stats == a.stats)
        << ctx << "\na:\n"
        << a.stats.summary() << "b:\n"
        << b.stats.summary();
    EXPECT_EQ(b.labelsUsed, a.labelsUsed) << ctx;
    EXPECT_TRUE(b.deadlock == a.deadlock) << ctx;
}

/** Vector-by-vector equality of two run records. */
inline void
expectSameLog(const sim::RunLog& a, const sim::RunLog& b,
              const std::string& ctx)
{
    EXPECT_EQ(b.events, a.events) << ctx;
    EXPECT_EQ(b.releases, a.releases) << ctx;
    EXPECT_EQ(b.received, a.received) << ctx;
    EXPECT_EQ(b.msgTiming, a.msgTiming) << ctx;
}

} // namespace syscomm
