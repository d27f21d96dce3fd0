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
