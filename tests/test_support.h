#pragma once

/**
 * @file
 * Shared test helpers. expectSameRunResult is THE field-by-field
 * RunResult comparator for every bit-identity suite (session reuse,
 * sweep==serial, kernel equivalence, the sampled oracle, arena
 * stress): one copy means a field added to RunResult gets compared
 * everywhere or nowhere — never silently skipped by one suite.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/session.h"

namespace syscomm {

/**
 * A default RunRequest that materializes every result vector (events,
 * releases, message timing, received values) but not the audit.
 * Tests that read those vectors start from it, so no assertion
 * compares two vectors that were simply never collected.
 */
inline const sim::RunRequest kVectorsRequest = [] {
    sim::RunRequest request;
    request.collect = sim::Collect::kEvents | sim::Collect::kReleases |
                      sim::Collect::kMsgTiming | sim::Collect::kReceived;
    return request;
}();

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
    EXPECT_EQ(b.events, a.events) << ctx;
    EXPECT_EQ(b.releases, a.releases) << ctx;
    EXPECT_EQ(b.received, a.received) << ctx;
    EXPECT_EQ(b.msgTiming, a.msgTiming) << ctx;
    EXPECT_EQ(b.labelsUsed, a.labelsUsed) << ctx;
    EXPECT_TRUE(b.deadlock == a.deadlock) << ctx;
    EXPECT_EQ(b.audit.compatible, a.audit.compatible) << ctx;
    EXPECT_EQ(b.audit.violations.size(), a.audit.violations.size()) << ctx;
}

} // namespace syscomm
