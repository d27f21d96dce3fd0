/**
 * @file
 * The kernel's active-set structure against a std::set oracle. The
 * event-driven kernel's correctness rests on BitIndexSet behaving
 * exactly like an ordered set under arbitrary insert/erase/cursor
 * interleavings — including mutation *during* a cursor scan, where
 * the by-value re-seek contract says elements inserted ahead of the
 * cursor are visited this pass and elements inserted behind it are
 * not. The bitmap is driven through randomized scripts next to a
 * std::set executing the same script.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "sim/active_set.h"

namespace syscomm::sim {
namespace {

constexpr int kInvalid = -1;
using Set = BitIndexSet<int, kInvalid>;

/** std::set-backed oracle with the same cursor API. */
class OracleSet
{
  public:
    void insert(int i) { s_.insert(i); }
    void erase(int i) { s_.erase(i); }
    bool contains(int i) const { return s_.count(i) > 0; }
    bool empty() const { return s_.empty(); }
    int size() const { return static_cast<int>(s_.size()); }
    void clear() { s_.clear(); }

    int
    largest() const
    {
        return s_.empty() ? kInvalid : *s_.rbegin();
    }

    int
    largestBelow(int bound) const
    {
        auto it = s_.lower_bound(bound);
        if (it == s_.begin())
            return kInvalid;
        return *std::prev(it);
    }

    int
    firstAtLeast(int bound) const
    {
        auto it = s_.lower_bound(bound);
        return it == s_.end() ? kInvalid : *it;
    }

  private:
    std::set<int> s_;
};

/**
 * Drive @p set and the oracle through the same randomized script of
 * mutations and cursor queries; every query must agree.
 */
void
stressAgainstOracle(Set& set, int universe, std::uint64_t seed,
                    int steps)
{
    OracleSet oracle;
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> pick(0, universe - 1);
    std::uniform_int_distribution<int> op(0, 9);

    for (int step = 0; step < steps; ++step) {
        int i = pick(rng);
        switch (op(rng)) {
          case 0:
          case 1:
          case 2:
            set.insert(i);
            oracle.insert(i);
            break;
          case 3:
          case 4:
            set.erase(i);
            oracle.erase(i);
            break;
          case 5:
            ASSERT_EQ(set.contains(i), oracle.contains(i)) << "step " << step;
            break;
          case 6:
            ASSERT_EQ(set.firstAtLeast(i), oracle.firstAtLeast(i))
                << "step " << step << " bound " << i;
            break;
          case 7:
            ASSERT_EQ(set.largestBelow(i), oracle.largestBelow(i))
                << "step " << step << " bound " << i;
            break;
          case 8:
            ASSERT_EQ(set.largest(), oracle.largest()) << "step " << step;
            break;
          default:
            ASSERT_EQ(set.empty(), oracle.empty()) << "step " << step;
            ASSERT_EQ(set.size(), oracle.size()) << "step " << step;
            break;
        }
    }
    // Full ascending walk at the end: identical contents.
    int a = set.firstAtLeast(0);
    int b = oracle.firstAtLeast(0);
    while (a != kInvalid || b != kInvalid) {
        ASSERT_EQ(a, b);
        a = set.firstAtLeast(a + 1);
        b = oracle.firstAtLeast(b + 1);
    }
}

/**
 * Ascending scan with mutations mid-scan (the kernel's cellPhase
 * pattern): set and oracle must visit the identical sequence when
 * the same mutations are applied at the same scan positions.
 */
void
scanWithMutations(Set& set, int universe, std::uint64_t seed)
{
    OracleSet oracle;
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> pick(0, universe - 1);
    std::uniform_int_distribution<int> coin(0, 5);

    for (int k = 0; k < universe / 2; ++k) {
        int i = pick(rng);
        set.insert(i);
        oracle.insert(i);
    }

    for (int pass = 0; pass < 8; ++pass) {
        int a = set.firstAtLeast(0);
        int b = oracle.firstAtLeast(0);
        int visited = 0;
        while (a != kInvalid || b != kInvalid) {
            ASSERT_EQ(a, b) << "pass " << pass << " visit " << visited;
            // Mutate mid-scan: sometimes drop the current element
            // (the kernel erases a cell that went done or to sleep),
            // sometimes insert a random element (a wake) — ahead of
            // the cursor it must be visited later this pass, behind
            // it must not.
            switch (coin(rng)) {
              case 0:
                set.erase(a);
                oracle.erase(a);
                break;
              case 1:
              case 2: {
                int j = pick(rng);
                set.insert(j);
                oracle.insert(j);
                break;
              }
              default:
                break;
            }
            a = set.firstAtLeast(a + 1);
            b = oracle.firstAtLeast(b + 1);
            ++visited;
            ASSERT_LE(visited, 4 * universe) << "scan diverged";
        }
    }

    // Descending scan with mutations (the forwarding-phase pattern).
    for (int pass = 0; pass < 8; ++pass) {
        int a = set.largest();
        int b = oracle.largest();
        while (a != kInvalid || b != kInvalid) {
            ASSERT_EQ(a, b) << "descending pass " << pass;
            if (coin(rng) == 0) {
                set.erase(a);
                oracle.erase(a);
            } else if (coin(rng) == 1) {
                int j = pick(rng);
                set.insert(j);
                oracle.insert(j);
            }
            a = set.largestBelow(a);
            b = oracle.largestBelow(b);
        }
    }
}

TEST(BitIndexSet, RandomizedOpsMatchStdSet)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        for (int universe : {1, 7, 64, 65, 1000, 5000}) {
            Set set;
            set.resize(universe);
            stressAgainstOracle(set, universe, seed, 4000);
        }
    }
}

TEST(BitIndexSet, ScanWithMutationInterleavings)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        Set set;
        set.resize(700);
        scanWithMutations(set, 700, seed);
    }
}

TEST(BitIndexSet, LargeUniverseSparseAndDense)
{
    // Three summary levels (above 64^2 leaf bits) at 100k: the size
    // the kernel actually runs.
    Set set;
    set.resize(100000);
    EXPECT_TRUE(set.empty());
    EXPECT_EQ(set.firstAtLeast(0), kInvalid);
    EXPECT_EQ(set.largest(), kInvalid);

    set.insert(0);
    set.insert(99999);
    set.insert(4097);
    EXPECT_EQ(set.size(), 3);
    EXPECT_EQ(set.firstAtLeast(0), 0);
    EXPECT_EQ(set.firstAtLeast(1), 4097);
    EXPECT_EQ(set.firstAtLeast(4098), 99999);
    EXPECT_EQ(set.largestBelow(99999), 4097);
    EXPECT_EQ(set.largest(), 99999);
    set.erase(4097);
    EXPECT_EQ(set.firstAtLeast(1), 99999);

    // Idempotent mutations.
    set.insert(0);
    EXPECT_EQ(set.size(), 2);
    set.erase(4097);
    EXPECT_EQ(set.size(), 2);

    // Dense fill of one 64^2 block, then clear keeps it reusable.
    for (int i = 2000; i < 7000; ++i)
        set.insert(i);
    EXPECT_EQ(set.size(), 5002);
    EXPECT_EQ(set.firstAtLeast(1), 2000);
    EXPECT_EQ(set.largestBelow(99999), 6999);
    set.clear();
    EXPECT_TRUE(set.empty());
    EXPECT_EQ(set.firstAtLeast(0), kInvalid);
    set.insert(12345);
    EXPECT_EQ(set.largest(), 12345);
    set.clear();

    stressAgainstOracle(set, 100000, 42, 20000);
}

} // namespace
} // namespace syscomm::sim
