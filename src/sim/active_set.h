#pragma once

/**
 * @file
 * The ordered index set behind the event-driven kernel's active-set
 * bookkeeping: contiguous storage, no per-node allocation on the hot
 * word-transition path.
 *
 * BitIndexSet is a hierarchical bitmap (one leaf bit per index plus
 * 64-way summary levels). insert/erase are O(levels) ≈ O(1) and the
 * cursor queries are O(levels), independent of how many elements are
 * present, so a dense-active phase on a 100k-cell array costs the
 * same per mutation as a sparse one. The randomized stress test
 * (tests/test_active_set.cpp) checks it against a std::set oracle.
 *
 * The cursor accessors (largest/largestBelow, firstAtLeast) make
 * mutation during iteration well-defined: a scan re-seeks by value
 * each step, so elements inserted behind the cursor are skipped and
 * elements inserted ahead of it are visited this pass — exactly the
 * semantics a std::set iterator gives, without the node allocations.
 */

#include <cassert>
#include <cstdint>
#include <vector>

namespace syscomm::sim {

/**
 * Ordered set of integer indices in [0, universe) over a hierarchical
 * bitmap. All mutations and cursor queries cost O(levels) where
 * levels = ceil(log64(universe)) — 3 for a 100k-cell array.
 *
 * The universe must be declared up front via resize(); SimSession
 * sizes each set once at construction.
 */
template <typename Index, Index kInvalid>
class BitIndexSet
{
  public:
    /** Declare the index universe [0, n) and drop every element. */
    void
    resize(Index n)
    {
        assert(n >= 0);
        universe_ = n;
        levels_.clear();
        std::size_t words = wordsFor(static_cast<std::size_t>(n));
        while (true) {
            levels_.emplace_back(words, 0);
            if (words <= 1)
                break;
            words = wordsFor(words);
        }
        size_ = 0;
    }

    bool empty() const { return size_ == 0; }
    int size() const { return size_; }

    void
    insert(Index i)
    {
        assert(i >= 0 && i < universe_);
        std::size_t bit = static_cast<std::size_t>(i);
        for (std::vector<std::uint64_t>& level : levels_) {
            std::uint64_t& word = level[bit >> 6];
            std::uint64_t mask = std::uint64_t{1} << (bit & 63);
            if (word & mask) {
                if (&level == &levels_.front())
                    return; // already present
                break; // summaries above are already set
            }
            bool was_empty_word = word == 0;
            word |= mask;
            if (!was_empty_word)
                break; // summary bit already set
            bit >>= 6;
        }
        ++size_;
    }

    void
    erase(Index i)
    {
        assert(i >= 0);
        if (i >= universe_)
            return;
        std::size_t bit = static_cast<std::size_t>(i);
        for (std::vector<std::uint64_t>& level : levels_) {
            std::uint64_t& word = level[bit >> 6];
            std::uint64_t mask = std::uint64_t{1} << (bit & 63);
            if (!(word & mask)) {
                if (&level == &levels_.front())
                    return; // not present
                break;
            }
            word &= ~mask;
            if (word != 0)
                break; // other indices keep the summary bit alive
            bit >>= 6;
        }
        --size_;
    }

    bool
    contains(Index i) const
    {
        if (i < 0 || i >= universe_)
            return false;
        std::size_t bit = static_cast<std::size_t>(i);
        return (levels_.front()[bit >> 6] >> (bit & 63)) & 1;
    }

    /**
     * Drop every element, keeping the storage. Costs O(elements x
     * levels), so resetting after a completed run (empty set) is free
     * and never O(universe).
     */
    void
    clear()
    {
        Index i = firstAtLeast(0);
        while (i != kInvalid) {
            erase(i);
            i = firstAtLeast(i);
        }
    }

    Index
    largest() const
    {
        return largestBelow(universe_);
    }

    /** Largest element strictly below @p bound (kInvalid if none). */
    Index
    largestBelow(Index bound) const
    {
        if (size_ == 0 || bound <= 0)
            return kInvalid;
        if (bound > universe_)
            bound = universe_;
        // Candidate bit position at the current level; below the leaf
        // word that failed, the predecessor word is (word index - 1).
        std::size_t cand = static_cast<std::size_t>(bound) - 1;
        for (std::size_t level = 0; level < levels_.size(); ++level) {
            std::uint64_t word = levels_[level][cand >> 6] &
                                 (~std::uint64_t{0} >> (63 - (cand & 63)));
            if (word != 0) {
                std::size_t found =
                    (cand & ~std::size_t{63}) + highBit(word);
                return descendHigh(level, found);
            }
            if ((cand >> 6) == 0)
                return kInvalid; // no lower word at any level
            cand = (cand >> 6) - 1;
        }
        return kInvalid;
    }

    /** Smallest element at or above @p bound (kInvalid if none). */
    Index
    firstAtLeast(Index bound) const
    {
        if (size_ == 0 || bound >= universe_)
            return kInvalid;
        if (bound < 0)
            bound = 0;
        std::size_t cand = static_cast<std::size_t>(bound);
        for (std::size_t level = 0; level < levels_.size(); ++level) {
            if ((cand >> 6) < levels_[level].size()) {
                std::uint64_t word = levels_[level][cand >> 6] &
                                     (~std::uint64_t{0} << (cand & 63));
                if (word != 0) {
                    std::size_t found =
                        (cand & ~std::size_t{63}) + lowBit(word);
                    return descendLow(level, found);
                }
            }
            // No hit in this word: the successor, if any, lives in a
            // later word — a later bit at the level above.
            cand = (cand >> 6) + 1;
        }
        return kInvalid;
    }

  private:
    static std::size_t
    wordsFor(std::size_t bits)
    {
        return bits == 0 ? 1 : (bits + 63) / 64;
    }

    static unsigned lowBit(std::uint64_t w)
    {
        return static_cast<unsigned>(__builtin_ctzll(w));
    }
    static unsigned highBit(std::uint64_t w)
    {
        return 63u - static_cast<unsigned>(__builtin_clzll(w));
    }

    /** Walk a set summary bit down to the smallest leaf below it. */
    Index
    descendLow(std::size_t level, std::size_t bit) const
    {
        while (level > 0) {
            --level;
            bit = (bit << 6) + lowBit(levels_[level][bit]);
        }
        return static_cast<Index>(bit);
    }

    /** Walk a set summary bit down to the largest leaf below it. */
    Index
    descendHigh(std::size_t level, std::size_t bit) const
    {
        while (level > 0) {
            --level;
            bit = (bit << 6) + highBit(levels_[level][bit]);
        }
        return static_cast<Index>(bit);
    }

    /** levels_[0] = leaf bits; levels_[k] summarizes levels_[k-1]. */
    std::vector<std::vector<std::uint64_t>> levels_;
    Index universe_ = 0;
    int size_ = 0;
};

} // namespace syscomm::sim
