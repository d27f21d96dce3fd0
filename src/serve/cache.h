#pragma once

/**
 * @file
 * The daemon's compiled-program cache: compile once across clients.
 *
 * Program-side compilation (validation, the competing-message
 * analysis, labeling, route tables) depends only on the program
 * structure and the topology — not on machine shapes, seeds or
 * policies — so N submissions of the same program over the same graph
 * should pay for exactly one CompiledProgram build no matter how they
 * interleave. The cache keys on a structural digest, keeps a bounded
 * LRU of built entries, and dedups *in-flight* builds with a shared
 * future: concurrent submissions of a new program all wait on the one
 * build instead of racing N compiles (tests assert this with
 * CompiledProgram::buildCount()).
 *
 * Each entry owns its Program and topology copies — a CompiledProgram
 * references the Program it was built from, and cached entries
 * outlive the submissions that created them, so the cache can never
 * hand out an analysis whose program has been freed. Only a miss
 * copies: callers pass their own Program and topology by reference,
 * and a hit compares against them and copies nothing. Submissions run
 * against the cache's Program, which equals what they sent: the key
 * is only a digest (it hashes no message names or endpoints), so a
 * hit is served only when the cached Program and topology equal the
 * submitted ones.
 */

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/program.h"
#include "core/topology.h"
#include "sim/session.h"

namespace syscomm::serve {

/** A cache entry: the pinned Program and its compiled analyses. */
struct CachedProgram
{
    std::shared_ptr<const Program> program;
    std::shared_ptr<const sim::CompiledProgram> compiled;

    bool valid() const { return program != nullptr; }
};

class CompileCache
{
  public:
    /** @p capacity built entries are retained, LRU-evicted. */
    explicit CompileCache(std::size_t capacity);

    /**
     * Cache key: FNV over the program structure (cells, message
     * lengths, op kinds/messages — compute callbacks are code and
     * cannot be hashed; @p version is the caller's escape hatch, see
     * ShapeSweepOptions::programVersion) and the topology's cells and
     * links.
     */
    static std::uint64_t keyFor(const Program& program,
                                const Topology& topo,
                                const std::string& version);

    /**
     * Fetch the entry for @p key, building it from copies of
     * (@p program, @p topo) on the first miss. Concurrent callers
     * with the same key share one build: exactly one of them
     * compiles, the rest block on its result (a hit on an in-flight
     * build counts as a hit). Only a caller that compiles copies
     * @p program and @p topo; a hit allocates nothing.
     *
     * A hit requires the cached (or in-flight) entry's Program —
     * names, endpoints, ops — and topology to equal @p program and
     * @p topo. When another program holds the key, this call compiles
     * @p program into an uncached entry and counts a miss; the cached
     * slot is left as it is (the first program keeps the key until
     * LRU eviction).
     *
     * An entry whose program failed validation is cached like any
     * other — the failure is deterministic, so re-compiling it for
     * the next client would buy nothing; callers check
     * compiled->valid().
     *
     * @p wasHit, when non-null, reports whether this call was served
     * from the cache (including a wait on an in-flight build).
     */
    CachedProgram get(std::uint64_t key, const Program& program,
                      const Topology& topo, bool* wasHit = nullptr);

    /** Peek without building; invalid CachedProgram on miss. Counts
     *  neither a hit nor a miss (it is the status path, not the
     *  admission path). */
    CachedProgram peek(std::uint64_t key) const;

    struct Stats
    {
        std::size_t entries = 0;
        std::size_t capacity = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
    };

    Stats stats() const;

  private:
    struct Entry
    {
        CachedProgram value;
        /** Position in lru_ (most-recent at front). */
        std::list<std::uint64_t>::iterator lruPos;
    };

    mutable std::mutex mutex_;
    std::size_t capacity_;
    std::unordered_map<std::uint64_t, Entry> entries_;
    std::list<std::uint64_t> lru_;
    /** Builds in progress; waiters share the builder's future. */
    std::unordered_map<std::uint64_t,
                       std::shared_future<CachedProgram>>
        inflight_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace syscomm::serve
