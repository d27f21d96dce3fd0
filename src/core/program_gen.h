#pragma once

/**
 * @file
 * Random program generators for property tests and Monte-Carlo
 * benchmarks.
 *
 * randomDeadlockFreeProgram() follows the paper's section 3.3 writing
 * strategy: "write the cell programs as if only one word in one message
 * would be transferred in a given step". Serializing word transfers
 * guarantees the crossing-off procedure can replay the generation
 * order, so the result is deadlock-free by construction.
 */

#include <cstdint>

#include "core/program.h"
#include "core/topology.h"

namespace syscomm {

/** Knobs for the random generators. */
struct GenOptions
{
    int numMessages = 8;
    /** Words per message are drawn uniformly from [1, maxWords]. */
    int maxWords = 6;
    std::uint64_t seed = 1;
    /** Allow sender/receiver pairs that are not adjacent. */
    bool multiHop = true;
    /**
     * Probability of switching to a different message between words.
     * 0 emits each message's words contiguously (no related messages,
     * mostly distinct labels); higher values interleave messages,
     * creating related classes that must share labels — and therefore
     * need wider queue pools.
     */
    double interleave = 0.3;
};

/**
 * A random deadlock-free program over the given topology (section 3.3
 * strategy). Always validates cleanly and passes the basic
 * crossing-off procedure.
 */
Program randomDeadlockFreeProgram(const Topology& topo,
                                  const GenOptions& options);

/**
 * Copy @p program with @p swaps random adjacent transpositions applied
 * inside random cell programs. Word-count structure is preserved, so
 * the result still validates, but deadlock-freedom may be destroyed —
 * useful for exercising the detectors.
 */
Program perturbProgram(const Program& program, int swaps,
                       std::uint64_t seed);

/**
 * Activity shape of a large-array workload. The three phases cover
 * the regimes that stress different parts of an event-driven kernel:
 * sparse exercises fast-forward over idle stretches, streaming
 * exercises the hot-link forwarding scan, and dense-active exercises
 * active-set mutation throughput (every cell blocks and wakes every
 * few cycles).
 */
enum class ArrayPhase
{
    /** A handful of long streams; almost the whole array is idle. */
    kSparse,
    /** Disjoint medium streams tiling the array end to end. */
    kStreaming,
    /** Neighbor ping-pong on disjoint cell pairs: every cell busy. */
    kDenseActive,
};

const char* arrayPhaseName(ArrayPhase phase);

/** Knobs for largeArrayProgram(). */
struct LargeArrayOptions
{
    ArrayPhase phase = ArrayPhase::kStreaming;
    /** Stream count for sparse/streaming (dense derives its own). */
    int messages = 8;
    /** Words per message (dense jitters per pair from the seed). */
    int wordsPerMessage = 32;
    /** Sender compute cycles per word (sparse/streaming only). */
    int computeGap = 8;
    std::uint64_t seed = 1;
};

/**
 * A deadlock-free workload for a @p cells-cell linear array in the
 * given phase, deterministic in the options. Built for perfbench's
 * kernel-large workload and the large-array kernel-equivalence tests;
 * cells/messages scale with the array, the per-cell program stays
 * O(wordsPerMessage).
 */
Program largeArrayProgram(int cells, const LargeArrayOptions& options);

} // namespace syscomm
