#pragma once

/**
 * @file
 * The crossing-off procedure (paper, sections 3 and 8.1).
 *
 * A pair of operations W(X), R(X) is *executable* when both are at the
 * effective front of their cell programs. The procedure repeatedly
 * crosses executable pairs off; a program is **deadlock-free** iff
 * every R/W operation can be crossed off.
 *
 * With lookahead enabled (section 8.1), an operation may head a pair
 * even when it is not literally first, provided every uncrossed
 * operation before it is a *write* (rule R1) and, for each message M,
 * the number of uncrossed writes to M skipped this way does not exceed
 * the total buffering capacity of the queues M crosses (rule R2).
 */

#include <functional>
#include <string>
#include <vector>

#include "core/program.h"
#include "core/types.h"

namespace syscomm {

class CompetingAnalysis; // core/competing.h

/** Per-message bound on skipped writes (rule R2). */
using SkipBoundFn = std::function<int(MessageId)>;

/** No skipping at all: lookahead degenerates to the basic procedure. */
SkipBoundFn zeroSkipBound();

/** The same bound for every message. */
SkipBoundFn uniformSkipBound(int bound);

/** Effectively unlimited buffering (infinite queues thought experiment). */
SkipBoundFn unlimitedSkipBound();

/**
 * The paper's actual R2 bound: the total capacity of the queues the
 * message will cross, i.e. hops(route) * capacity_per_queue (each hop
 * holds one queue of the given capacity, including any memory-backed
 * extension), read off routes already computed. @p competing must
 * outlive the returned function.
 */
SkipBoundFn routeCapacityBound(const CompetingAnalysis& competing,
                               int capacity_per_queue);

/** Options controlling a crossing-off run. */
struct CrossOffOptions
{
    /** Enable section 8.1 lookahead. */
    bool lookahead = false;
    /** Rule R2 bound; only consulted when lookahead is true. */
    SkipBoundFn skip_bound;
};

/** One crossed-off executable pair. */
struct PairEvent
{
    MessageId msg = kInvalidMessage;
    /** Which word of the message this pair transfers (0-based). */
    int wordIndex = 0;
    /** Op index of the W in the sender's full program. */
    int senderPos = 0;
    /** Op index of the R in the receiver's full program. */
    int receiverPos = 0;
    /**
     * Distinct messages whose (uncrossed) writes were skipped while
     * locating this pair. Used by the modified labeling of section 8.2.
     */
    std::vector<MessageId> skippedMessages;
};

/** Outcome of a full crossing-off run. */
struct CrossOffResult
{
    /** True iff every transfer op was crossed off. */
    bool deadlockFree = false;
    /**
     * Greedy rounds, Fig. 4 style: round k contains every pair that was
     * executable at the start of step k+1.
     */
    std::vector<std::vector<PairEvent>> rounds;
    /** The same pairs flattened in crossing order. */
    std::vector<PairEvent> sequence;
    /** Number of transfer ops left uncrossed (0 when deadlock-free). */
    int remainingOps = 0;
    /**
     * For a deadlocked program: the first uncrossed op of each cell
     * that still has work, as (cell, op-index) pairs.
     */
    std::vector<std::pair<CellId, int>> stuckFronts;

    /** Human-readable stuck-state description (empty if deadlock-free). */
    std::string describeStuck(const Program& program) const;

    /** Fig. 4-style step listing: "step N: W(X)/R(X) ...". */
    std::string traceStr(const Program& program) const;
};

/**
 * Incremental crossing-off engine. The labeling scheme of section 6
 * drives this one pair at a time; the free function crossOff() runs it
 * greedily in rounds.
 */
class CrossOffEngine
{
  public:
    CrossOffEngine(const Program& program, CrossOffOptions options = {});

    /**
     * All currently executable pairs, in ascending message-id order
     * (one candidate pair per message: its first uncrossed W and R).
     */
    std::vector<PairEvent> executablePairs() const;

    /** Whether a specific message's next pair is executable now. */
    bool isExecutable(MessageId msg) const;

    /** Cross one pair off (must come from executablePairs()). */
    void crossOffPair(const PairEvent& pair);

    /** True when every transfer op has been crossed. */
    bool done() const { return crossed_count_ == total_transfers_; }

    int remainingOps() const { return total_transfers_ - crossed_count_; }

    /** Number of words of @p msg already crossed off. */
    int wordsCrossed(MessageId msg) const { return next_word_[msg]; }

    /**
     * True if the op at (cell, full-program index) has been crossed.
     * Compute ops count as always crossed.
     */
    bool isCrossed(CellId cell, int op_index) const;

    /**
     * Index (into the full program) of the first uncrossed transfer op
     * of @p cell, or -1 when the cell is finished.
     */
    int frontOp(CellId cell) const;

    /**
     * Messages with at least one op remaining in @p cell's uncrossed
     * suffix — "messages the cell will still read from or write to"
     * (used by labeling rule 1a/1b).
     */
    std::vector<MessageId> futureMessages(CellId cell) const;

    const Program& program() const { return program_; }

  private:
    struct CellState
    {
        /** Indices of transfer ops in the full program, in order. */
        std::vector<int> transferPos;
        /** Message of each transfer op. */
        std::vector<MessageId> transferMsg;
        /** Kind (true = write) of each transfer op. */
        std::vector<bool> isWrite;
        /** Crossed flags, parallel to transferPos. */
        std::vector<bool> crossed;
        /** First uncrossed index into transferPos (lazily advanced). */
        int front = 0;
    };

    /** Advance a cell's front pointer past crossed ops. */
    void advanceFront(CellState& cs) const;

    /**
     * Check rule R1/R2 for reaching transfer index @p target in
     * @p cell's list; fills @p skipped with distinct skipped messages.
     * In basic mode this requires target == front.
     */
    bool canReach(const CellState& cs, int target,
                  std::vector<MessageId>* skipped) const;

    const Program& program_;
    CrossOffOptions options_;
    std::vector<CellState> cells_;
    /** Per message: positions (index into CellState lists) of its W/R ops. */
    std::vector<std::vector<int>> write_slots_;
    std::vector<std::vector<int>> read_slots_;
    /** Per message: next word (pair) to cross. */
    std::vector<int> next_word_;
    int total_transfers_ = 0;
    int crossed_count_ = 0;
};

/**
 * Run the crossing-off procedure to completion, greedily crossing all
 * executable pairs each round (this reproduces the step structure of
 * Fig. 4). Pick order cannot change the verdict: crossing a pair never
 * disables another executable pair.
 */
CrossOffResult crossOff(const Program& program, CrossOffOptions options = {});

/** Convenience: is the program deadlock-free (basic procedure)? */
bool isDeadlockFree(const Program& program);

/** Convenience: deadlock-free with lookahead under the given bound? */
bool isDeadlockFreeWithLookahead(const Program& program, SkipBoundFn bound);

} // namespace syscomm
