#pragma once

/**
 * @file
 * A hardware FIFO queue on a link.
 *
 * Queues are the contended resource of the whole paper: each link has
 * a fixed number, a queue serves one message at a time, its direction
 * is set when it is assigned, and it can be reassigned only after the
 * last word of the current message has passed through (section 2.3).
 *
 * Timing model: at most one push and one pop per cycle; a word becomes
 * visible to the consumer the cycle after it was pushed. A queue
 * optionally extends into the receiving cell's local memory (iWarp
 * "queue extension", section 8): words that overflow the hardware
 * capacity are buffered there and pay an extra access penalty when
 * they surface at the front.
 *
 * Storage is a fixed-capacity ring buffer (power-of-two mask indexing)
 * for the hardware slots plus a second fixed ring for the extension
 * words. A queue does not own either: both rings are slices of the
 * session's SimArena word pool (sim/arena.h), so every queue of a
 * machine shares one contiguous allocation — the dense-active scaling
 * work showed the former queue-owned vectors (two heap blocks per
 * queue, hundreds of thousands of blocks on a 100k-cell array) cost
 * more in cache misses than in cycles executed. Push/pop never
 * allocates, ever.
 *
 * All per-cycle bookkeeping is lazy and cycle-stamped: the one-push/
 * one-pop interlocks compare stored cycle stamps against the caller's
 * clock, and the busy/occupancy statistics are settled on demand over
 * the span since the last mutation. Nothing needs to touch an idle
 * queue every cycle, which is what makes an O(active-work) simulation
 * kernel possible.
 */

#include <algorithm>
#include <cstdint>

#include "core/types.h"
#include "sim/serial.h"
#include "sim/word.h"

namespace syscomm::sim {

/** One hardware queue: a view over SimArena-owned ring storage. */
class HwQueue
{
  public:
    /**
     * @p ring / @p ring_size: hardware slots, power-of-two sized, at
     * least @p capacity. @p spill / @p spill_size: extension slots,
     * power-of-two sized and at least @p ext_capacity, or null/0 when
     * the machine has no extension. Both are arena slices that must
     * outlive the queue; SimArena is the only production caller.
     */
    HwQueue(int id, int capacity, int ext_capacity, int ext_penalty,
            Word* ring, std::uint32_t ring_size, Word* spill,
            std::uint32_t spill_size);

    int id() const { return id_; }

    /**
     * The assigned message's crossing slot on this link (its index in
     * LinkState::crossings()), or -1 when free: forwarding and release
     * reach the crossing through it instead of searching by message.
     * Set by LinkState::assign. It is not serialized — a checkpoint
     * restore re-derives it from the crossings (SimArena).
     */
    int slot() const { return slot_; }
    void setSlot(int slot) { slot_ = slot; }

    /**
     * Return to the freshly-constructed state; the arena-backed ring
     * and spill storage is untouched (SimSession's run-many reset
     * path never reallocates).
     */
    void reset();

    /**
     * Serialize / restore the dynamic state (assignment, ring/spill
     * positions, interlock stamps, statistics) — the ring/spill
     * *contents* travel with the arena word pool, so only the scalars
     * live here. loadState fails — leaving the
     * queue in a partially-written state the caller must discard —
     * when the byte stream runs short; SimArena wraps both with shape
     * checks and a whole-machine digest, so a torn or mismatched
     * checkpoint is rejected before any kernel sees it.
     */
    void saveState(ByteWriter& out) const;
    bool loadState(ByteReader& in);

    // ------------------------------------------------------------------
    // Assignment lifecycle
    // ------------------------------------------------------------------

    bool isFree() const { return assigned_ == kInvalidMessage; }
    MessageId assignedMsg() const { return assigned_; }
    LinkDir dir() const { return dir_; }
    /** Is the assigned message on its final hop here (see Crossing)? */
    bool finalHop() const { return final_hop_; }

    /**
     * Assign to a message; @p total_words of it will pass through.
     * @p final_hop mirrors the crossing's route position so per-word
     * bookkeeping can read it off the queue.
     */
    void assign(MessageId msg, LinkDir dir, int total_words, Cycle now,
                bool final_hop = false);

    /** Words of the current message that have not yet passed. */
    int wordsRemaining() const { return words_remaining_; }

    /** Reassignable once empty and the whole message has passed. */
    bool canRelease() const
    {
        return assigned_ != kInvalidMessage && empty() &&
               words_remaining_ == 0;
    }

    /** Return the queue to the free pool. */
    void release(Cycle now);

    // ------------------------------------------------------------------
    // Data movement
    // ------------------------------------------------------------------

    int size() const { return ring_count_ + spill_count_; }
    bool empty() const { return size() == 0; }
    /** Physical capacity, clamped by any fault-injected degrade. */
    int totalCapacity() const
    {
        int cap = capacity_ + ext_capacity_;
        return cap_limit_ > 0 ? std::min(cap, cap_limit_) : cap;
    }
    bool isFull() const { return size() >= totalCapacity(); }

    /**
     * Fault injection (FaultKind::kDegradeQueue): clamp the effective
     * capacity to @p cap words (>= 1). Words already buffered above
     * the clamp stay and drain normally; only new pushes obey it.
     * Cleared by reset(). 0 removes the clamp.
     */
    void setCapacityLimit(int cap) { cap_limit_ = cap; }
    int capacityLimit() const { return cap_limit_; }

    /** Can a word be pushed at cycle @p now? */
    bool canPush(Cycle now) const
    {
        return !isFull() && last_push_cycle_ != now;
    }

    /** canPush() at the queue's last settled cycle (test convenience). */
    bool canPush() const { return canPush(settled_); }

    /** Push one word (asserts canPush()). */
    void push(Word word, Cycle now);

    /** Is the front word consumable this cycle? */
    bool canPop(Cycle now) const;

    /**
     * True when this queue will change state with no external action:
     * its front word is merely waiting for time to pass (same-cycle
     * push visibility, the one-pop-per-cycle interlock, or the
     * extension access penalty). The deadlock detector must not treat
     * such a cycle as a deadlock.
     */
    bool pendingTimedEvent(Cycle now) const;

    /**
     * Earliest cycle the current front word becomes consumable
     * (ignoring the one-pop-per-cycle interlock). Queue must be
     * non-empty. Used by the event-driven kernel to schedule wake-ups.
     */
    Cycle frontReadyCycle() const
    {
        return std::max(front().enqueuedAt + 1, front_ready_at_);
    }

    const Word& front() const { return ring_[head_]; }

    /** Pop the front word (asserts canPop()). */
    Word pop(Cycle now);

    /**
     * Settle the lazy busy/occupancy statistics through the start of
     * cycle @p now. Mutations settle automatically; call this once at
     * end of run.
     */
    void settleStats(Cycle now);

    /**
     * Fold the queue's machine-visible state (assignment, live FIFO
     * contents in order, interlock stamps, statistics) into an FNV
     * digest. Physical ring positions are excluded: two queues that
     * went through the same push/pop history digest identically no
     * matter where their heads sit.
     */
    std::uint64_t digestState(std::uint64_t h) const;

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    Cycle busyCycles() const { return busy_cycles_; }
    std::int64_t occupancySum() const { return occupancy_sum_; }
    std::int64_t wordsPushed() const { return words_pushed_; }
    std::int64_t extendedWords() const { return extended_words_; }
    std::int64_t assignmentsServed() const { return assignments_; }

  private:
    /** Recompute when the (new) front word becomes consumable. */
    void refreshFrontReady(Cycle now);

    int id_;
    int slot_ = -1;
    int capacity_;
    int ext_capacity_;
    int ext_penalty_;

    /** Hardware slots: arena ring of power-of-two length. */
    Word* ring_;
    std::uint32_t mask_ = 0;
    /** Extension slots (iWarp spillover): arena ring, FIFO. */
    Word* spill_;
    std::uint32_t spill_mask_ = 0;

    MessageId assigned_ = kInvalidMessage;
    LinkDir dir_ = LinkDir::kForward;
    bool final_hop_ = false;
    int words_remaining_ = 0;
    /** Degraded effective capacity (fault injection); 0 = no clamp. */
    int cap_limit_ = 0;

    std::uint32_t head_ = 0;
    int ring_count_ = 0;
    std::uint32_t spill_head_ = 0;
    int spill_count_ = 0;

    Cycle front_ready_at_ = 0;
    Cycle last_push_cycle_ = -1;
    Cycle last_pop_cycle_ = -1;

    /** Start-of-cycle stats are settled through this cycle. */
    Cycle settled_ = 0;
    Cycle busy_cycles_ = 0;
    std::int64_t occupancy_sum_ = 0;
    std::int64_t words_pushed_ = 0;
    std::int64_t extended_words_ = 0;
    std::int64_t assignments_ = 0;
};

// Pinned hot-state size (LP64), so a layout change shows in its diff.
static_assert(sizeof(HwQueue) == 160, "HwQueue layout changed");

} // namespace syscomm::sim
