#pragma once

/**
 * @file
 * SimArena: one owner for every per-run-mutable simulation object.
 *
 * Before the arena, the hot state of a machine was scattered across
 * the heap — every HwQueue owned two vectors (ring + extension
 * spillover), every LinkState owned its queues and crossings, so a
 * 100k-cell linear array paid ~10^6 small allocations at session
 * build and, worse, a pointer chase into a
 * cold cache line per queue touched at run time. The dense-active
 * phase of bench_large_array walks essentially all of them every
 * cycle in index order, which is exactly the access pattern a
 * contiguous layout turns into prefetchable streams: the ns/cell-cycle
 * figure drifted ~2x from 4k to 100k cells on the scattered layout.
 *
 * The arena replaces all of that with five pools, each one allocation,
 * indexed by the same ids the kernels already use:
 *
 *   words          every queue's hardware ring + extension ring,
 *                  queue-major (ring then spill per queue)
 *   queues         all HwQueues, link-major (link * queuesPerLink + q)
 *   crossings      all Crossing records, link-major in slot
 *                  (registration) order
 *   links          all LinkStates (views over the queue and crossing
 *                  pools)
 *   cells          all CellRuntimes (per-cell runtime pool)
 *
 * LinkState / HwQueue hold spans into the pools instead of owning
 * storage; nothing reallocates after build(), so every pointer and
 * span is stable for the arena's lifetime and SimSession's
 * reset-in-place path just rewinds counters.
 *
 * Because the pools *are* the machine state, two more operations
 * become trivial: serializeMachineState() writes a mid-run machine
 * out as bulk pool dumps plus per-object scalars (the checkpoint
 * format, which the sampled-oracle equivalence harness also uses to
 * move a run between kernels), and machineDigest() folds the whole
 * machine into one hash for cheap bit-identity checks at 100k-cell
 * sizes where materializing full results for comparison would
 * dominate the test budget.
 */

#include <cstdint>
#include <vector>

#include "core/machine_spec.h"
#include "core/program.h"
#include "sim/cell_exec.h"
#include "sim/link_state.h"
#include "sim/queue.h"
#include "sim/span.h"

namespace syscomm::sim {

class SimArena
{
  public:
    SimArena() = default;

    SimArena(const SimArena&) = delete;
    SimArena& operator=(const SimArena&) = delete;
    SimArena(SimArena&&) noexcept = default;
    SimArena& operator=(SimArena&&) noexcept = default;

    /**
     * Size and construct every pool for @p spec's machine running
     * @p program. @p crossings_per_link caps each link's crossing
     * span — the session counts route hops per link before building.
     * Call exactly once; all spans and pointers are stable after.
     */
    void build(const MachineSpec& spec, const Program& program,
               const std::vector<int>& crossings_per_link);

    bool built() const { return !links_.empty(); }

    Span<LinkState> links()
    {
        return {links_.data(), links_.size()};
    }
    Span<CellRuntime> cells()
    {
        return {cells_.data(), cells_.size()};
    }

    /**
     * Append the complete mid-run machine state (queue contents and
     * scalars, crossing phases, cell runtimes) to @p out as a flat
     * byte stream: word and crossing pools wholesale, then the
     * per-queue and per-cell scalars. The stream is consumed by
     * deserializeMachineState on an arena built from the same program
     * and machine spec; it is the storage format behind ShapeSweep's
     * crash-resume journal.
     */
    void serializeMachineState(std::vector<std::uint8_t>& out) const;

    /**
     * Restore machine state serialized by serializeMachineState.
     * Returns false when the stream is torn or was produced by a
     * differently-shaped machine (pool sizes disagree or a crossing
     * names no queue of its link); the arena contents are unspecified
     * after a failure and the caller must not run on them. Every
     * assigned queue's crossing slot (HwQueue::slot, not serialized)
     * is re-derived from the restored crossings. Callers wanting a stronger guarantee compare
     * machineDigest() against a digest recorded at save time —
     * SimSession::restoreCheckpoint does exactly that.
     */
    bool deserializeMachineState(const std::uint8_t* data,
                                 std::size_t size);

    /**
     * FNV-1a digest of the kernel-independent machine state. Two
     * sessions over the same program/spec that executed the same
     * machine history digest identically regardless of which kernel
     * ran it — the cheap bit-identity check behind the sampled
     * oracle. Visit-time bookkeeping (cell clocks, block reasons,
     * lazily-settled stat cursors) is excluded; see
     * CellRuntime::digestState.
     */
    std::uint64_t machineDigest() const;

    /** Total pool bytes (capacity), for RSS accounting and tests. */
    std::size_t bytesReserved() const;

    /**
     * Pool base addresses, exposed so tests can assert the
     * reset-in-place guarantee (no pool ever moves after build).
     */
    const Word* wordPool() const { return words_.data(); }
    const HwQueue* queuePool() const { return queues_.data(); }
    const Crossing* crossingPool() const { return crossings_.data(); }
    const CellRuntime* cellPool() const { return cells_.data(); }

    // ------------------------------------------------------------------
    // Free-standing builders for unit tests
    // ------------------------------------------------------------------

    /**
     * Build pools for a single link with no program (unit tests of
     * LinkState/HwQueue semantics). @p max_crossings caps later
     * addCrossing calls.
     */
    LinkState& buildSingleLink(int num_queues, int capacity,
                               int ext_capacity, int ext_penalty,
                               int max_crossings = 8);

    /** Single free-standing queue (unit tests of HwQueue semantics). */
    HwQueue& buildSingleQueue(int capacity, int ext_capacity,
                              int ext_penalty);

  private:
    void buildPools(int num_links, int queues_per_link, int capacity,
                    int ext_capacity, int ext_penalty,
                    const std::vector<int>& crossings_per_link);

    std::vector<Word> words_;
    std::vector<HwQueue> queues_;
    std::vector<Crossing> crossings_;
    std::vector<LinkState> links_;
    std::vector<CellRuntime> cells_;
};

} // namespace syscomm::sim
