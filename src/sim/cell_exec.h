#pragma once

/**
 * @file
 * Per-cell execution state. The machine drives one of these per cell;
 * it also implements the CellContext visible to compute callbacks.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "core/cell_context.h"
#include "core/op.h"
#include "core/types.h"
#include "sim/fnv.h"
#include "sim/serial.h"

namespace syscomm::sim {

/** Why a cell could not execute its current op this cycle. */
enum class BlockReason : std::uint8_t
{
    kNone = 0,
    kQueueNotAssigned, ///< The needed queue has not been assigned yet.
    kQueueFull,        ///< Output queue (incl. extension) is full.
    kWordNotArrived,   ///< Input queue empty or word not consumable yet.
    kMemoryStall,      ///< Memory-to-memory model staging cycles.
    kLinkDead,         ///< Fault injection killed the op's link.
    kLinkStalled,      ///< Fault injection is stalling the op's link.
    kCellDead,         ///< Fault injection killed this cell.
};

inline constexpr int kNumBlockReasons = 8;
static_assert(static_cast<int>(BlockReason::kCellDead) + 1 ==
                  kNumBlockReasons,
              "update kNumBlockReasons when adding a BlockReason — "
              "loadRunResult rejects bytes past it");

const char* blockReasonName(BlockReason reason);

/** Run-time state of one cell. */
class CellRuntime : public CellContext
{
  public:
    /**
     * @p ops must stay alive and unchanged for the cell's lifetime
     * (SimSession points cells at the Program's op lists). The data
     * pointer and length are cached flat: currentOp() on the kernel
     * hot path must not chase the vector header — a dependent load
     * into a scattered heap block, one per cell per cycle on
     * dense-active workloads.
     */
    CellRuntime(CellId id, const std::vector<Op>* ops)
        : ops_(ops->data()),
          num_ops_(static_cast<int>(ops->size())),
          id_(id)
    {}

    // ------------------------------------------------------------------
    // Program counter
    // ------------------------------------------------------------------

    bool done() const { return pc_ >= num_ops_; }
    int pc() const { return pc_; }
    const Op& currentOp() const { return ops_[pc_]; }
    /**
     * Address of the current op without touching the op array — the
     * kernels' software-prefetch stages compute prefetch targets from
     * already-resident cell lines only.
     */
    const Op* currentOpAddr() const { return ops_ + pc_; }

    /** Move to the next op, resetting per-op staging state. */
    void advance()
    {
        ++pc_;
        stall_remaining_ = -1;
        read_completed_ = false;
    }

    /**
     * Return to the start-of-run state, keeping the locals storage
     * for reuse (SimSession's run-many reset path). Equivalent to a
     * fresh CellRuntime over the same op list.
     */
    void resetRun()
    {
        pc_ = 0;
        now_ = 0;
        last_read_ = 0.0;
        next_write_ = 0.0;
        has_staged_write_ = false;
        locals_.clear(); // local(i) refills with 0.0 on demand
        stall_remaining_ = -1;
        read_completed_ = false;
        lastBlock = BlockReason::kNone;
        lastVisitCycle = 0;
    }

    /**
     * Serialize / restore the cell's mid-run state (the op list and
     * cell id are construction-time and must already match).
     * SimArena wraps both with pool-shape checks and a whole-machine
     * digest; on a short stream loadState returns false and the cell
     * must be discarded.
     */
    void
    saveState(ByteWriter& out) const
    {
        out.put(pc_);
        out.put(now_);
        out.put(last_read_);
        out.put(next_write_);
        out.put(has_staged_write_);
        out.put(stall_remaining_);
        out.put(read_completed_);
        out.put(lastBlock);
        out.put(lastVisitCycle);
        out.putVector(locals_);
    }

    bool
    loadState(ByteReader& in)
    {
        pc_ = in.get<int>();
        now_ = in.get<Cycle>();
        last_read_ = in.get<double>();
        next_write_ = in.get<double>();
        has_staged_write_ = in.get<bool>();
        stall_remaining_ = in.get<int>();
        read_completed_ = in.get<bool>();
        lastBlock = in.get<BlockReason>();
        lastVisitCycle = in.get<Cycle>();
        return in.getVector(locals_) && pc_ >= 0 && pc_ <= num_ops_;
    }

    /**
     * Fold the kernel-independent machine state into an FNV digest:
     * program position, staged values and locals — but not the
     * visit-time bookkeeping (now_, lastBlock, lastVisitCycle), which
     * legitimately differs between the dense kernel (touches every
     * cell every cycle) and the event kernel (lets blocked cells
     * sleep) without any observable divergence.
     */
    std::uint64_t digestState(std::uint64_t h) const
    {
        h = fnv(h, static_cast<std::uint64_t>(pc_));
        h = fnvDouble(h, last_read_);
        h = fnvDouble(h, next_write_);
        h = fnv(h, has_staged_write_ ? 1 : 0);
        h = fnv(h, static_cast<std::uint64_t>(stall_remaining_));
        h = fnv(h, read_completed_ ? 1 : 0);
        h = fnv(h, locals_.size());
        for (double v : locals_)
            h = fnvDouble(h, v);
        return h;
    }

    // ------------------------------------------------------------------
    // CellContext (visible to compute callbacks)
    // ------------------------------------------------------------------

    double lastRead() const override { return last_read_; }

    void setNextWrite(double value) override
    {
        next_write_ = value;
        has_staged_write_ = true;
    }

    double& local(int index) override
    {
        if (index >= static_cast<int>(locals_.size()))
            locals_.resize(index + 1, 0.0);
        return locals_[index];
    }

    CellId cellId() const override { return id_; }
    Cycle now() const override { return now_; }

    // ------------------------------------------------------------------
    // Machine-facing helpers
    // ------------------------------------------------------------------

    void setNow(Cycle now) { now_ = now; }

    /**
     * Value the next W op sends: the explicitly staged value if any,
     * otherwise the last word read (so bare R/W pairs forward words
     * unchanged, like the X streams of Fig. 2).
     */
    double takeWriteValue()
    {
        double v = has_staged_write_ ? next_write_ : last_read_;
        has_staged_write_ = false;
        return v;
    }

    void recordRead(double value) { last_read_ = value; }

    /** Memory-to-memory staging state (see machine.cpp). */
    int stallRemaining() const { return stall_remaining_; }
    void setStallRemaining(int v) { stall_remaining_ = v; }
    bool readCompleted() const { return read_completed_; }
    void setReadCompleted(bool v) { read_completed_ = v; }

    BlockReason lastBlock = BlockReason::kNone;

    /**
     * Cycle of the cell's most recent visit by the simulation kernel.
     * The event-driven kernel uses it to settle blocked-cycle spans
     * lazily: a sleeping cell is charged (wake cycle - 1 -
     * lastVisitCycle) blocked cycles when it is next visited, exactly
     * what the dense reference kernel accumulates one cycle at a time.
     */
    Cycle lastVisitCycle = 0;

  private:
    // Field order is deliberate: everything a non-compute cell step
    // reads or writes (op cursor, clock, staged values) packs into
    // the leading cache line together with lastBlock/lastVisitCycle
    // above; the compute-only locals vector and the rarely-consulted
    // memory-to-memory staging land at the back. On dense-active
    // 100k-cell sweeps the cells pool is walked end to end every
    // cycle, so lines that never need touching are lines saved.
    const Op* ops_;
    Cycle now_ = 0;
    int num_ops_ = 0;
    int pc_ = 0;
    double last_read_ = 0.0;
    double next_write_ = 0.0;
    CellId id_;
    bool has_staged_write_ = false;
    bool read_completed_ = false;
    int stall_remaining_ = -1;
    std::vector<double> locals_;
};

} // namespace syscomm::sim
