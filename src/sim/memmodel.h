#pragma once

/**
 * @file
 * Systolic vs memory-to-memory comparison (paper, Fig. 1 and section 1).
 *
 * Under the memory-to-memory model a cell program never touches its
 * I/O queues directly: an incoming word is staged through local memory
 * before the program sees it, and an outgoing word is staged through
 * local memory before the OS ships it — "a total of at least four
 * local memory accesses ... for a cell to update a data item flowing
 * through the array". The systolic model needs none.
 */

#include <string>

#include "core/machine_spec.h"
#include "core/program.h"
#include "sim/session.h"

namespace syscomm::sim {

/** One comparison row. */
struct ModelComparison
{
    RunResult systolic;
    RunResult memToMem;

    /** Ratio of memory-to-memory cycles to systolic cycles. */
    double speedup() const
    {
        return systolic.cycles
                   ? static_cast<double>(memToMem.cycles) /
                         static_cast<double>(systolic.cycles)
                   : 0.0;
    }

    /** Memory accesses per delivered word in the memory-to-memory run. */
    double accessesPerWord() const
    {
        return memToMem.stats.wordsDelivered
                   ? static_cast<double>(memToMem.stats.memAccesses) /
                         static_cast<double>(memToMem.stats.wordsDelivered)
                   : 0.0;
    }

    std::string summary() const;
};

/**
 * Run @p program under both communication models with identical queue
 * resources: one session per model, built from @p session with
 * memoryToMemory overridden, each running a default request.
 */
ModelComparison compareModels(const Program& program,
                              const MachineSpec& spec,
                              SessionOptions session = {});

} // namespace syscomm::sim
