#include "sim/memmodel.h"

#include <sstream>

namespace syscomm::sim {

std::string
ModelComparison::summary() const
{
    std::ostringstream os;
    os << "systolic:        " << systolic.cycles << " cycles, "
       << systolic.stats.memAccesses << " memory accesses\n"
       << "memory-to-memory: " << memToMem.cycles << " cycles, "
       << memToMem.stats.memAccesses << " memory accesses ("
       << accessesPerWord() << " per delivered word)\n"
       << "systolic speedup: " << speedup() << "x\n";
    return os.str();
}

ModelComparison
compareModels(const Program& program, const MachineSpec& spec,
              SessionOptions session)
{
    // The memory model is session-scoped: one compiled session per
    // model.
    ModelComparison cmp;
    session.memoryToMemory = false;
    cmp.systolic = SimSession(program, spec, session).run();
    session.memoryToMemory = true;
    cmp.memToMem = SimSession(program, spec, session).run();
    return cmp;
}

} // namespace syscomm::sim
