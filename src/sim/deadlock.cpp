#include "sim/deadlock.h"

#include <sstream>

namespace syscomm::sim {

std::string
DeadlockReport::render(const Program& program) const
{
    if (!deadlocked)
        return "no deadlock";
    std::ostringstream os;
    os << "DEADLOCK at cycle " << atCycle << "\n";
    os << "blocked cells:\n";
    for (const CellBlockInfo& c : cells) {
        const Op& op = program.cellOps(c.cell)[c.pc];
        os << "  cell " << c.cell << " @ op " << c.pc << " ";
        if (op.isCompute())
            os << "compute";
        else
            os << (op.isWrite() ? "W(" : "R(")
               << program.message(op.msg).name << ")";
        os << " -- " << blockReasonName(c.reason) << "\n";
    }
    os << (links.empty() ? "links: none\n" : "links:\n");
    for (const LinkSnapshot& l : links) {
        os << "  link " << l.link << " (" << l.a << " -- " << l.b << "):";
        for (const QueueSnapshot& q : queuesOf(l)) {
            os << " ["
               << (q.msg == kInvalidMessage ? "-"
                                            : program.message(q.msg).name)
               << " " << q.occupancy << "/" << q.capacity << "]";
        }
        if (l.numWaiting > 0) {
            os << "  waiting:";
            for (MessageId w : waitingOf(l))
                os << " " << program.message(w).name;
        }
        os << "\n";
    }
    if (!faults.empty()) {
        os << "implicated faults:\n";
        for (const FaultAttribution& f : faults) {
            os << "  [" << f.eventIndex << "] " << f.event << " -- "
               << f.why << "\n";
        }
    }
    return os.str();
}

} // namespace syscomm::sim
