#include "sim/recovery.h"

#include <utility>

#include "core/repair.h"

namespace syscomm::sim {

namespace {

/** Dead sets implied by a fully-applied plan: killed cells take every
 *  adjacent link with them, exactly as the injector does. */
void
deadSetsFromPlan(const FaultPlan& plan, const Topology& topo,
                 std::vector<char>& link_dead,
                 std::vector<char>& cell_dead)
{
    link_dead.assign(static_cast<std::size_t>(topo.numLinks()), 0);
    cell_dead.assign(static_cast<std::size_t>(topo.numCells()), 0);
    for (const FaultEvent& e : plan.events()) {
        if (e.kind == FaultKind::kKillLink) {
            link_dead[e.link] = 1;
        } else if (e.kind == FaultKind::kKillCell) {
            cell_dead[e.cell] = 1;
            for (CellId nbr : topo.neighbors(e.cell)) {
                if (auto l = topo.linkBetween(e.cell, nbr))
                    link_dead[*l] = 1;
            }
        }
    }
}

} // namespace

RecoveryDriver::RecoveryDriver(const Program& program,
                               const MachineSpec& spec)
    : program_(program), spec_(spec)
{}

RecoveryReport
RecoveryDriver::run(const RecoveryOptions& options)
{
    RecoveryReport rep;

    // ---- Phase 1: the fault-injected primary run, checkpointed. ----
    RunRequest req = options.request;
    req.labels.clear();
    req.observer = nullptr;
    req.faults = options.faults;

    SimSession primary(program_, spec_, options.session);
    std::vector<std::uint8_t> lastCheckpoint;
    Cycle lastCheckpointCycle = -1;
    RunResult res;
    if (options.checkpointEvery > 0) {
        req.pauseAt = options.checkpointEvery;
        res = primary.run(req);
        while (res.status == RunStatus::kPaused) {
            std::vector<std::uint8_t> bytes;
            if (primary.saveCheckpoint(bytes)) {
                lastCheckpoint = std::move(bytes);
                lastCheckpointCycle = res.cycles;
            }
            res = primary.resume(res.cycles + options.checkpointEvery);
        }
    } else {
        req.pauseAt = 0;
        res = primary.run(req);
    }
    rep.primary = std::move(res);
    if (rep.primary.status != RunStatus::kFaulted)
        return rep; // healthy (or deadlocked on its own merits): done
    rep.faulted = true;

    // ---- Phase 2: adopt checkpoint progress. ----
    std::vector<int> delivered(
        static_cast<std::size_t>(program_.numMessages()), 0);
    if (!lastCheckpoint.empty()) {
        CheckpointInfo info;
        if (peekCheckpointInfo(lastCheckpoint.data(),
                               lastCheckpoint.size(), info) &&
            info.readSeq.size() == delivered.size()) {
            delivered = std::move(info.readSeq);
            rep.checkpointCycle = lastCheckpointCycle;
        }
    }

    // ---- Phase 3: the degraded topology. ----
    const Topology& topo = spec_.topo;
    std::vector<char> linkDead;
    std::vector<char> cellDead;
    deadSetsFromPlan(*options.faults, topo, linkDead, cellDead);
    std::vector<Link> surviving;
    for (LinkIndex l = 0; l < topo.numLinks(); ++l) {
        if (!linkDead[l])
            surviving.push_back(topo.link(l));
        else
            ++rep.deadLinks;
    }
    for (char d : cellDead)
        rep.deadCells += d != 0;
    rep.degradedTopo = Topology::custom(topo.numCells(),
                                        std::move(surviving));

    // ---- Phase 4: the residual program, feasibility-checked. ----
    if (program_.totalOps() != program_.totalTransferOps()) {
        rep.error = "program has compute ops: their state cannot be "
                    "replayed from a checkpoint progress header";
        return rep;
    }
    Program residual(program_.numCells());
    for (MessageId m = 0; m < program_.numMessages(); ++m) {
        const int remaining =
            program_.messageLength(m) - delivered[m];
        if (remaining <= 0)
            continue;
        const MessageDecl& decl = program_.message(m);
        if (cellDead[decl.sender] || cellDead[decl.receiver]) {
            rep.error = "message '" + decl.name + "' unrecoverable: " +
                        (cellDead[decl.sender] ? "sender" : "receiver") +
                        std::string(" cell is dead");
            return rep;
        }
        if (rep.degradedTopo.routePath(decl.sender, decl.receiver)
                .empty()) {
            rep.error = "message '" + decl.name +
                        "' unrecoverable: no surviving route from " +
                        std::to_string(decl.sender) + " to " +
                        std::to_string(decl.receiver);
            return rep;
        }
        MessageId nm =
            residual.declareMessage(decl.name, decl.sender,
                                    decl.receiver);
        for (int w = 0; w < remaining; ++w) {
            residual.write(decl.sender, nm);
            residual.read(decl.receiver, nm);
        }
        ++rep.residualMessages;
        rep.residualWords += remaining;
    }
    if (rep.residualMessages == 0) {
        // Everything was already delivered by the checkpoint; the
        // fault froze only in-flight bookkeeping. Trivially recovered.
        rep.recoverable = true;
        rep.recovered = true;
        return rep;
    }

    // The naive W/R interleaving above is exactly the kind of schedule
    // that deadlocks on small queues; repair serializes it safely.
    RepairResult fix = repairProgram(residual);
    if (!fix.success) {
        rep.error = "repair failed on residual program: " + fix.error;
        return rep;
    }
    rep.repairMovedOps = fix.movedOps;
    rep.residualProgram = std::move(fix.program);
    rep.recoverable = true;

    // ---- Phase 5: carry surviving degrades, recompile, rerun. ----
    std::vector<FaultEvent> carried;
    for (const FaultEvent& e : options.faults->events()) {
        if (e.kind != FaultKind::kDegradeQueue || linkDead[e.link])
            continue;
        const Link& old = topo.link(e.link);
        auto nl = rep.degradedTopo.linkBetween(old.a, old.b);
        if (!nl)
            continue;
        FaultEvent carry = e;
        carry.cycle = 0; // the clamp is permanent hardware damage
        carry.link = *nl;
        carried.push_back(carry);
    }
    rep.carriedDegrades = static_cast<int>(carried.size());
    rep.recoveryPlan = FaultPlan(std::move(carried));

    MachineSpec degradedSpec = spec_;
    degradedSpec.topo = rep.degradedTopo;
    // Explicit recompile for the degraded routes; the session runs
    // over the shared handle (and a second run() would reuse it).
    auto compiled = CompiledProgram::compile(rep.residualProgram,
                                             rep.degradedTopo);
    SimSession recovery(compiled, degradedSpec, options.session);
    RunRequest rreq = options.request;
    rreq.labels.clear();
    rreq.observer = nullptr;
    rreq.pauseAt = 0;
    rreq.faults =
        rep.recoveryPlan.empty() ? nullptr : &rep.recoveryPlan;
    rep.recovery = recovery.run(rreq);
    rep.recoveryMachineDigest = recovery.machineDigest();
    rep.recovered = rep.recovery.status == RunStatus::kCompleted;
    if (!rep.recovered && rep.error.empty()) {
        rep.error = std::string("recovery run ended ") +
                    runStatusName(rep.recovery.status);
    }
    return rep;
}

} // namespace syscomm::sim
