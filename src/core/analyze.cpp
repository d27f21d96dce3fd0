#include "core/analyze.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "core/competing.h"
#include "core/crossoff.h"
#include "core/label_verify.h"
#include "core/labeling.h"
#include "core/machine_spec.h"

namespace syscomm {

namespace {

Diagnostic makeDiag(Severity severity, LintRule rule, std::string text)
{
    Diagnostic d;
    d.severity = severity;
    d.rule = rule;
    d.text = std::move(text);
    return d;
}

std::string opStr(const Program& program, CellId cell, int opIndex)
{
    const auto& ops = program.cellOps(cell);
    if (opIndex < 0 || opIndex >= static_cast<int>(ops.size()))
        return "?";
    const Op& op = ops[opIndex];
    if (op.isCompute())
        return "C";
    std::string name = op.msg != kInvalidMessage &&
                               op.msg < program.numMessages()
                           ? program.message(op.msg).name
                           : "?";
    return (op.isWrite() ? "W(" : "R(") + name + ")";
}

/**
 * Pass 1 witness extraction. The wait-for graph over the stuck fronts
 * is functional (each stuck cell waits for exactly one other cell: its
 * front op's partner endpoint), so following edges from any stuck cell
 * must revisit a cell, and the revisited suffix is a simple blocked
 * cycle.
 *
 * Why the partner of a stuck front is itself stuck: a front R(m) is
 * message m's first uncrossed read, so m's next pair has its read side
 * reachable; the pair being non-executable means the sender's first
 * uncrossed W(m) is unreachable, hence the sender still has uncrossed
 * work. Symmetrically for a front W(m) and its receiver.
 */
DeadlockWitness extractWitness(const Program& program,
                               const CrossOffResult& stuck)
{
    DeadlockWitness witness;
    witness.blockedCells = static_cast<int>(stuck.stuckFronts.size());
    if (stuck.stuckFronts.empty())
        return witness;

    std::unordered_map<CellId, int> frontOf;
    frontOf.reserve(stuck.stuckFronts.size());
    for (const auto& [cell, op] : stuck.stuckFronts)
        frontOf.emplace(cell, op);

    std::vector<WitnessEntry> path;
    std::unordered_map<CellId, int> visitedAt;
    CellId cur = stuck.stuckFronts.front().first;
    while (visitedAt.find(cur) == visitedAt.end())
    {
        auto it = frontOf.find(cur);
        if (it == frontOf.end())
            break; // Unreachable by construction; degrade gracefully.
        const Op& op = program.cellOps(cur)[it->second];
        WitnessEntry entry;
        entry.cell = cur;
        entry.op = it->second;
        entry.msg = op.msg;
        entry.isWrite = op.isWrite();
        const MessageDecl& decl = program.message(op.msg);
        entry.waitsFor = entry.isWrite ? decl.receiver : decl.sender;
        visitedAt.emplace(cur, static_cast<int>(path.size()));
        path.push_back(entry);
        cur = entry.waitsFor;
    }

    auto cycleStart = visitedAt.find(cur);
    if (cycleStart != visitedAt.end())
        path.erase(path.begin(), path.begin() + cycleStart->second);
    witness.cycle = std::move(path);
    return witness;
}

/**
 * Pass 2 helper: smallest value in [1, hi] for which @p free holds,
 * or -1 when even hi fails. Deadlock-freedom is monotone in the skip
 * bound (rule R2 only ever compares a count against it), so after one
 * probe at hi (a program no buffering helps costs one pass) it
 * gallops 1, 2, 4, ... and bisects only the last interval: O(log
 * answer) passes, and typical answers are small.
 */
template <typename FreeAt>
int searchSmallest(int hi, FreeAt&& free)
{
    if (!free(hi))
        return -1;
    int lo = 1;
    for (int probe = 1; probe < hi; probe = probe <= hi / 2 ? probe * 2 : hi)
    {
        if (free(probe))
        {
            hi = probe;
            break;
        }
        lo = probe + 1;
    }
    while (lo < hi)
    {
        int mid = lo + (hi - lo) / 2;
        if (free(mid))
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/** Does crossing-off with lookahead under @p bound cross everything? */
bool freeWithLookahead(const Program& program, SkipBoundFn bound)
{
    CrossOffOptions o;
    o.lookahead = true;
    o.skip_bound = std::move(bound);
    return crossOff(program, o).deadlockFree;
}

} // namespace

const char* severityName(Severity severity)
{
    switch (severity)
    {
        case Severity::kInfo: return "info";
        case Severity::kWarning: return "warning";
        case Severity::kError: return "error";
    }
    return "?";
}

const char* lintRuleId(LintRule rule)
{
    switch (rule)
    {
        case LintRule::kInvalidProgram: return "SL001";
        case LintRule::kUnroutableMessage: return "SL002";
        case LintRule::kTopologyMismatch: return "SL003";
        case LintRule::kComputePin: return "SL004";
        case LintRule::kDeadlockWitness: return "SL010";
        case LintRule::kBufferBound: return "SL011";
        case LintRule::kNoFiniteBuffer: return "SL012";
        case LintRule::kLookaheadOnly: return "SL013";
        case LintRule::kLabelingFallback: return "SL020";
        case LintRule::kInconsistentLabels: return "SL021";
        case LintRule::kQueueInfeasible: return "SL022";
    }
    return "SL000";
}

const char* lintVerdictName(LintVerdict verdict)
{
    switch (verdict)
    {
        case LintVerdict::kCertified: return "certified";
        case LintVerdict::kDeadlock: return "deadlock";
        case LintVerdict::kUnknown: return "unknown";
        case LintVerdict::kInvalid: return "invalid";
    }
    return "?";
}

std::string Diagnostic::str(const Program& program) const
{
    std::ostringstream out;
    out << severityName(severity) << ' ' << lintRuleId(rule);
    if (cell != kInvalidCell)
        out << " cell=" << cell;
    if (op >= 0)
        out << " op=" << op;
    if (msg != kInvalidMessage && msg < program.numMessages())
        out << " msg=" << program.message(msg).name;
    if (link != kInvalidLink)
        out << " link=" << link;
    out << ": " << text;
    return out.str();
}

std::string DeadlockWitness::str(const Program& program) const
{
    std::ostringstream out;
    for (std::size_t i = 0; i < cycle.size(); ++i)
    {
        const WitnessEntry& e = cycle[i];
        if (i)
            out << "; ";
        out << "cell " << e.cell << " waits at op " << e.op << ' '
            << opStr(program, e.cell, e.op) << " for cell " << e.waitsFor;
    }
    return out.str();
}

bool AnalysisReport::hasErrors() const
{
    return std::any_of(diagnostics.begin(), diagnostics.end(),
                       [](const Diagnostic& d) {
                           return d.severity == Severity::kError;
                       });
}

std::string AnalysisReport::render(const Program& program) const
{
    std::ostringstream out;
    out << "verdict: " << lintVerdictName(verdict) << " (queues="
        << shape.queuesPerLink << " capacity=" << shape.queueCapacity
        << " extension=" << shape.extensionCapacity << ")\n";
    if (!witness.empty())
        out << "witness: " << witness.str(program) << '\n';
    for (const Diagnostic& d : diagnostics)
        out << "  " << d.str(program) << '\n';
    return out.str();
}

ProgramFacts programFacts(
    const Program& program, const Topology& topo,
    const std::vector<std::string>& validation,
    const std::function<const CompetingAnalysis&()>& competing,
    const std::function<const DefaultLabeling&()>& labeling)
{
    ProgramFacts facts;

    // ------------------------------------------------------------------
    // Pass 4a: structural validity. Everything downstream indexes by
    // the program's cells and messages, so invalid programs stop here.
    // ------------------------------------------------------------------
    if (program.numCells() > topo.numCells())
    {
        Diagnostic d = makeDiag(
            Severity::kError, LintRule::kTopologyMismatch,
            "program declares " + std::to_string(program.numCells()) +
                " cells but the topology has only " +
                std::to_string(topo.numCells()));
        facts.structure.push_back(std::move(d));
        facts.invalid = true;
        return facts;
    }
    if (!validation.empty())
    {
        for (const std::string& issue : validation)
            facts.structure.push_back(makeDiag(
                Severity::kError, LintRule::kInvalidProgram, issue));
        facts.invalid = true;
        return facts;
    }

    // ------------------------------------------------------------------
    // Pass 4b: route liveness. A message between cells the topology
    // does not connect has an empty route (no sender equals its
    // receiver here, so every other route has a hop). Standard
    // topologies are connected; custom (e.g. fault-degraded) ones may
    // not be.
    // ------------------------------------------------------------------
    facts.competing = &competing();
    for (MessageId m = 0; m < program.numMessages(); ++m)
    {
        if (facts.competing->route(m).empty())
        {
            const MessageDecl& decl = program.message(m);
            Diagnostic d = makeDiag(
                Severity::kError, LintRule::kUnroutableMessage,
                "message " + decl.name + " has no route from cell " +
                    std::to_string(decl.sender) + " to cell " +
                    std::to_string(decl.receiver));
            d.msg = m;
            d.cell = decl.sender;
            facts.structure.push_back(std::move(d));
            facts.invalid = true;
        }
    }
    if (facts.invalid)
        return facts;

    // ------------------------------------------------------------------
    // Pass 4c: compute-op neighborhood pins (informational). A cell
    // with compute ops cannot be remapped by repair/recovery and its
    // callbacks cannot cross the serve socket.
    // ------------------------------------------------------------------
    for (CellId cell = 0; cell < program.numCells(); ++cell)
    {
        int computeOps = 0;
        for (const Op& op : program.cellOps(cell))
            if (op.isCompute())
                ++computeOps;
        if (computeOps == 0)
            continue;
        Diagnostic d = makeDiag(
            Severity::kInfo, LintRule::kComputePin,
            "cell has " + std::to_string(computeOps) +
                " compute op(s): pinned to its physical neighborhood "
                "(repair cannot remap it; callbacks do not serialize)");
        d.cell = cell;
        facts.structure.push_back(std::move(d));
    }

    // ------------------------------------------------------------------
    // Pass 1, shape-free part: the basic procedure (the Theorem 1
    // precondition). finishAnalysis() adds lookahead at the shape.
    // ------------------------------------------------------------------
    facts.basicDeadlockFree = crossOff(program).deadlockFree;

    // ------------------------------------------------------------------
    // Pass 2: buffer-bound inference. Monotone in the bound, so a
    // search applies; a per-message bound of maxLen words is
    // equivalent to unlimited buffering (no message has more writes
    // to skip).
    // ------------------------------------------------------------------
    if (facts.basicDeadlockFree)
    {
        facts.minUniformCapacity = 0;
        facts.minUniformSkipBound = 0;
    }
    else
    {
        int maxLen = 1;
        for (MessageId m = 0; m < program.numMessages(); ++m)
            maxLen = std::max(maxLen, program.messageLength(m));
        facts.minUniformCapacity = searchSmallest(maxLen, [&](int cap) {
            return freeWithLookahead(
                program, routeCapacityBound(*facts.competing, cap));
        });
        // With every route one hop long, the capacity bound is the
        // uniform bound, so the capacity search already answered.
        const std::vector<Route>& routes = facts.competing->routes();
        const bool oneHop =
            std::all_of(routes.begin(), routes.end(),
                        [](const Route& r) { return r.numHops() == 1; });
        facts.minUniformSkipBound =
            oneHop ? facts.minUniformCapacity
                   : searchSmallest(maxLen, [&](int bound) {
                         return freeWithLookahead(program,
                                                  uniformSkipBound(bound));
                     });
    }

    // ------------------------------------------------------------------
    // Pass 3, shape-free part: the labeling a SimSession would use and
    // Theorem 1's condition (i), consistency.
    // ------------------------------------------------------------------
    facts.labeling = &labeling();
    for (const ConsistencyIssue& issue : checkLabelConsistency(
             program, facts.labeling->labeling.labels))
    {
        Diagnostic d = makeDiag(Severity::kError,
                                LintRule::kInconsistentLabels, issue.str(program));
        d.cell = issue.cell;
        d.op = issue.pos;
        d.msg = issue.curMsg;
        facts.inconsistent.push_back(std::move(d));
    }
    return facts;
}

AnalysisReport finishAnalysis(const Program& program, const Topology& topo,
                              const ProgramFacts& facts,
                              const AnalyzeOptions& options)
{
    AnalysisReport report;
    report.shape = options;
    report.diagnostics = facts.structure;
    if (facts.invalid)
    {
        report.verdict = LintVerdict::kInvalid;
        return report;
    }

    // ------------------------------------------------------------------
    // Pass 1: deadlock certification. When the basic procedure fails,
    // lookahead under the shape's real R2 bound: hops(route) x
    // effective per-queue capacity.
    // ------------------------------------------------------------------
    const int capacity = options.totalQueueCapacity();
    report.basicDeadlockFree = facts.basicDeadlockFree;
    bool freeAtShape = facts.basicDeadlockFree;
    if (!facts.basicDeadlockFree)
    {
        CrossOffOptions shapeOpts;
        shapeOpts.lookahead = true;
        shapeOpts.skip_bound = routeCapacityBound(*facts.competing, capacity);
        const CrossOffResult atShape = crossOff(program, shapeOpts);
        freeAtShape = atShape.deadlockFree;
        if (!atShape.deadlockFree)
        {
            report.verdict = LintVerdict::kDeadlock;
            report.witness = extractWitness(program, atShape);
            for (const WitnessEntry& e : report.witness.cycle)
            {
                Diagnostic d = makeDiag(
                    Severity::kError, LintRule::kDeadlockWitness,
                    "blocked cycle: " + opStr(program, e.cell, e.op) +
                        " cannot pair (waits for cell " +
                        std::to_string(e.waitsFor) + "); " +
                        std::to_string(atShape.remainingOps) +
                        " transfer op(s) uncrossable at per-queue "
                        "capacity " +
                        std::to_string(capacity));
                d.cell = e.cell;
                d.op = e.op;
                d.msg = e.msg;
                report.diagnostics.push_back(std::move(d));
            }
        }
    }

    // Pass 2's findings, read against the shape's capacity.
    report.minUniformCapacity = facts.minUniformCapacity;
    report.minUniformSkipBound = facts.minUniformSkipBound;
    if (!facts.basicDeadlockFree)
    {
        if (report.minUniformCapacity < 0)
        {
            report.diagnostics.push_back(makeDiag(
                Severity::kError, LintRule::kNoFiniteBuffer,
                "no finite queue capacity avoids deadlock (a read cycle: "
                "rule R1 can skip writes only)"));
        }
        else
        {
            Severity sev = report.minUniformCapacity > capacity
                               ? Severity::kWarning
                               : Severity::kInfo;
            report.diagnostics.push_back(makeDiag(
                sev, LintRule::kBufferBound,
                "deadlock-free from per-queue capacity " +
                    std::to_string(report.minUniformCapacity) +
                    " (uniform skip bound " +
                    std::to_string(report.minUniformSkipBound) +
                    "); analyzed shape provides " + std::to_string(capacity)));
            if (freeAtShape)
            {
                report.diagnostics.push_back(makeDiag(
                    Severity::kWarning, LintRule::kLookaheadOnly,
                    "deadlock-free only via section 8.1 lookahead "
                    "buffering; the basic procedure fails, so Theorem 1 "
                    "certification does not apply"));
            }
        }
    }

    // ------------------------------------------------------------------
    // Pass 3: label feasibility. The facts carry the labeling and its
    // condition (i) issues; condition (ii), queues per link >= largest
    // same-label group crossing it, depends on the shape.
    // ------------------------------------------------------------------
    const DefaultLabeling& labeling = *facts.labeling;
    if (labeling.fellBack)
    {
        report.labelingFellBack = true;
        report.diagnostics.push_back(makeDiag(
            report.verdict == LintVerdict::kDeadlock ? Severity::kInfo
                                                     : Severity::kWarning,
            LintRule::kLabelingFallback,
            "section 6 labeling failed; the trivial all-1 labeling is in "
            "force (all competitors form one simultaneous group)"));
    }
    report.labelsConsistent = facts.inconsistent.empty();
    report.diagnostics.insert(report.diagnostics.end(),
                              facts.inconsistent.begin(),
                              facts.inconsistent.end());

    MachineSpec spec;
    // Alias the caller's topology without copying it; the spec does not
    // outlive this call.
    spec.topo = SharedTopology(
        std::shared_ptr<const Topology>(std::shared_ptr<const Topology>(),
                                        &topo));
    spec.queuesPerLink = options.queuesPerLink;
    spec.queueCapacity = options.queueCapacity;
    spec.extensionCapacity = options.extensionCapacity;
    Feasibility dynamic =
        checkDynamicFeasibility(*facts.competing, labeling.labeling.labels, spec);
    report.feasibleAtShape = dynamic.feasible;
    report.requiredQueuesPerLink = dynamic.requiredQueuesPerLink;
    report.worstLink = dynamic.worstLink;
    if (!dynamic.feasible)
    {
        Diagnostic d = makeDiag(
            report.verdict == LintVerdict::kDeadlock ? Severity::kInfo
                                                     : Severity::kWarning,
            LintRule::kQueueInfeasible,
            "Theorem 1 condition (ii) fails: " + dynamic.reason);
        d.link = dynamic.worstLink;
        report.diagnostics.push_back(std::move(d));
    }

    if (report.verdict != LintVerdict::kDeadlock)
    {
        bool certified = report.basicDeadlockFree &&
                         report.labelsConsistent && report.feasibleAtShape;
        report.verdict =
            certified ? LintVerdict::kCertified : LintVerdict::kUnknown;
    }
    return report;
}

AnalysisReport analyzeProgram(const Program& program, const Topology& topo,
                              const AnalyzeOptions& options)
{
    CompetingAnalysis competing;
    DefaultLabeling labeling;
    const ProgramFacts facts = programFacts(
        program, topo, program.validate(topo.numCells()),
        [&]() -> const CompetingAnalysis& {
            return competing = CompetingAnalysis::analyze(program, topo);
        },
        [&]() -> const DefaultLabeling& {
            return labeling = defaultLabeling(program);
        });
    return finishAnalysis(program, topo, facts, options);
}

} // namespace syscomm
