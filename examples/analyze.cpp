/**
 * @file
 * CLI deadlock analyzer for programs in the textual format. Reads a
 * program from a file (or stdin with "-"), prints its section 6
 * labels and the simlint report at the machine shape (section 8.1
 * lookahead included), and optionally simulates under the session's
 * labels.
 *
 * Usage: analyze <file|-> [--queues N] [--capacity N] [--run]
 *                [--policy fcfs|compatible|static|random]
 *
 * With no file argument, analyzes a built-in demo program.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "sim/session.h"
#include "sim/trace.h"
#include "text/parser.h"
#include "text/printer.h"

using namespace syscomm;

namespace {

const char* kDemo = R"(# Fig. 7 of Kung (1988)
cells 4
message A 1 -> 2
message B 2 -> 3
message C 0 -> 3
cell 0 { W(C) W(C) W(C) W(C) }
cell 1 { W(A) W(A) W(A) W(A) }
cell 2 { R(A) R(A) R(A) R(A) W(B) W(B) W(B) W(B) }
cell 3 { R(C) R(C) R(C) R(C) R(B) R(B) R(B) R(B) }
)";

std::string
readAll(std::istream& in)
{
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

int
main(int argc, char** argv)
{
    std::string source = kDemo;
    int queues = 2;
    int capacity = 1;
    bool run = false;
    sim::PolicyKind policy = sim::PolicyKind::kCompatible;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--queues" && i + 1 < argc) {
            queues = std::atoi(argv[++i]);
        } else if (arg == "--capacity" && i + 1 < argc) {
            capacity = std::atoi(argv[++i]);
        } else if (arg == "--run") {
            run = true;
        } else if (arg == "--policy" && i + 1 < argc) {
            std::string name = argv[++i];
            if (name == "fcfs")
                policy = sim::PolicyKind::kFcfs;
            else if (name == "static")
                policy = sim::PolicyKind::kStatic;
            else if (name == "random")
                policy = sim::PolicyKind::kRandom;
            else
                policy = sim::PolicyKind::kCompatible;
        } else if (arg == "-") {
            source = readAll(std::cin);
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: %s <file|-> [--queues N] [--capacity N] "
                        "[--run] [--policy P]\n",
                        argv[0]);
            return 0;
        } else {
            std::ifstream file(arg);
            if (!file) {
                std::fprintf(stderr, "cannot open %s\n", arg.c_str());
                return 1;
            }
            source = readAll(file);
        }
    }

    text::ParseResult parsed = text::parseProgram(source);
    if (!parsed.ok) {
        std::fprintf(stderr, "parse error: %s\n", parsed.error.c_str());
        return 1;
    }
    const Program& program = parsed.program;
    std::printf("%s\n", text::renderColumns(program).c_str());

    // Assume a linear array spanning the declared cells.
    MachineSpec machine;
    machine.topo = Topology::linearArray(program.numCells());
    machine.queuesPerLink = queues;
    machine.queueCapacity = capacity;

    // Compile-once session: its analysis reports on the machine, and
    // its labels drive the run and the audit.
    sim::SimSession session(program, machine);
    const auto report = session.compiled()->analysis(machine);
    if (session.valid())
        std::printf("labels: %s\n",
                    defaultLabeling(program).labeling.str(program).c_str());
    std::printf("%s", report->render(program).c_str());

    if (run) {
        // A RunLog records the assignment trace the audit checks.
        sim::RunLog log(program);
        sim::RunRequest request;
        request.policy = policy;
        request.observer = &log;
        sim::RunResult r = session.run(request);
        std::printf("\nrun (%s): %s in %lld cycles\n",
                    sim::policyKindName(policy), r.statusStr(),
                    static_cast<long long>(r.cycles));
        if (r.status == sim::RunStatus::kDeadlocked)
            std::printf("%s", r.deadlock.render(program).c_str());
        // A run that never started has no trace to check.
        sim::AuditReport audit;
        if (r.status != sim::RunStatus::kConfigError &&
            !session.labels().empty())
            audit = sim::auditAssignments(
                program, session.compiled()->competing(), session.labels(),
                log.events);
        std::printf("%s\n", audit.str(program).c_str());
    }
    return report->verdict == LintVerdict::kCertified ? 0 : 2;
}
