/**
 * @file
 * Quickstart: declare messages, write cell programs, check them with
 * the deadlock analysis, and simulate.
 *
 * The scenario is a 3-cell relay with a reply: cell 0 streams four
 * words to cell 2 through cell 1, which doubles each word in passing;
 * cell 2 sums them and sends one word back.
 */

#include <cstdio>

#include "sim/session.h"
#include "sim/trace.h"
#include "text/printer.h"

using namespace syscomm;

int
main()
{
    // 1. Describe the machine: a 3-cell linear array, two hardware
    //    queues per link, each buffering one word.
    MachineSpec machine;
    machine.topo = Topology::linearArray(3);
    machine.queuesPerLink = 2;
    machine.queueCapacity = 1;

    // 2. Declare the messages and write the cell programs. Every read
    //    and write is known up front — the systolic model's contract.
    Program program(3);
    MessageId in = program.declareMessage("IN", 0, 1);
    MessageId fwd = program.declareMessage("FWD", 1, 2);
    MessageId reply = program.declareMessage("REPLY", 2, 0);

    constexpr int kWords = 4;
    for (int i = 0; i < kWords; ++i) {
        double v = 1.0 + i;
        program.compute(0, [v](CellContext& ctx) { ctx.setNextWrite(v); });
        program.write(0, in);
    }
    program.read(0, reply);

    for (int i = 0; i < kWords; ++i) {
        program.read(1, in);
        program.compute(1, [](CellContext& ctx) {
            ctx.setNextWrite(2.0 * ctx.lastRead());
        });
        program.write(1, fwd);
    }

    for (int i = 0; i < kWords; ++i) {
        program.read(2, fwd);
        program.compute(2, [](CellContext& ctx) {
            ctx.local(0) += ctx.lastRead();
        });
    }
    program.compute(2, [](CellContext& ctx) {
        ctx.setNextWrite(ctx.local(0));
    });
    program.write(2, reply);

    std::printf("program:\n%s\n", text::renderColumns(program).c_str());

    // 3. Build a simulation session: validation, routing and all
    //    machine-state allocation happen once, here; the section 6
    //    labels are computed on first use.
    sim::SimSession session(program, machine);

    // 4. Analyze: crossing-off, section 6 labeling, and whether this
    //    machine has the queues a compatible assignment needs.
    const auto report = session.compiled()->analysis(machine);
    std::printf("labels: %s\n%s\n",
                defaultLabeling(program).labeling.str(program).c_str(),
                report->render(program).c_str());
    if (report->verdict != LintVerdict::kCertified)
        return 1;

    // 5. Run under the compatible queue-assignment policy. A run
    //    returns its status, cycle count and stats; a RunLog attached
    //    as the request's observer records what happened on the way —
    //    here the received values and the assignment trace the
    //    section 7 audit checks.
    sim::RunLog log(program);
    sim::RunRequest request;
    request.observer = &log;
    sim::RunResult result = session.run(request);

    std::printf("status: %s in %lld cycles\n", result.statusStr(),
                static_cast<long long>(result.cycles));
    if (!result.completed())
        return 1;
    const double expectedReply = 2.0 * (1 + 2 + 3 + 4);
    const double gotReply = log.received[reply][0];
    std::printf("cell 0 received reply = %.1f (expected %.1f)\n",
                gotReply, expectedReply);
    const sim::AuditReport audit = sim::auditAssignments(
        program, session.compiled()->competing(), session.labels(),
        log.events);
    std::printf("assignment trace: %s\n",
                audit.compatible ? "compatible" : "VIOLATIONS");

    // 6. The compiled session runs any number of requests — here the
    //    unsafe FCFS baseline, no recompilation, no observer.
    sim::RunRequest baseline;
    baseline.policy = sim::PolicyKind::kFcfs;
    sim::RunResult fcfs = session.run(baseline);
    std::printf("fcfs baseline: %s in %lld cycles\n", fcfs.statusStr(),
                static_cast<long long>(fcfs.cycles));
    return gotReply == expectedReply && audit.compatible ? 0 : 1;
}
