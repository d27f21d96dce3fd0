/**
 * @file
 * Sequence comparison on a systolic array — the application of the
 * paper's reference [8] (LoPresti's P-NAC nucleic-acid comparator).
 * Computes the longest-common-subsequence length of two strings on a
 * linear array, one cell per character of the first string.
 *
 * Usage: lcs_align [seqA] [seqB]
 */

#include <cstdio>
#include <string>

#include "algos/align.h"
#include "sim/session.h"
#include "sim/trace.h"

using namespace syscomm;

int
main(int argc, char** argv)
{
    algos::AlignSpec spec;
    if (argc > 2) {
        spec.a = argv[1];
        spec.b = argv[2];
    } else {
        spec = algos::AlignSpec::random(8, 14, 1988);
    }
    if (spec.a.empty() || spec.b.empty()) {
        std::printf("usage: %s <seqA> <seqB>\n", argv[0]);
        return 1;
    }

    std::printf("A = %s (one cell per character)\nB = %s (streamed "
                "through)\n\n",
                spec.a.c_str(), spec.b.c_str());

    Program program = algos::makeLcsProgram(spec);
    MachineSpec machine;
    machine.topo = algos::alignTopology(spec);
    machine.queuesPerLink = 2; // B and ROW streams share a label

    sim::SimSession session(program, machine);
    const auto report = session.compiled()->analysis(machine);
    std::printf("labels: %s\n%s\n",
                defaultLabeling(program).labeling.str(program).c_str(),
                report->render(program).c_str());
    if (report->verdict != LintVerdict::kCertified)
        return 1;

    // The timeline rendering consumes the log's assignment/release
    // events; the result value arrives as a received word.
    sim::RunLog log(program);
    sim::RunRequest request;
    request.observer = &log;
    sim::RunResult result = session.run(request);
    if (result.status != sim::RunStatus::kCompleted) {
        std::printf("simulation failed: %s\n", result.statusStr());
        return 1;
    }

    auto res = *program.messageByName("RES");
    int got = static_cast<int>(log.received[res][0]);
    int want = algos::lcsReference(spec);
    std::printf("LCS length: %d (DP reference: %d) in %lld cycles\n\n",
                got, want, static_cast<long long>(result.cycles));
    std::printf("%s",
                sim::renderQueueTimeline(log, result.cycles, program,
                                         machine, 60)
                    .c_str());
    return got == want ? 0 : 1;
}
