/**
 * @file
 * perfbench — the syscomm repository benchmark harness.
 *
 *   perfbench --workload kernel-large|paper-sweep|serve-mix
 *             --seed N --seconds S --trace 0|1 --workdir DIR
 *             --results FILE [--golden FILE] [--trace-out FILE]
 *             [--smoke] [--corrupt-expected]
 *
 * Prints a human-readable report (metadata, then every metric with
 * its unit, value, median, tail percentile and sample count) and
 * writes the same data as one JSON object to --results. Exit codes:
 * 0 = every checked outcome matched, 1 = the correctness gate tripped,
 * 2 = usage or set-up error, 3 = refused (unoptimized build).
 * perfbench/run.py is the front end; see perfbench/README.md.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "workloads.h"

namespace {

using namespace perfbench;

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --workdir DIR --results FILE\n"
                 "                 [--golden FILE] [--trace-out FILE] "
                 "[--smoke] [--corrupt-expected]\n");
}

bool
writeResults(const std::string& path, const Context& ctx,
             const Report& report, const Gate& gate)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::int64_t attempted = gate.attempted();
    const std::int64_t failed = gate.failed();
    std::fprintf(f, "{\"correct\": %s, \"attempted\": %lld, "
                    "\"failed\": %lld, \"fail_ratio\": %s,\n",
                 failed == 0 ? "true" : "false",
                 static_cast<long long>(attempted),
                 static_cast<long long>(failed),
                 jsonNumber(attempted > 0 ? double(failed) / attempted : 0.0)
                     .c_str());
    std::fputs(" \"metadata\": {", f);
    bool first = true;
    for (const auto& [key, value] : hostMetadata(ctx)) {
        std::fprintf(f, "%s%s: %s", first ? "" : ", ",
                     jsonString(key).c_str(), jsonString(value).c_str());
        first = false;
    }
    std::fputs("},\n \"metrics\": {", f);
    first = true;
    for (const MetricRow& row : report.rows()) {
        std::fprintf(f,
                     "%s\n  %s: {\"value\": %s, \"unit\": %s, \"count\": "
                     "%zu, \"median\": %s, \"tail\": %s, \"tail_pct\": %s, "
                     "\"samples\": [",
                     first ? "" : ",", jsonString(row.name).c_str(),
                     jsonNumber(row.value).c_str(),
                     jsonString(row.unit).c_str(), row.count,
                     jsonNumber(row.median).c_str(),
                     jsonNumber(row.tail).c_str(),
                     jsonNumber(row.tailPct).c_str());
        for (std::size_t i = 0; i < row.samples.size(); ++i)
            std::fprintf(f, "%s%s", i == 0 ? "" : ", ",
                         jsonNumber(row.samples[i]).c_str());
        std::fputs("]}", f);
        first = false;
    }
    std::fputs("},\n \"notes\": {", f);
    first = true;
    for (const auto& [key, text] : report.notes()) {
        std::fprintf(f, "%s\n  %s: %s", first ? "" : ",",
                     jsonString(key).c_str(), jsonString(text).c_str());
        first = false;
    }
    std::fputs("}}\n", f);
    return std::fclose(f) == 0;
}

void
printReport(const Context& ctx, const Report& report, const Gate& gate)
{
    std::printf("perfbench %s seed=%llu trace=%d\n", ctx.workload.c_str(),
                static_cast<unsigned long long>(ctx.seed), ctx.trace ? 1 : 0);
    for (const auto& [key, value] : hostMetadata(ctx))
        std::printf("  %-14s %s\n", key.c_str(), value.c_str());
    std::printf("  %-40s %-6s %14s %14s %14s %6s\n", "metric", "unit",
                "value", "median", "tail", "n");
    for (const MetricRow& row : report.rows()) {
        char tail[48];
        std::snprintf(tail, sizeof tail, "%.6g@p%g", row.tail, row.tailPct);
        std::printf("  %-40s %-6s %14.6g %14.6g %14s %6zu\n",
                    row.name.c_str(), row.unit.c_str(), row.value,
                    row.median, tail, row.count);
    }
    for (const auto& [key, text] : report.notes())
        std::printf("  note %s: %s\n", key.c_str(), text.c_str());
    const std::int64_t attempted = gate.attempted();
    const std::int64_t failed = gate.failed();
    std::printf("  fail_ratio %.6g (%lld failed / %lld attempted)\n",
                attempted > 0 ? double(failed) / attempted : 0.0,
                static_cast<long long>(failed),
                static_cast<long long>(attempted));
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char** argv)
{
    Context ctx;
    ctx.sweepWorkers = static_cast<int>(
        std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
    std::string resultsPath;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--smoke") {
            ctx.smoke = true;
        } else if (arg == "--corrupt-expected") {
            ctx.corruptExpected = true;
        } else if (value == nullptr) {
            usage();
            return 2;
        } else {
            ++i;
            if (arg == "--workload")
                ctx.workload = value;
            else if (arg == "--seed")
                ctx.seed = std::strtoull(value, nullptr, 10);
            else if (arg == "--seconds")
                ctx.seconds = std::atof(value);
            else if (arg == "--trace")
                ctx.trace = std::strcmp(value, "0") != 0;
            else if (arg == "--workdir")
                ctx.workDir = value;
            else if (arg == "--results")
                resultsPath = value;
            else if (arg == "--golden")
                ctx.goldenPath = value;
            else if (arg == "--trace-out")
                ctx.tracePath = value;
            else {
                usage();
                return 2;
            }
        }
    }
    if (ctx.workload.empty() || ctx.workDir.empty() || resultsPath.empty() ||
        ctx.seconds <= 0.0) {
        usage();
        return 2;
    }
    std::string why;
    if (!optimizedBuild(why)) {
        std::fprintf(stderr, "perfbench: refusing to report: %s\n",
                     why.c_str());
        return 3;
    }

    Report report;
    Gate gate;
    bool ok = false;
    if (ctx.workload == "kernel-large")
        ok = runKernelLarge(ctx, report, gate);
    else if (ctx.workload == "paper-sweep")
        ok = runPaperSweep(ctx, report, gate);
    else if (ctx.workload == "serve-mix")
        ok = runServeMix(ctx, report, gate);
    else {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     ctx.workload.c_str());
        return 2;
    }
    if (!ok)
        return 2;

    printReport(ctx, report, gate);
    if (!writeResults(resultsPath, ctx, report, gate)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     resultsPath.c_str());
        return 2;
    }
    return gate.failed() == 0 ? 0 : 1;
}
