/**
 * @file
 * serve-mix: an in-process syscommd on a Unix socket (a spool of real
 * files in the work dir with fsync off, --lint enforce, 2 workers)
 * driven by a closed loop of 2 client connections; each waits for its
 * submission's terminal state and fetches the result before sending
 * the next one. The submissions
 * come from a seeded plan over 8x8-mesh text programs:
 *
 *   75%  one of 16 hot programs (compile and lint cache hits);
 *   22%  a cold randomDeadlockFreeProgram from a pool of 512, so it is
 *        long evicted from the daemon's 32-entry cache when it recurs;
 *    3%  a perturbProgram output from a pool of 48 whose
 *        analyzeProgram verdict is "deadlock" at every shape offered
 *        (capacity <= 4) — it must be rejected with "lint";
 *
 * and 1 in 8 is a 4-shape x 2-request sweep, the rest single runs.
 * Submission i is a pure function of (seed, i), generated before its
 * send is timed.
 *
 * A pass is a fixed number of submissions, 400 per --seconds (the
 * daemon retains every submission, so a fixed count keeps its memory
 * independent of its speed), after an untimed warm-up of 1000 in the
 * same closed loop.
 *
 * Latency is timed from submit-send to the first status poll that
 * observes a terminal state (a rejection is terminal at its ack);
 * polls go out at a fixed short interval instead of the client
 * library's doubling backoff, so the figure is not rounded to a poll
 * schedule.
 *
 * Gate: every admitted submission's status, cycles and machine digest
 * (every row, for sweeps) must equal a direct SimSession run, and the
 * lint rejections must be exactly the submissions whose verdict is
 * "deadlock".
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "core/analyze.h"
#include "core/crossoff.h"
#include "core/program_gen.h"
#include "core/topology.h"
#include "counting_io.h"
#include "layers.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "sim/session.h"
#include "text/printer.h"
#include "workloads.h"

namespace perfbench {

using namespace syscomm;
using serve::JsonValue;

namespace {

constexpr int kHotPrograms = 16;
constexpr auto kPollInterval = std::chrono::microseconds(250);

enum class Kind : std::uint8_t
{
    kHot,
    kCold,
    kDeadlock,
};

const char*
kindName(Kind kind)
{
    switch (kind) {
      case Kind::kHot:
        return "hot";
      case Kind::kCold:
        return "cold";
      case Kind::kDeadlock:
        return "rejected";
    }
    return "?";
}

/** One planned submission: a pure function of (seed, index). */
struct Entry
{
    Kind kind = Kind::kHot;
    bool sweep = false;
    int program = 0; ///< index into Plan::programs
    std::vector<sim::ShapeSpec> shapes;
    std::vector<sim::RunRequest> requests;
};

struct PlanProgram
{
    std::string text;
    std::unique_ptr<Program> program;
};

/**
 * The seeded program pools every submission draws from. The deadlocked
 * pool is found by rejection sampling, whose cost depends on the seed,
 * so it is generated once, outside the timed set-ups.
 */
struct Plan
{
    std::uint64_t seed = 0;
    Topology topo;
    JsonValue topoJson;
    /** [0, 16) hot, then the cold pool, then the deadlocked pool. */
    std::vector<PlanProgram> programs;
    int coldBase = 0;
    int coldCount = 0;
    int deadlockBase = 0;
    int deadlockCount = 0;
};

/** What one submission did, as the client observed it. */
struct Outcome
{
    std::size_t index = 0;
    bool rejected = false;
    std::string rejectReason;
    std::string state;
    JsonValue result;
    double latencyMs = 0.0;
    double submitRttMs = 0.0;
    double ackToTerminalMs = 0.0;
    /** Seconds from the loop start to the send / terminal observation. */
    double sentAt = 0.0;
    double doneAt = 0.0;
    int polls = 0;
};

/** Shapes single runs and sweep rungs are drawn from (capacity <= 4). */
const std::vector<sim::ShapeSpec>&
shapeMenu()
{
    static const std::vector<sim::ShapeSpec> menu = [] {
        std::vector<sim::ShapeSpec> shapes;
        for (int k = 0; k < 8; ++k) {
            sim::ShapeSpec shape;
            shape.queuesPerLink = 2 + k % 3;
            shape.queueCapacity = 1 + (k / 2) % 4;
            shape.name = "q" + std::to_string(shape.queuesPerLink) + "c" +
                         std::to_string(shape.queueCapacity);
            shapes.push_back(shape);
        }
        return shapes;
    }();
    return menu;
}

/** The rung the daemon lints a submission at (its best-buffered one). */
const sim::ShapeSpec&
lintShape(const std::vector<sim::ShapeSpec>& shapes)
{
    const sim::ShapeSpec* best = &shapes[0];
    for (const sim::ShapeSpec& shape : shapes) {
        if (shape.queueCapacity + shape.extensionCapacity >
            best->queueCapacity + best->extensionCapacity)
            best = &shape;
    }
    return *best;
}

AnalyzeOptions
analyzeOptions(const sim::ShapeSpec& shape)
{
    AnalyzeOptions options;
    options.queuesPerLink = shape.queuesPerLink;
    options.queueCapacity = shape.queueCapacity;
    options.extensionCapacity = shape.extensionCapacity;
    return options;
}

std::string
submitLine(const Plan& plan, const Entry& entry)
{
    JsonValue msg = JsonValue::object();
    msg.set("verb", JsonValue::str("submit"));
    msg.set("kind", JsonValue::str(entry.sweep ? "sweep" : "run"));
    msg.set("program", JsonValue::str(plan.programs[entry.program].text));
    msg.set("topology", plan.topoJson);
    if (entry.sweep) {
        JsonValue shapes = JsonValue::array();
        for (const sim::ShapeSpec& s : entry.shapes)
            shapes.push(shapeJson(s.name, s.queuesPerLink, s.queueCapacity,
                                  s.extensionCapacity, s.extensionPenalty));
        msg.set("shapes", std::move(shapes));
    } else {
        const sim::ShapeSpec& s = entry.shapes[0];
        msg.set("shape", shapeJson(s.name, s.queuesPerLink, s.queueCapacity,
                                   s.extensionCapacity, s.extensionPenalty));
    }
    JsonValue requests = JsonValue::array();
    for (const sim::RunRequest& r : entry.requests)
        requests.push(
            JsonValue::object()
                .set("policy", JsonValue::str(sim::policyKindName(r.policy)))
                .set("seed", JsonValue::integer(
                                 static_cast<std::int64_t>(r.seed))));
    msg.set("requests", std::move(requests));
    return serve::writeJson(msg);
}

GenOptions
meshGen(const Context& ctx, std::uint64_t seed)
{
    GenOptions gen;
    gen.numMessages = ctx.smoke ? 16 : 64;
    gen.interleave = 0.3;
    gen.seed = seed;
    return gen;
}

void
addProgram(Plan& plan, Program program)
{
    PlanProgram p;
    p.text = text::printProgram(program);
    p.program = std::make_unique<Program>(std::move(program));
    plan.programs.push_back(std::move(p));
}

/**
 * A perturbed program whose verdict is "deadlock" at capacity 4, and
 * so (the R2 bound only shrinks with capacity) at every menu shape.
 */
Program
deadlockedProgram(const Topology& topo, const Context& ctx, std::uint64_t& rng)
{
    sim::ShapeSpec widest;
    widest.queuesPerLink = 2;
    widest.queueCapacity = 4;
    for (;;) {
        Program base =
            randomDeadlockFreeProgram(topo, meshGen(ctx, rng = mix64(rng)));
        for (int attempt = 0; attempt < 16; ++attempt) {
            Program candidate = perturbProgram(base, 128, rng = mix64(rng));
            // Basic crossing-off passing rules a deadlock verdict out
            // cheaply; only the survivors get the full analysis.
            if (isDeadlockFree(candidate))
                continue;
            if (analyzeProgram(candidate, topo, analyzeOptions(widest))
                    .verdict == LintVerdict::kDeadlock)
                return candidate;
        }
    }
}

Topology
meshTopology(const Context& ctx)
{
    const int side = ctx.smoke ? 4 : 8;
    return Topology::mesh(side, side);
}

/** The deadlocked pool (plain Programs, printed by buildPlan). */
std::vector<Program>
deadlockedPool(const Context& ctx)
{
    ScopedSpan span("bench.generate", "bench");
    const Topology topo = meshTopology(ctx);
    std::uint64_t rng = mix64(ctx.seed ^ 0x646561646c6f636bull);
    std::vector<Program> pool;
    for (int d = 0; d < (ctx.smoke ? 8 : 48); ++d)
        pool.push_back(deadlockedProgram(topo, ctx, rng));
    return pool;
}

Plan
buildPlan(const Context& ctx, const std::vector<Program>& deadlocked)
{
    ScopedSpan span("bench.generate", "bench");
    Plan plan;
    plan.seed = ctx.seed;
    const int side = ctx.smoke ? 4 : 8;
    plan.topo = meshTopology(ctx);
    plan.topoJson = JsonValue::object()
                        .set("kind", JsonValue::str("mesh"))
                        .set("rows", JsonValue::integer(side))
                        .set("cols", JsonValue::integer(side));
    std::uint64_t rng = mix64(ctx.seed ^ 0x73657276);
    for (int h = 0; h < kHotPrograms; ++h)
        addProgram(plan, randomDeadlockFreeProgram(
                             plan.topo, meshGen(ctx, rng = mix64(rng))));
    plan.coldBase = static_cast<int>(plan.programs.size());
    plan.coldCount = ctx.smoke ? 64 : 512;
    for (int c = 0; c < plan.coldCount; ++c)
        addProgram(plan, randomDeadlockFreeProgram(
                             plan.topo, meshGen(ctx, rng = mix64(rng))));
    plan.deadlockBase = static_cast<int>(plan.programs.size());
    plan.deadlockCount = static_cast<int>(deadlocked.size());
    for (const Program& program : deadlocked)
        addProgram(plan, program);
    return plan;
}

/** Submission @p index of the plan. */
Entry
makeEntry(const Plan& plan, std::size_t index)
{
    std::uint64_t rng = mix64(plan.seed * 0x100000001b3ull + index);
    auto draw = [&rng] { return rng = mix64(rng); };
    Entry entry;
    const std::uint64_t u = draw() % 1000;
    entry.kind = u < 30 ? Kind::kDeadlock : u < 250 ? Kind::kCold : Kind::kHot;
    entry.sweep = draw() % 8 == 0;
    const std::vector<sim::ShapeSpec>& menu = shapeMenu();
    for (int s = 0; s < (entry.sweep ? 4 : 1); ++s)
        entry.shapes.push_back(menu[draw() % menu.size()]);
    for (int r = 0; r < (entry.sweep ? 2 : 1); ++r) {
        sim::RunRequest request;
        request.policy = draw() % 4 == 0 ? sim::PolicyKind::kFcfs
                                         : sim::PolicyKind::kCompatible;
        request.seed = draw() % 1000000;
        entry.requests.push_back(request);
    }
    switch (entry.kind) {
      case Kind::kHot:
        entry.program = static_cast<int>(draw() % kHotPrograms);
        break;
      case Kind::kCold:
        // Consecutive indices walk the pool: a cold program recurs only
        // after hundreds of other submissions.
        entry.program = plan.coldBase +
                        static_cast<int>(index % plan.coldCount);
        break;
      case Kind::kDeadlock:
        entry.program = plan.deadlockBase +
                        static_cast<int>(draw() % plan.deadlockCount);
        break;
    }
    return entry;
}

/** A running daemon on a fresh spool under the work dir. */
struct Service
{
    /** The spool's Io: the real filesystem, with byte counts. */
    CountingIo io;
    std::string dir;
    std::string socket;
    std::unique_ptr<serve::SyscommDaemon> daemon;

    ~Service() { stop(); }

    void stop()
    {
        if (daemon != nullptr) {
            daemon->stop();
            daemon.reset();
        }
        if (!dir.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(dir, ec);
            dir.clear();
        }
    }
};

bool
startService(const Context& ctx, int generation, Service& service,
             std::string& error)
{
    service.dir = ctx.workDir + "/serve" + std::to_string(generation);
    std::filesystem::create_directories(service.dir);
    service.socket = service.dir + "/d.sock";
    serve::DaemonOptions options;
    options.socketPath = service.socket;
    options.spoolDir = service.dir + "/spool";
    options.io = &service.io;
    options.workers = 2;
    options.fsyncPolicy = serve::FsyncPolicy::kNone;
    options.lintMode = serve::DaemonOptions::LintMode::kEnforce;
    service.daemon = std::make_unique<serve::SyscommDaemon>(options);
    return service.daemon->start(error);
}

/** Send one submission line and follow it to a terminal state. */
bool
drive(serve::ServeClient& client, const std::string& line,
      std::int64_t request, Outcome& out, std::string& error)
{
    ScopedSpan root("serve.submission", "bench", request);
    const Clock::time_point sent = Clock::now();
    std::string responseLine;
    JsonValue response;
    {
        ScopedSpan span("serve.submit", "serve");
        if (!client.roundTrip(line, responseLine, error) ||
            !serve::parseJson(responseLine, response, error))
            return false;
    }
    const Clock::time_point acked = Clock::now();
    out.submitRttMs =
        std::chrono::duration<double, std::milli>(acked - sent).count();
    const std::string id = response.getString("id");
    if (!response.getBool("ok", false) || id.empty()) {
        out.rejected = true;
        out.rejectReason = response.getString("rejected");
        out.state = response.getString("state");
        out.latencyMs = out.submitRttMs;
        return true;
    }
    for (;;) {
        std::this_thread::sleep_for(kPollInterval);
        {
            ScopedSpan span("serve.status", "serve");
            if (!client.status(id, response, error))
                return false;
        }
        ++out.polls;
        if (response.getBool("terminal", false))
            break;
    }
    const Clock::time_point terminal = Clock::now();
    out.latencyMs =
        std::chrono::duration<double, std::milli>(terminal - sent).count();
    out.ackToTerminalMs =
        std::chrono::duration<double, std::milli>(terminal - acked).count();
    out.state = response.getString("state");
    ScopedSpan span("serve.result", "serve");
    if (!client.result(id, response, error))
        return false;
    const JsonValue* result = response.find("result");
    if (result != nullptr)
        out.result = *result;
    return true;
}

/** The closed loop's client connections. */
using Clients = std::vector<std::unique_ptr<serve::ServeClient>>;

bool
connectClients(const Service& service, Clients& clients, std::string& error)
{
    clients.clear();
    for (int c = 0; c < 2; ++c) {
        clients.push_back(std::make_unique<serve::ServeClient>());
        if (!clients.back()->connectUnix(service.socket, error))
            return false;
    }
    return true;
}

/**
 * One continuous closed loop: each client sends plan submissions
 * [0, total) in claim order, one at a time, calling @p onClaim with
 * each index it claims before sending it (the harness snapshots the
 * daemon's stats and switches tracing there). Warm-up and measurement
 * are index ranges of this one loop: the loop's threads and
 * connections must not restart between them, because a fresh client
 * thread starts measurably slower and needs seconds to reach steady
 * state.
 */
bool
runLoop(const Plan& plan, Clients& clients, std::size_t total,
        const std::function<void(std::size_t, serve::ServeClient&)>& onClaim,
        double capSeconds, std::vector<Outcome>& outcomes,
        std::string& error)
{
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex mutex;
    const Clock::time_point start = Clock::now();
    auto clientLoop = [&](serve::ServeClient& client) {
        std::vector<Outcome> mine;
        std::string err;
        bool ok = true;
        while (ok && !failed && secondsSince(start) < capSeconds) {
            Outcome o;
            o.index = next.fetch_add(1);
            if (o.index >= total)
                break;
            onClaim(o.index, client);
            const std::string line =
                submitLine(plan, makeEntry(plan, o.index));
            o.sentAt = secondsSince(start);
            ok = drive(client, line, static_cast<std::int64_t>(o.index), o,
                       err);
            o.doneAt = secondsSince(start);
            if (ok)
                mine.push_back(std::move(o));
        }
        std::lock_guard<std::mutex> lock(mutex);
        if (!ok) {
            error = err;
            failed = true;
        }
        for (Outcome& o : mine)
            outcomes.push_back(std::move(o));
    };
    std::vector<std::thread> threads;
    for (auto& client : clients)
        threads.emplace_back(clientLoop, std::ref(*client));
    for (std::thread& t : threads)
        t.join();
    std::sort(outcomes.begin(), outcomes.end(),
              [](const Outcome& x, const Outcome& y) {
                  return x.index < y.index;
              });
    if (!failed && outcomes.size() != total) {
        error = "closed loop hit its " + std::to_string(capSeconds) +
                " s cap after " + std::to_string(outcomes.size()) + " of " +
                std::to_string(total) + " submissions";
        return false;
    }
    return !failed;
}

/**
 * The measured submissions [warm, warm + 8 * block) of a loop, as
 * eight blocks of @p block consecutive indices.
 */
struct Blocks
{
    std::size_t warm = 0;
    std::size_t block = 1;

    std::size_t end() const { return warm + 8 * block; }
    /** The block @p index belongs to (index >= warm). */
    std::size_t of(std::size_t index) const { return (index - warm) / block; }
};

/** The statistics of some blocks of a loop. */
struct PassStats
{
    std::vector<Outcome> outcomes; ///< index order
    Samples latency;
    std::map<Kind, Samples> submitRtt;
    Samples ackToTerminal;
    double polls = 0.0;
    /** Submissions per second of each block. */
    Samples blockRate;
    /** The p99 latency of each block, ms. */
    Samples blockP99;
    /** The median block's rate: robust to a noisy host stretch. */
    double rate() const { return blockRate.median(); }
    /** The median block's p99 latency, ms: robust the same way. */
    double p99() const { return blockP99.median(); }
};

/** Summarize the blocks @p keep selects (by block number). */
PassStats
summarize(const Plan& plan, const std::vector<Outcome>& all,
          const Blocks& blocks, const std::function<bool(std::size_t)>& keep)
{
    PassStats stats;
    /** Per block: first send, last terminal observation. */
    std::map<std::size_t, std::pair<double, double>> spans;
    std::map<std::size_t, Samples> latencies;
    for (const Outcome& o : all) {
        if (o.index < blocks.warm || o.index >= blocks.end() ||
            !keep(blocks.of(o.index)))
            continue;
        stats.outcomes.push_back(o);
        auto [it, fresh] =
            spans.try_emplace(blocks.of(o.index), o.sentAt, o.doneAt);
        if (!fresh) {
            it->second.first = std::min(it->second.first, o.sentAt);
            it->second.second = std::max(it->second.second, o.doneAt);
        }
        stats.latency.add(o.latencyMs);
        latencies[blocks.of(o.index)].add(o.latencyMs);
        stats.submitRtt[makeEntry(plan, o.index).kind].add(o.submitRttMs);
        if (!o.rejected)
            stats.ackToTerminal.add(o.ackToTerminalMs);
        stats.polls += o.polls;
    }
    for (const auto& [b, span] : spans)
        stats.blockRate.add(static_cast<double>(blocks.block) /
                            std::max(1e-9, span.second - span.first));
    for (const auto& [b, samples] : latencies)
        stats.blockP99.add(samples.quantile(0.99));
    return stats;
}

/** Expected outcomes from direct SimSession runs, cached per input. */
class Oracle
{
  public:
    explicit Oracle(const Plan& plan) : plan_(plan) {}

    bool lintRejects(const Entry& entry)
    {
        const sim::ShapeSpec& shape = lintShape(entry.shapes);
        const std::string key = std::to_string(entry.program) + "/" +
                                shape.name;
        auto it = verdicts_.find(key);
        if (it == verdicts_.end()) {
            const Program& program = *plan_.programs[entry.program].program;
            const LintVerdict verdict =
                analyzeProgram(program, plan_.topo, analyzeOptions(shape))
                    .verdict;
            it = verdicts_.emplace(key, verdict == LintVerdict::kDeadlock)
                     .first;
        }
        return it->second;
    }

    /** Direct run of (entry's program, @p shape, @p request). */
    JsonValue run(const Entry& entry, const sim::ShapeSpec& shape,
                  const sim::RunRequest& request)
    {
        const std::string key = std::to_string(entry.program) + "/" +
                                shape.name;
        auto it = sessions_.find(key);
        if (it == sessions_.end()) {
            if (sessions_.size() >= 256)
                sessions_.clear(); // bound the oracle's memory
            auto& compiled = compiled_[entry.program];
            if (compiled == nullptr)
                compiled = sim::CompiledProgram::compile(
                    *plan_.programs[entry.program].program,
                    SharedTopology(Topology(plan_.topo)));
            it = sessions_.emplace(key, Held{}).first;
            MachineSpec& spec = it->second.spec;
            spec.topo = compiled->sharedTopo();
            spec.queuesPerLink = shape.queuesPerLink;
            spec.queueCapacity = shape.queueCapacity;
            spec.extensionCapacity = shape.extensionCapacity;
            spec.extensionPenalty = shape.extensionPenalty;
            it->second.session =
                std::make_unique<sim::SimSession>(compiled, spec);
        }
        sim::SimSession& session = *it->second.session;
        sim::RunResult result = session.run(request);
        return JsonValue::object()
            .set("status", JsonValue::str(result.statusStr()))
            .set("cycles", JsonValue::integer(result.cycles))
            .set("machine_digest", JsonValue::str(serve::hexDigest(
                                       session.machineDigest())));
    }

  private:
    struct Held
    {
        MachineSpec spec;
        std::unique_ptr<sim::SimSession> session;
    };
    const Plan& plan_;
    std::map<std::string, bool> verdicts_;
    std::map<int, std::shared_ptr<const sim::CompiledProgram>> compiled_;
    std::map<std::string, Held> sessions_;
};

bool
sameRun(const JsonValue& got, const JsonValue& want)
{
    return got.getString("status") == want.getString("status") &&
           got.getInt("cycles", -1) == want.getInt("cycles", -2) &&
           got.getString("machine_digest") ==
               want.getString("machine_digest");
}

/** Gate every submission @p outcomes observed. */
void
verify(const Context& ctx, const Plan& plan,
       const std::vector<Outcome>& outcomes, Oracle& oracle, Gate& gate)
{
    bool corrupt = ctx.corruptExpected;
    for (const Outcome& o : outcomes) {
        const Entry entry = makeEntry(plan, o.index);
        const std::string what = "submission " + std::to_string(o.index) +
                                 " (" + kindName(entry.kind) +
                                 (entry.sweep ? " sweep" : " run") + ")";
        const bool reject = oracle.lintRejects(entry);
        if (reject || o.rejected) {
            gate.check(reject && o.rejected && o.rejectReason == "lint",
                       what + ": lint rejection mismatch (expected " +
                           (reject ? "rejected" : "admitted") + ", got " +
                           (o.rejected ? "rejected:" + o.rejectReason
                                       : o.state) +
                           ")");
            continue;
        }
        bool ok = true;
        if (!entry.sweep) {
            JsonValue want =
                oracle.run(entry, entry.shapes[0], entry.requests[0]);
            if (corrupt) {
                want.set("machine_digest", JsonValue::str("0x0"));
                corrupt = false;
            }
            ok = sameRun(o.result, want);
        } else {
            const JsonValue* rows = o.result.find("rows");
            ok = o.state == "completed" && rows != nullptr &&
                 rows->items().size() ==
                     entry.shapes.size() * entry.requests.size();
            for (std::size_t k = 0; ok && k < rows->items().size(); ++k) {
                const std::size_t s = k / entry.requests.size();
                const std::size_t r = k % entry.requests.size();
                ok = sameRun(rows->items()[k],
                             oracle.run(entry, entry.shapes[s],
                                        entry.requests[r]));
            }
        }
        gate.check(ok, what + ": result differs from a direct SimSession "
                              "run: " + serve::writeJson(o.result));
    }
}

/**
 * Set-up: generate the pools, start the daemon, and warm the hot set:
 * one run per hot program (compile cache) and one lint per hot program
 * and menu shape (the analysis each CompiledProgram memoizes per
 * shape), so hot submissions are warm from the first one.
 */
bool
setUp(const Context& ctx, int generation,
      const std::vector<Program>& deadlocked, Plan& plan, Service& service,
      std::string& error)
{
    service.stop();
    plan = buildPlan(ctx, deadlocked);
    if (!startService(ctx, generation, service, error))
        return false;
    serve::ServeClient client;
    if (!client.connectUnix(service.socket, error))
        return false;
    for (int h = 0; h < kHotPrograms; ++h) {
        Entry warm;
        warm.program = h;
        warm.shapes = {shapeMenu()[0]};
        warm.requests = {sim::RunRequest{}};
        Outcome o;
        if (!drive(client, submitLine(plan, warm), -1, o, error))
            return false;
        for (const sim::ShapeSpec& s : shapeMenu()) {
            JsonValue lint = JsonValue::object();
            lint.set("verb", JsonValue::str("lint"));
            lint.set("program", JsonValue::str(plan.programs[h].text));
            lint.set("topology", plan.topoJson);
            lint.set("shape",
                     shapeJson(s.name, s.queuesPerLink, s.queueCapacity,
                               s.extensionCapacity, s.extensionPenalty));
            JsonValue response;
            if (!client.request(lint, response, error))
                return false;
        }
    }
    return true;
}

} // namespace

bool
runServeMix(const Context& ctx, Report& report, Gate& gate)
{
    Plan plan;
    Service service;
    Samples setup;
    std::string error;
    Clock::time_point t = Clock::now();
    const std::vector<Program> deadlocked = deadlockedPool(ctx);
    const double deadlockSearchS = secondsSince(t);
    const int setups = ctx.smoke ? 2 : 5;
    for (int k = 0; k < setups; ++k) {
        t = Clock::now();
        if (!setUp(ctx, k, deadlocked, plan, service, error)) {
            std::fprintf(stderr, "perfbench: serve set-up: %s\n",
                         error.c_str());
            return false;
        }
        setup.add(secondsSince(t));
    }
    const double setupRssMb = currentRssMb();

    // A fixed number of submissions per pass, not a fixed time: the
    // daemon keeps every submission it has seen, so its RSS grows with
    // the count, and a faster server must not look fatter. An untimed
    // warm-up range comes first in the same loop.
    Blocks blocks;
    blocks.warm = ctx.smoke ? 50 : 1000;
    blocks.block = std::max<std::size_t>(
        1, static_cast<std::size_t>(ctx.seconds *
                                    (ctx.smoke ? 100.0 : 400.0)) /
               8);
    const std::size_t total = blocks.end();
    // The traced run traces the odd blocks and leaves the even ones
    // untraced, so drift over the pass (the spool's filesystem slows
    // and recovers as it allocates inodes) cancels out of the
    // difference.
    auto traced = [&](std::size_t block) {
        return ctx.trace && block % 2 == 1;
    };
    JsonValue before;
    std::int64_t buildsBefore = 0;
    auto onClaim = [&](std::size_t index, serve::ServeClient& client) {
        if (index == blocks.warm) {
            std::string err;
            client.stats(before, err);
            buildsBefore = sim::CompiledProgram::buildCount();
        }
        if (ctx.trace && index >= blocks.warm &&
            (index - blocks.warm) % blocks.block == 0)
            Tracer::instance().enable(traced(blocks.of(index)));
    };
    const std::uint64_t spoolBefore = service.io.bytesWritten();
    Clients clients;
    std::vector<Outcome> outcomes;
    if (!connectClients(service, clients, error) ||
        !runLoop(plan, clients, total, onClaim, 3.0 * ctx.seconds + 60.0,
                 outcomes, error)) {
        std::fprintf(stderr, "perfbench: serve loop: %s\n", error.c_str());
        return false;
    }
    Tracer::instance().enable(false);
    const std::int64_t builds =
        sim::CompiledProgram::buildCount() - buildsBefore;
    JsonValue after;
    clients[0]->stats(after, error);
    const double spoolBytes =
        static_cast<double>(service.io.bytesWritten() - spoolBefore);
    clients.clear();
    // Peak RSS of the serving process, before the oracle's own runs.
    const double peakMb = peakRssMb();
    const double servedRssMb = currentRssMb();
    service.stop();

    Oracle oracle(plan);
    verify(ctx, plan, outcomes, oracle, gate);
    const PassStats untraced = summarize(
        plan, outcomes, blocks,
        [&](std::size_t block) { return !traced(block); });
    PassStats stats =
        ctx.trace ? summarize(plan, outcomes, blocks, traced) : untraced;

    report.summary("setup_s", "s", setup);
    report.value("peak_rss_mb", "MiB", peakMb);
    report.valueWith("throughput_per_s", "1/s", stats.rate(),
                     stats.blockRate);
    report.summary("latency_p50_ms", "ms", stats.latency);
    report.valueWith("latency_tail_ms", "ms", stats.p99(), stats.blockP99);
    report.value("serve_throughput_per_s", "1/s", stats.rate());
    report.summary("serve_latency_p50_ms", "ms", stats.latency);
    report.valueWith("serve_latency_p99_ms", "ms", stats.p99(),
                     stats.blockP99);
    report.value("deadlock_pool_search_s", "s", deadlockSearchS);
    report.value("rss_after_setup_mb", "MiB", setupRssMb);
    report.value("rss_after_serving_mb", "MiB", servedRssMb);
    std::size_t kinds[3] = {0, 0, 0}, sweeps = 0;
    for (const Outcome& o : stats.outcomes) {
        const Entry entry = makeEntry(plan, o.index);
        ++kinds[static_cast<int>(entry.kind)];
        sweeps += entry.sweep;
    }
    report.note("latency", "submit-send to first observed terminal status "
                           "(rejections: to the ack); tail = p99 of each "
                           "eighth of the pass, median; status polled "
                           "every 0.25 ms");
    report.note("throughput", "terminal submissions / wall seconds over "
                              "each eighth of the pass, median; closed "
                              "loop of 2 clients");
    if (ctx.trace)
        report.note("tracing", "odd eighths traced, even eighths untraced; "
                               "end-to-end and client-side figures are "
                               "from the traced eighths");
    report.note("mix", std::to_string(kinds[0]) + " hot, " +
                           std::to_string(kinds[1]) + " cold, " +
                           std::to_string(kinds[2]) + " lint-deadlocked, " +
                           std::to_string(sweeps) + " sweeps of " +
                           std::to_string(stats.outcomes.size()) +
                           " submissions");
    if (!ctx.trace)
        return true;

    for (Kind kind : {Kind::kHot, Kind::kCold, Kind::kDeadlock})
        report.summary(std::string("serve.submit_rtt_ms.") + kindName(kind),
                       "ms", stats.submitRtt[kind]);
    report.summary("serve.ack_to_terminal_ms", "ms", stats.ackToTerminal);
    report.valueWith("serve.ack_to_terminal_p99_ms", "ms",
                     stats.ackToTerminal.quantile(0.99),
                     stats.ackToTerminal);
    const double subs = static_cast<double>(stats.outcomes.size());
    report.value("serve.status_polls_per_sub", "count", stats.polls / subs);
    report.value("serve.poll_interval_ms", "ms",
                 std::chrono::duration<double, std::milli>(kPollInterval)
                     .count());
    report.value("serve.spool_bytes_per_sub", "bytes",
                 spoolBytes / static_cast<double>(outcomes.size()));
    const JsonValue* c0 = before.find("cache");
    const JsonValue* c1 = after.find("cache");
    if (c0 != nullptr && c1 != nullptr) {
        const double hits =
            static_cast<double>(c1->getInt("hits", 0) - c0->getInt("hits", 0));
        const double misses = static_cast<double>(
            c1->getInt("misses", 0) - c0->getInt("misses", 0));
        report.value("serve.cache_hit_ratio", "ratio",
                     hits / std::max(1.0, hits + misses));
    }
    report.value("serve.compile_builds", "count",
                 static_cast<double>(builds));
    const JsonValue* q0 = before.find("queue");
    const JsonValue* q1 = after.find("queue");
    if (q0 != nullptr && q1 != nullptr)
        report.value("serve.rejected_lint", "count",
                     static_cast<double>(q1->getInt("rejected_lint", 0) -
                                         q0->getInt("rejected_lint", 0)));

    // Serial replay of the traced pass's first 64 submission lines.
    std::vector<LayerItem> items;
    for (const Outcome& o : stats.outcomes) {
        if (items.size() == 64)
            break;
        const Entry entry = makeEntry(plan, o.index);
        LayerItem item;
        item.programText = plan.programs[entry.program].text;
        item.topology = plan.topoJson;
        const sim::ShapeSpec& s = entry.shapes[0];
        item.shape = shapeJson(s.name, s.queuesPerLink, s.queueCapacity,
                               s.extensionCapacity, s.extensionPenalty);
        item.request = entry.requests[0];
        items.push_back(std::move(item));
    }
    Tracer::instance().enable(true);
    replayLayers(ctx, items, 1, report, gate);
    reportTrace(ctx, untraced.rate(), stats.rate(), report);
    return true;
}

} // namespace perfbench
