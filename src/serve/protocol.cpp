#include "serve/protocol.h"

#include <cstdio>

#include "text/parser.h"

namespace syscomm::serve {

const char*
verbName(Verb verb)
{
    switch (verb) {
      case Verb::kPing:
        return "ping";
      case Verb::kSubmit:
        return "submit";
      case Verb::kStatus:
        return "status";
      case Verb::kResult:
        return "result";
      case Verb::kCancel:
        return "cancel";
      case Verb::kDrain:
        return "drain";
      case Verb::kStats:
        return "stats";
      case Verb::kLint:
        return "lint";
    }
    return "?";
}

bool
parseVerb(const std::string& name, Verb& out)
{
    static constexpr Verb kAll[] = {
        Verb::kPing,   Verb::kSubmit, Verb::kStatus, Verb::kResult,
        Verb::kCancel, Verb::kDrain,  Verb::kStats,  Verb::kLint,
    };
    for (Verb verb : kAll) {
        if (name == verbName(verb)) {
            out = verb;
            return true;
        }
    }
    return false;
}

const char*
submissionStateName(SubmissionState state)
{
    switch (state) {
      case SubmissionState::kWaiting:
        return "waiting";
      case SubmissionState::kCompiling:
        return "compiling";
      case SubmissionState::kRunning:
        return "running";
      case SubmissionState::kCompleted:
        return "completed";
      case SubmissionState::kDeadlocked:
        return "deadlocked";
      case SubmissionState::kFaulted:
        return "faulted";
      case SubmissionState::kBudget:
        return "budget-exhausted";
      case SubmissionState::kRejected:
        return "rejected";
      case SubmissionState::kCancelled:
        return "cancelled";
      case SubmissionState::kError:
        return "error";
    }
    return "?";
}

bool
parseSubmissionState(const std::string& name, SubmissionState& out)
{
    for (int i = 0; i < kNumSubmissionStates; ++i) {
        auto state = static_cast<SubmissionState>(i);
        if (name == submissionStateName(state)) {
            out = state;
            return true;
        }
    }
    return false;
}

const char*
submissionStateDescription(SubmissionState state)
{
    switch (state) {
      case SubmissionState::kWaiting:
        return "Your submission is waiting for a worker.";
      case SubmissionState::kCompiling:
        return "Your program is being compiled.";
      case SubmissionState::kRunning:
        return "Your submission is running.";
      case SubmissionState::kCompleted:
        return "Your submission has finished; fetch it with 'result'.";
      case SubmissionState::kDeadlocked:
        return "The simulated machine deadlocked; the deadlock report "
               "is in the result.";
      case SubmissionState::kFaulted:
        return "Injected faults froze the simulated machine.";
      case SubmissionState::kBudget:
        return "Your submission exhausted its cycle budget.";
      case SubmissionState::kRejected:
        return "Your submission was rejected at admission.";
      case SubmissionState::kCancelled:
        return "Your submission was cancelled.";
      case SubmissionState::kError:
        return "Your submission failed; see the error in the result.";
    }
    return "?";
}

bool
submissionStateTerminal(SubmissionState state)
{
    switch (state) {
      case SubmissionState::kWaiting:
      case SubmissionState::kCompiling:
      case SubmissionState::kRunning:
        return false;
      default:
        return true;
    }
}

SubmissionState
submissionStateForRun(sim::RunStatus status)
{
    switch (status) {
      case sim::RunStatus::kCompleted:
        return SubmissionState::kCompleted;
      case sim::RunStatus::kDeadlocked:
        return SubmissionState::kDeadlocked;
      case sim::RunStatus::kFaulted:
        return SubmissionState::kFaulted;
      case sim::RunStatus::kMaxCycles:
        return SubmissionState::kBudget;
      case sim::RunStatus::kConfigError:
        return SubmissionState::kError;
      case sim::RunStatus::kPaused:
        // A paused run is not terminal; callers only map terminal
        // statuses. Treat a leak as an error rather than lying.
        return SubmissionState::kError;
    }
    return SubmissionState::kError;
}

namespace {

bool
parseTopology(const JsonValue& spec, Topology& out, std::string& error)
{
    if (!spec.isObject()) {
        error = "topology: expected an object";
        return false;
    }
    const std::string kind = spec.getString("kind");
    const auto cells = spec.getInt("cells", 0);
    const auto rows = spec.getInt("rows", 0);
    const auto cols = spec.getInt("cols", 0);
    // Bound construction cost before building: a million-cell mesh is
    // legitimate, a hostile 2^62 is not.
    constexpr std::int64_t kMaxCells = 4'000'000;
    if (kind == "linear" || kind == "ring") {
        if (cells < (kind == "ring" ? 3 : 1) || cells > kMaxCells) {
            error = "topology: bad 'cells' for kind '" + kind + "'";
            return false;
        }
        out = kind == "ring" ? Topology::ring(int(cells))
                             : Topology::linearArray(int(cells));
        return true;
    }
    if (kind == "mesh" || kind == "torus") {
        // Each side is bounded before the product, which two hostile
        // int64 sides could otherwise wrap into range.
        const std::int64_t minSide = kind == "torus" ? 3 : 1;
        if (rows < minSide || cols < minSide || rows > kMaxCells ||
            cols > kMaxCells || rows * cols > kMaxCells) {
            error = "topology: bad 'rows'/'cols' for kind '" + kind +
                    "'";
            return false;
        }
        out = kind == "torus" ? Topology::torus(int(rows), int(cols))
                              : Topology::mesh(int(rows), int(cols));
        return true;
    }
    error = kind.empty() ? "topology: missing 'kind'"
                         : "topology: unknown kind '" + kind + "'";
    return false;
}

bool
parseShape(const JsonValue& spec, sim::ShapeSpec& out,
           std::string& error)
{
    if (!spec.isObject()) {
        error = "shape: expected an object";
        return false;
    }
    out.name = spec.getString("name");
    const auto queues = spec.getInt("queues", 2);
    const auto capacity = spec.getInt("capacity", 1);
    const auto extension = spec.getInt("extension", 0);
    const auto penalty = spec.getInt("penalty", 4);
    if (queues < 1 || queues > 1024 || capacity < 1 ||
        capacity > 1'000'000 || extension < 0 ||
        extension > 1'000'000 || penalty < 0 || penalty > 1'000'000) {
        error = "shape: parameter out of range";
        return false;
    }
    out.queuesPerLink = int(queues);
    out.queueCapacity = int(capacity);
    out.extensionCapacity = int(extension);
    out.extensionPenalty = int(penalty);
    if (out.name.empty())
        out.name = "q=" + std::to_string(out.queuesPerLink) +
                   ",cap=" + std::to_string(out.queueCapacity);
    return true;
}

bool
parseRequest(const JsonValue& spec, sim::RunRequest& out,
             std::string& error)
{
    if (!spec.isObject()) {
        error = "request: expected an object";
        return false;
    }
    const std::string policy = spec.getString("policy", "compatible");
    bool known = false;
    for (int i = 0; i < sim::kNumPolicyKinds; ++i) {
        auto kind = static_cast<sim::PolicyKind>(i);
        if (policy == sim::policyKindName(kind)) {
            out.policy = kind;
            known = true;
            break;
        }
    }
    if (!known) {
        error = "request: unknown policy '" + policy + "'";
        return false;
    }
    out.seed = static_cast<std::uint64_t>(spec.getInt("seed", 1));
    const auto maxCycles = spec.getInt("max_cycles", 1'000'000);
    if (maxCycles < 1) {
        error = "request: bad 'max_cycles'";
        return false;
    }
    out.maxCycles = maxCycles;
    // Everything else (observers, faults, pauseAt) is daemon-owned:
    // unobserved runs are the journalable, resumable class, and
    // pauseAt is how the daemon slices budgets in.
    return true;
}

} // namespace

bool
parseSubmission(const JsonValue& msg, Submission& out,
                std::string& error)
{
    if (!msg.isObject()) {
        error = "submit: expected an object";
        return false;
    }
    const std::string kind = msg.getString("kind", "run");
    if (kind != "run" && kind != "sweep") {
        error = "submit: 'kind' must be \"run\" or \"sweep\"";
        return false;
    }
    out.isSweep = kind == "sweep";

    const std::string programText = msg.getString("program");
    if (programText.empty()) {
        error = "submit: missing 'program' text";
        return false;
    }
    text::ParseResult parsed = text::parseProgram(programText);
    if (!parsed.ok) {
        error = "submit: program: " + parsed.error;
        return false;
    }
    out.program = std::move(parsed.program);

    const JsonValue* topoSpec = msg.find("topology");
    if (topoSpec == nullptr) {
        error = "submit: missing 'topology'";
        return false;
    }
    if (!parseTopology(*topoSpec, out.topo, error))
        return false;
    if (out.program.numCells() != out.topo.numCells()) {
        error = "submit: program has " +
                std::to_string(out.program.numCells()) +
                " cells but topology has " +
                std::to_string(out.topo.numCells());
        return false;
    }

    out.shapes.clear();
    if (out.isSweep) {
        const JsonValue* shapes = msg.find("shapes");
        if (shapes == nullptr || !shapes->isArray() ||
            shapes->items().empty()) {
            error = "submit: sweep needs a non-empty 'shapes' array";
            return false;
        }
        constexpr std::size_t kMaxShapes = 4096;
        if (shapes->items().size() > kMaxShapes) {
            error = "submit: too many shapes";
            return false;
        }
        for (const JsonValue& spec : shapes->items()) {
            sim::ShapeSpec shape;
            if (!parseShape(spec, shape, error))
                return false;
            out.shapes.push_back(std::move(shape));
        }
    } else {
        sim::ShapeSpec shape;
        const JsonValue* spec = msg.find("shape");
        if (spec != nullptr) {
            if (!parseShape(*spec, shape, error))
                return false;
        }
        out.shapes.push_back(std::move(shape));
    }

    out.requests.clear();
    const JsonValue* requests = msg.find("requests");
    if (requests == nullptr) {
        out.requests.emplace_back(); // one default request
    } else {
        if (!requests->isArray() || requests->items().empty()) {
            error = "submit: 'requests' must be a non-empty array";
            return false;
        }
        constexpr std::size_t kMaxRequests = 4096;
        if (requests->items().size() > kMaxRequests) {
            error = "submit: too many requests";
            return false;
        }
        for (const JsonValue& spec : requests->items()) {
            sim::RunRequest request;
            if (!parseRequest(spec, request, error))
                return false;
            out.requests.push_back(std::move(request));
        }
    }

    const auto budget = msg.getInt("cycle_budget", 0);
    const auto checkpointEvery = msg.getInt("checkpoint_every", 0);
    if (budget < 0 || checkpointEvery < 0) {
        error = "submit: negative cycle budget";
        return false;
    }
    out.cycleBudget = budget;
    out.checkpointEvery = checkpointEvery;

    const auto sweepWorkers = msg.getInt("sweep_workers", 0);
    constexpr std::int64_t kMaxSweepWorkers = 1024;
    if (sweepWorkers < 0 || sweepWorkers > kMaxSweepWorkers) {
        error = "submit: sweep_workers out of range";
        return false;
    }
    out.sweepWorkers = static_cast<int>(sweepWorkers);

    const std::string kernel = msg.getString("kernel", "event");
    if (kernel == "event") {
        out.kernel = sim::KernelKind::kEventDriven;
    } else if (kernel == "reference") {
        out.kernel = sim::KernelKind::kReference;
    } else {
        error = "submit: unknown kernel '" + kernel + "'";
        return false;
    }

    out.programVersion = msg.getString("program_version");
    out.idempotencyKey = msg.getString("idempotency_key");
    if (out.idempotencyKey.size() > 256) {
        error = "submit: idempotency_key longer than 256 bytes";
        return false;
    }
    return true;
}

bool
parseLintRequest(const JsonValue& msg, LintRequest& out,
                 std::string& error)
{
    if (!msg.isObject()) {
        error = "lint: expected an object";
        return false;
    }
    const std::string programText = msg.getString("program");
    if (programText.empty()) {
        error = "lint: missing 'program' text";
        return false;
    }
    text::ParseResult parsed = text::parseProgram(programText);
    if (!parsed.ok) {
        error = "lint: program: " + parsed.error;
        return false;
    }
    out.program = std::move(parsed.program);

    const JsonValue* topoSpec = msg.find("topology");
    if (topoSpec == nullptr) {
        error = "lint: missing 'topology'";
        return false;
    }
    if (!parseTopology(*topoSpec, out.topo, error))
        return false;
    if (out.program.numCells() != out.topo.numCells()) {
        error = "lint: program has " +
                std::to_string(out.program.numCells()) +
                " cells but topology has " +
                std::to_string(out.topo.numCells());
        return false;
    }

    const JsonValue* spec = msg.find("shape");
    if (spec != nullptr && !parseShape(*spec, out.shape, error))
        return false;
    out.programVersion = msg.getString("program_version");
    return true;
}

std::string
hexDigest(std::uint64_t digest)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

} // namespace syscomm::serve
