#include "serve/daemon.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/lint.h"
#include "sim/shape_sweep.h"

namespace syscomm::serve {

namespace fs = std::filesystem;

const char*
lintModeName(DaemonOptions::LintMode mode)
{
    switch (mode) {
      case DaemonOptions::LintMode::kOff:
        return "off";
      case DaemonOptions::LintMode::kWarn:
        return "warn";
      case DaemonOptions::LintMode::kEnforce:
        return "enforce";
    }
    return "?";
}

bool
parseLintMode(const std::string& name, DaemonOptions::LintMode& out)
{
    static constexpr DaemonOptions::LintMode kAll[] = {
        DaemonOptions::LintMode::kOff,
        DaemonOptions::LintMode::kWarn,
        DaemonOptions::LintMode::kEnforce,
    };
    for (DaemonOptions::LintMode mode : kAll) {
        if (name == lintModeName(mode)) {
            out = mode;
            return true;
        }
    }
    return false;
}

/**
 * What only execution reads. A submission holds it while it is
 * waiting, compiling or running; the terminal transition releases it
 * (retireLocked), so a finished submission costs its record, not its
 * program.
 */
struct SyscommDaemon::Live
{
    Submission payload;
    /** Sweep journal path; "" = not journaled (no spool / not a sweep). */
    std::string journalPath;
    /**
     * Admission-time lint report (--lint=warn|enforce), built once at
     * admission and moved onto the terminal result by finish(); null
     * when the analyzer found nothing. Immutable until then.
     */
    JsonValue lint;
    /**
     * Stop request for in-flight work: set on cancel and on drain,
     * polled by ShapeSweep (stopFlag) and the run slice loop.
     */
    std::atomic<bool> stop{false};
    /** Distinguishes cancel from drain (guarded by daemon mutex). */
    bool cancelRequested = false;
    /** Was the compile served from the cache? */
    bool cachedCompile = false;
    /** Last pause-slice cycle count of a single run (daemon mutex). */
    Cycle executedCycles = 0;
    /**
     * Wall time (steady ms) of the last slice boundary of a single
     * run; 0 while not running. The watchdog compares it to now.
     */
    std::atomic<std::int64_t> lastProgressMs{0};
    /** Set by the watchdog; the slice loop turns it into kError. */
    std::atomic<bool> watchdogFired{false};
};

/**
 * One admitted submission. The record (id, state, result, key) stays
 * for the daemon's lifetime; `live` exists exactly while the state is
 * not terminal. Fields are guarded by the daemon mutex, except that
 * the worker executing a submission reads `live` without it: only
 * that worker can retire a submission that has left the queue.
 */
struct SyscommDaemon::Sub
{
    std::string id;
    SubmissionState state = SubmissionState::kWaiting;
    /**
     * Terminal result body (the result verb's "result" member) as the
     * JSON text it is served and spooled as, rendered once at the
     * terminal transition; "" until then.
     */
    std::string result;
    /** Client-supplied dedup key; "" = none. */
    std::string idempotencyKey;
    std::unique_ptr<Live> live;
};

/** One accepted connection and the thread serving it, which holds
 *  the entry's address. */
struct SyscommDaemon::Client
{
    Client() = default;
    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    /** The connection; -1 once clientLoop closed it (clientMutex_). */
    int fd = -1;
    /** clientLoop's last act; acceptLoop then joins (clientMutex_). */
    bool done = false;
    std::thread thread;
};

namespace {

constexpr const char* kSubSuffix = ".sub.json";
constexpr const char* kDoneSuffix = ".done.json";
constexpr const char* kJournalSuffix = ".journal";

std::string
makeId(std::uint64_t n)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "s-%06llu",
                  static_cast<unsigned long long>(n));
    return buf;
}

std::int64_t
steadyNowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

bool
sendAll(int fd, const std::string& data)
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        // MSG_NOSIGNAL: a client that disconnected mid-response must
        // cost us an error return, not a process-wide SIGPIPE.
        ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                           MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

JsonValue
errorResponse(const std::string& message)
{
    JsonValue out = JsonValue::object();
    out.set("ok", JsonValue::boolean(false));
    out.set("error", JsonValue::str(message));
    return out;
}

JsonValue
rejectResponse(const char* reason, const std::string& message)
{
    JsonValue out = JsonValue::object();
    out.set("ok", JsonValue::boolean(false));
    out.set("rejected", JsonValue::str(reason));
    out.set("state", JsonValue::str(submissionStateName(
                         SubmissionState::kRejected)));
    out.set("error", JsonValue::str(message));
    return out;
}

/**
 * @p result as the text a finished submission keeps until restart:
 * rendered once, without the spare capacity appending leaves.
 */
std::string
keptJson(const JsonValue& result)
{
    std::string json = writeJson(result);
    json.shrink_to_fit();
    return json;
}

/** The wire form of one finished run (shared by run and sweep rows). */
JsonValue
runResultJson(const sim::RunResult& result, std::uint64_t machineDigest)
{
    JsonValue out = JsonValue::object();
    out.set("status", JsonValue::str(result.statusStr()));
    out.set("cycles", JsonValue::integer(result.cycles));
    if (!result.error.empty())
        out.set("error", JsonValue::str(result.error));
    out.set("machine_digest", JsonValue::str(hexDigest(machineDigest)));
    return out;
}

} // namespace

SyscommDaemon::SyscommDaemon(DaemonOptions options)
    : options_(std::move(options)), cache_(options_.cacheCapacity)
{
    if (options_.workers < 1)
        options_.workers = 1;
    if (options_.sliceCycles < 1)
        options_.sliceCycles = 1;
    if (options_.watchdogMs < 0)
        options_.watchdogMs = 0;
    io_ = options_.io != nullptr ? options_.io : &Io::system();
}

SyscommDaemon::~SyscommDaemon()
{
    stop();
}

std::string
SyscommDaemon::spoolFile(const std::string& id,
                         const char* suffix) const
{
    return options_.spoolDir + "/" + id + suffix;
}

bool
SyscommDaemon::start(std::string& error)
{
    if (started_) {
        error = "already started";
        return false;
    }
    if (!recoverSpool(error))
        return false;

    if (!options_.socketPath.empty()) {
        unixFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (unixFd_ < 0) {
            error = "socket(AF_UNIX): " + std::string(strerror(errno));
            return false;
        }
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (options_.socketPath.size() >= sizeof(addr.sun_path)) {
            error = "socket path too long";
            return false;
        }
        std::strncpy(addr.sun_path, options_.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        ::unlink(options_.socketPath.c_str());
        if (::bind(unixFd_, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(unixFd_, 64) != 0) {
            error = "bind(" + options_.socketPath +
                    "): " + strerror(errno);
            return false;
        }
    }
    if (options_.tcpPort >= 0) {
        tcpFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (tcpFd_ < 0) {
            error = "socket(AF_INET): " + std::string(strerror(errno));
            return false;
        }
        int one = 1;
        ::setsockopt(tcpFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port =
            htons(static_cast<std::uint16_t>(options_.tcpPort));
        if (::bind(tcpFd_, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(tcpFd_, 64) != 0) {
            error = "bind(tcp " + std::to_string(options_.tcpPort) +
                    "): " + strerror(errno);
            return false;
        }
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (::getsockname(tcpFd_, reinterpret_cast<sockaddr*>(&bound),
                          &len) == 0)
            boundTcpPort_ = ntohs(bound.sin_port);
    }
    if (::pipe(wakePipe_) != 0) {
        error = "pipe: " + std::string(strerror(errno));
        return false;
    }

    control_.set(ServiceWant::kServe);
    stopping_ = false;
    for (int i = 0; i < options_.workers; ++i)
        workerThreads_.emplace_back(&SyscommDaemon::workerLoop, this);
    acceptThread_ = std::thread(&SyscommDaemon::acceptLoop, this);
    if (options_.watchdogMs > 0)
        watchdogThread_ =
            std::thread(&SyscommDaemon::watchdogLoop, this);
    started_ = true;
    return true;
}

void
SyscommDaemon::requestDrain()
{
    // A late drain must not resurrect a stopped daemon.
    if (!control_.advance(ServiceWant::kServe, ServiceWant::kDrain))
        control_.advance(ServiceWant::kReload, ServiceWant::kDrain);
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, sub] : liveSubs_) {
        if (sub->state == SubmissionState::kCompiling ||
            sub->state == SubmissionState::kRunning)
            sub->live->stop.store(true, std::memory_order_relaxed);
    }
    workCv_.notify_all();
}

void
SyscommDaemon::reload()
{
    std::string ignored;
    recoverSpool(ignored);
    std::lock_guard<std::mutex> lock(mutex_);
    // The operator's signal that the disk situation changed (space
    // freed, spool remounted): leave degraded mode optimistically —
    // the next spool write re-enters it if the disk is still broken.
    clearDegradedLocked();
    workCv_.notify_all();
}

void
SyscommDaemon::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!started_ && workerThreads_.empty())
            return;
        stopping_ = true;
    }
    control_.set(ServiceWant::kStop);
    workCv_.notify_all();
    watchdogCv_.notify_all();
    idleCv_.notify_all();
    if (wakePipe_[1] >= 0) {
        char byte = 'x';
        [[maybe_unused]] ssize_t n = ::write(wakePipe_[1], &byte, 1);
    }
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (watchdogThread_.joinable())
        watchdogThread_.join();
    {
        std::lock_guard<std::mutex> lock(clientMutex_);
        for (const Client& client : clients_) {
            if (client.fd >= 0)
                ::shutdown(client.fd, SHUT_RDWR);
        }
    }
    // The accept thread is gone, so the list no longer changes shape;
    // each client thread takes clientMutex_ on its way out, so join
    // without holding it.
    for (Client& client : clients_)
        client.thread.join();
    clients_.clear();
    for (auto& t : workerThreads_) {
        if (t.joinable())
            t.join();
    }
    workerThreads_.clear();
    if (unixFd_ >= 0) {
        ::close(unixFd_);
        unixFd_ = -1;
        ::unlink(options_.socketPath.c_str());
    }
    if (tcpFd_ >= 0) {
        ::close(tcpFd_);
        tcpFd_ = -1;
    }
    for (int& fd : wakePipe_) {
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
    }
    started_ = false;
}

bool
SyscommDaemon::waitIdle(int timeoutMs)
{
    std::unique_lock<std::mutex> lock(mutex_);
    return idleCv_.wait_for(
        lock, std::chrono::milliseconds(timeoutMs), [&] {
            const ServiceWant want = control_.get();
            const bool draining = want == ServiceWant::kDrain ||
                                  want == ServiceWant::kStop;
            return active_ == 0 && (queue_.empty() || draining);
        });
}

// ---------------------------------------------------------------
// Spool
// ---------------------------------------------------------------

bool
SyscommDaemon::recoverSpool(std::string& error)
{
    if (options_.spoolDir.empty())
        return true;
    std::error_code ec;
    fs::create_directories(options_.spoolDir, ec);
    if (ec) {
        error = "spool: cannot create " + options_.spoolDir;
        return false;
    }

    std::vector<std::string> ids;
    std::vector<std::string> orphanTmp;
    for (const auto& entry :
         fs::directory_iterator(options_.spoolDir, ec)) {
        const std::string name = entry.path().filename().string();
        const std::size_t sufLen = std::strlen(kSubSuffix);
        if (name.size() > sufLen &&
            name.compare(name.size() - sufLen, sufLen, kSubSuffix) ==
                0)
            ids.push_back(name.substr(0, name.size() - sufLen));
        // A crash between tmp-write and rename leaves "<x>.tmp"; the
        // rename never happened, so the file is dead weight.
        else if (name.size() > 4 &&
                 name.compare(name.size() - 4, 4, ".tmp") == 0)
            orphanTmp.push_back(entry.path().string());
    }
    for (const std::string& path : orphanTmp)
        io_->remove(path);
    // Id order is admission order: recovery requeues the backlog in
    // the order clients were ack'd, deterministically.
    std::sort(ids.begin(), ids.end());

    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string& id : ids) {
        if (subs_.count(id) != 0)
            continue; // reload(): already known
        if (id.size() > 2 && id.compare(0, 2, "s-") == 0) {
            const std::uint64_t n =
                std::strtoull(id.c_str() + 2, nullptr, 10);
            if (n >= nextId_)
                nextId_ = n + 1;
        }
        std::string line;
        std::string ioErr;
        if (!io_->readFile(spoolFile(id, kSubSuffix), line, ioErr))
            continue;
        auto sub = std::make_unique<Sub>();
        sub->id = id;
        // Rebuild the idempotency index from the persisted request
        // line, terminal or not: a client retrying across the restart
        // must land on this id, not create a duplicate.
        JsonValue msg;
        std::string err;
        const bool lineParsed = parseJson(line, msg, err);
        if (lineParsed) {
            sub->idempotencyKey = msg.getString("idempotency_key");
            if (!sub->idempotencyKey.empty())
                idempotency_.emplace(sub->idempotencyKey, id);
        }

        std::string doneText;
        if (io_->readFile(spoolFile(id, kDoneSuffix), doneText,
                          ioErr)) {
            // Finished in a previous life: re-index the result.
            JsonValue done;
            std::string doneErr;
            SubmissionState state = SubmissionState::kError;
            if (parseJson(doneText, done, doneErr) &&
                parseSubmissionState(done.getString("state"), state)) {
                sub->state = state;
                const JsonValue* result = done.find("result");
                sub->result =
                    result != nullptr ? keptJson(*result) : "null";
            } else {
                sub->state = SubmissionState::kError;
                sub->result = keptJson(JsonValue::object().set(
                    "error",
                    JsonValue::str("unreadable done marker")));
            }
            addLocked(std::move(sub));
            continue;
        }

        // Unfinished: reparse and requeue. Journaled sweeps resume
        // from their checkpoints; runs re-execute from scratch (they
        // are deterministic, so the client observes no difference).
        Submission payload;
        if (!lineParsed || !parseSubmission(msg, payload, err)) {
            sub->state = SubmissionState::kError;
            sub->result = keptJson(JsonValue::object().set(
                "error", JsonValue::str("spool recovery: " + err)));
            writeDoneMarker(*sub);
            addLocked(std::move(sub));
            continue;
        }
        sub->live = std::make_unique<Live>();
        if (payload.isSweep)
            sub->live->journalPath = spoolFile(id, kJournalSuffix);
        sub->live->payload = std::move(payload);
        queue_.push_back(addLocked(std::move(sub)));
    }
    return true;
}

SyscommDaemon::Sub*
SyscommDaemon::addLocked(std::unique_ptr<Sub> sub)
{
    Sub* raw = sub.get();
    ++stateCounts_[static_cast<int>(raw->state)];
    if (!submissionStateTerminal(raw->state))
        liveSubs_.emplace(raw->id, raw);
    subs_.emplace(raw->id, std::move(sub));
    return raw;
}

void
SyscommDaemon::setStateLocked(Sub& sub, SubmissionState state)
{
    --stateCounts_[static_cast<int>(sub.state)];
    ++stateCounts_[static_cast<int>(state)];
    sub.state = state;
    if (submissionStateTerminal(state))
        liveSubs_.erase(sub.id);
}

std::unique_ptr<SyscommDaemon::Live>
SyscommDaemon::retireLocked(Sub& sub, SubmissionState state,
                            std::string result)
{
    setStateLocked(sub, state);
    sub.result = std::move(result);
    writeDoneMarker(sub);
    idleCv_.notify_all();
    return std::move(sub.live);
}

void
SyscommDaemon::writeDoneMarker(Sub& sub)
{
    if (options_.spoolDir.empty())
        return;
    JsonValue done = JsonValue::object();
    done.set("id", JsonValue::str(sub.id));
    done.set("state",
             JsonValue::str(submissionStateName(sub.state)));
    done.set("result", JsonValue::verbatim(sub.result));
    std::string ioErr;
    if (!writeFileAtomicIo(*io_, spoolFile(sub.id, kDoneSuffix),
                           writeJson(done), options_.fsyncPolicy,
                           ioErr)) {
        // The result survives in memory and the submission line is
        // still spooled — a restart re-executes it. Flag the disk.
        setDegradedLocked("done marker " + sub.id + ": " + ioErr);
    } else {
        clearDegradedLocked();
    }
}

void
SyscommDaemon::setDegradedLocked(const std::string& reason)
{
    degraded_ = true;
    degradedReason_ = reason;
}

void
SyscommDaemon::clearDegradedLocked()
{
    degraded_ = false;
    degradedReason_.clear();
}

// ---------------------------------------------------------------
// Execution
// ---------------------------------------------------------------

void
SyscommDaemon::workerLoop()
{
    for (;;) {
        Sub* sub = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workCv_.wait(lock, [&] {
                if (stopping_)
                    return true;
                const ServiceWant want = control_.get();
                const bool serving = want == ServiceWant::kServe ||
                                     want == ServiceWant::kReload;
                return serving && !queue_.empty();
            });
            if (stopping_)
                return;
            sub = queue_.front();
            queue_.pop_front();
            setStateLocked(*sub, SubmissionState::kCompiling);
            ++active_;
        }
        execute(sub);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --active_;
        }
        idleCv_.notify_all();
    }
}

void
SyscommDaemon::watchdogLoop()
{
    const auto poll = std::chrono::milliseconds(
        std::max<std::int64_t>(10, options_.watchdogMs / 4));
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopping_) {
        // Its own condition variable: a submit's notify_one on
        // workCv_ must always reach a worker.
        watchdogCv_.wait_for(lock, poll);
        if (stopping_)
            return;
        const std::int64_t now = steadyNowMs();
        for (auto& [id, sub] : liveSubs_) {
            // Single runs only: their slice loop reports progress
            // every sliceCycles. Sweeps legitimately go long between
            // journal checkpoints, so they are not watched.
            Live& live = *sub->live;
            if (sub->state != SubmissionState::kRunning ||
                live.payload.isSweep)
                continue;
            if (live.watchdogFired.load(std::memory_order_relaxed))
                continue;
            const std::int64_t last =
                live.lastProgressMs.load(std::memory_order_relaxed);
            if (last > 0 && now - last > options_.watchdogMs) {
                live.watchdogFired.store(true,
                                         std::memory_order_relaxed);
                live.stop.store(true, std::memory_order_relaxed);
                ++watchdogFired_;
            }
        }
    }
}

void
SyscommDaemon::finish(Sub* sub, SubmissionState state,
                      JsonValue result)
{
    // --lint=warn rides along: the submission was served anyway, but
    // its result carries the admission-time diagnostics. Only this
    // worker can retire the submission, so it reads the live part and
    // renders the result before taking the lock.
    if (!sub->live->lint.isNull())
        result.set("lint", std::move(sub->live->lint));
    std::string json = keptJson(result);
    std::unique_ptr<Live> released;
    std::lock_guard<std::mutex> lock(mutex_);
    released = retireLocked(*sub, state, std::move(json));
    // `lock` unlocks before `released` frees the payload.
}

void
SyscommDaemon::execute(Sub* sub)
{
    Live& live = *sub->live;
    const Submission& payload = live.payload;
    const std::uint64_t key = CompileCache::keyFor(
        payload.program, payload.topo, payload.programVersion);
    // The payload stays intact (a drain can park this submission and
    // spool recovery may need it on a later pass): the cache copies
    // the program and topology only when it compiles them.
    bool wasHit = false;
    CachedProgram entry =
        cache_.get(key, payload.program, payload.topo, &wasHit);
    live.cachedCompile = wasHit;

    if (!entry.compiled->valid()) {
        finish(sub, SubmissionState::kError,
               JsonValue::object().set(
                   "error", JsonValue::str(entry.compiled->error())));
        return;
    }
    {
        std::unique_ptr<Live> released;
        std::lock_guard<std::mutex> lock(mutex_);
        if (live.cancelRequested) {
            released =
                retireLocked(*sub, SubmissionState::kCancelled, "{}");
            return;
        }
        setStateLocked(*sub, SubmissionState::kRunning);
        // 0 = "no slice boundary seen yet"; the watchdog ignores it,
        // so a submission re-queued after a park can never be judged
        // by a stale timestamp from its previous execution.
        live.lastProgressMs.store(0, std::memory_order_relaxed);
        live.watchdogFired.store(false, std::memory_order_relaxed);
    }
    if (payload.isSweep)
        executeSweep(sub, entry);
    else
        executeRun(sub, entry);
}

void
SyscommDaemon::executeRun(Sub* sub, const CachedProgram& entry)
{
    Live& live = *sub->live;
    const Submission& payload = live.payload;
    MachineSpec spec;
    spec.topo = entry.compiled->sharedTopo();
    const sim::ShapeSpec& shape = payload.shapes[0];
    spec.queuesPerLink = shape.queuesPerLink;
    spec.queueCapacity = shape.queueCapacity;
    spec.extensionCapacity = shape.extensionCapacity;
    spec.extensionPenalty = shape.extensionPenalty;

    sim::SessionOptions sessionOptions;
    sessionOptions.kernel = payload.kernel;
    sim::SimSession session(entry.compiled, spec, sessionOptions);

    const Cycle budget = payload.cycleBudget > 0
                                  ? payload.cycleBudget
                                  : options_.defaultCycleBudget;
    const Cycle slice = options_.sliceCycles;

    // The service budget rides on pauseAt slices: the run is never
    // more than one slice away from noticing a cancel, a drain, or
    // budget exhaustion, without perturbing the simulation (pausing
    // is bit-exact by contract).
    sim::RunRequest request = payload.requests[0];
    request.pauseAt = std::min(slice, budget);
    live.lastProgressMs.store(steadyNowMs(),
                              std::memory_order_relaxed);
    sim::RunResult result = session.run(request);
    while (result.status == sim::RunStatus::kPaused) {
        live.lastProgressMs.store(steadyNowMs(),
                                  std::memory_order_relaxed);
        bool cancelled = false;
        bool draining = false;
        bool watchdogged = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            live.executedCycles = result.cycles;
            if (live.stop.load(std::memory_order_relaxed)) {
                // Watchdog verdicts outrank cancel/drain: the run
                // overshot its slice deadline and fails explicitly,
                // never silently requeues.
                watchdogged = live.watchdogFired.load(
                    std::memory_order_relaxed);
                cancelled = !watchdogged && live.cancelRequested;
                draining = !watchdogged && !cancelled;
            }
        }
        if (watchdogged) {
            finish(sub, SubmissionState::kError,
                   JsonValue::object()
                       .set("error",
                            JsonValue::str(
                                "watchdog: run stuck past its slice "
                                "deadline (" +
                                std::to_string(options_.watchdogMs) +
                                " ms)"))
                       .set("cycles",
                            JsonValue::integer(result.cycles)));
            return;
        }
        if (cancelled) {
            finish(sub, SubmissionState::kCancelled,
                   JsonValue::object().set(
                       "cycles", JsonValue::integer(result.cycles)));
            return;
        }
        if (draining) {
            // Single runs carry no checkpoint; park the submission
            // back at the queue head — a restarted daemon re-runs it
            // from scratch, which is observably identical because
            // runs are deterministic.
            std::lock_guard<std::mutex> lock(mutex_);
            setStateLocked(*sub, SubmissionState::kWaiting);
            queue_.push_front(sub);
            idleCv_.notify_all();
            return;
        }
        if (result.cycles >= budget) {
            JsonValue body = runResultJson(result,
                                           session.machineDigest());
            body.set("status",
                     JsonValue::str(submissionStateName(
                         SubmissionState::kBudget)));
            body.set("cycle_budget", JsonValue::integer(budget));
            finish(sub, SubmissionState::kBudget, std::move(body));
            return;
        }
        result = session.resume(
            std::min<Cycle>(result.cycles + slice, budget));
    }

    JsonValue body = runResultJson(result, session.machineDigest());
    body.set("cached_compile", JsonValue::boolean(live.cachedCompile));
    finish(sub, submissionStateForRun(result.status), std::move(body));
}

void
SyscommDaemon::executeSweep(Sub* sub, const CachedProgram& entry)
{
    Live& live = *sub->live;
    const Submission& payload = live.payload;
    sim::ShapeSweepOptions sweepOptions;
    sweepOptions.session.kernel = payload.kernel;
    // A sweep parallelizes inside its daemon worker: the operator's
    // --sweep-workers knob sets the per-sweep thread budget (1 keeps
    // the old one-thread-per-submission regime, <= 0 lets the sweep
    // size itself to the hardware), and a submission may cap — never
    // raise — it with its own sweep_workers field. Results are
    // bit-identical at any worker count; only wall clock moves.
    // Total daemon threads ≈ workers × sweep-workers when every
    // worker is running a sweep — size the knobs together.
    int sweepWorkers = options_.sweepWorkers;
    if (payload.sweepWorkers > 0 &&
        (sweepWorkers <= 0 || payload.sweepWorkers < sweepWorkers))
        sweepWorkers = payload.sweepWorkers;
    sweepOptions.numWorkers = sweepWorkers;
    sweepOptions.journalPath = live.journalPath;
    sweepOptions.checkpointEvery = payload.checkpointEvery > 0
                                       ? payload.checkpointEvery
                                       : options_.sweepCheckpointEvery;
    sweepOptions.programVersion = payload.programVersion;
    sweepOptions.stopFlag = &live.stop;
    sweepOptions.io = io_;
    sweepOptions.fsyncEveryRecord =
        options_.fsyncPolicy == FsyncPolicy::kAlways;

    sim::ShapeSweep sweep(entry.compiled, payload.shapes,
                          sweepOptions);

    const Cycle budget = payload.cycleBudget > 0
                                  ? payload.cycleBudget
                                  : options_.defaultCycleBudget;
    std::vector<sim::RunRequest> requests = payload.requests;
    for (sim::RunRequest& request : requests)
        request.maxCycles =
            std::min<Cycle>(request.maxCycles, budget);

    sim::ShapeSweepResult result = sweep.run(requests);

    if (result.journalError) {
        // The sweep itself is unharmed (journaling latched off and it
        // kept computing), but the disk is suspect: durability is
        // gone until an operator intervenes or a later write works.
        std::lock_guard<std::mutex> lock(mutex_);
        setDegradedLocked("sweep journal " + sub->id + ": " +
                          result.journalErrorText);
    }

    if (!result.complete) {
        bool cancelled = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            cancelled = live.cancelRequested;
        }
        if (cancelled) {
            finish(sub, SubmissionState::kCancelled,
                   JsonValue::object());
            return;
        }
        // Drain: the sweep parked at its last checkpoint; requeue so
        // a restarted daemon (or this one, were it un-drained)
        // resumes from the journal.
        std::lock_guard<std::mutex> lock(mutex_);
        setStateLocked(*sub, SubmissionState::kWaiting);
        queue_.push_front(sub);
        idleCv_.notify_all();
        return;
    }

    JsonValue rows = JsonValue::array();
    int statusCounts[sim::kNumRunStatuses] = {};
    for (const sim::ShapeSweepRow& row : result.rows) {
        JsonValue r = runResultJson(
            row.result, row.machineDigest);
        r.set("shape", JsonValue::integer(
                           static_cast<std::int64_t>(row.shape)));
        r.set("name",
              JsonValue::str(payload.shapes[row.shape].name));
        r.set("request", JsonValue::integer(
                             static_cast<std::int64_t>(row.request)));
        r.set("from_journal", JsonValue::boolean(row.fromJournal));
        rows.push(std::move(r));
        ++statusCounts[static_cast<int>(row.result.status)];
    }
    JsonValue counts = JsonValue::object();
    for (int i = 0; i < sim::kNumRunStatuses; ++i) {
        if (statusCounts[i] > 0)
            counts.set(
                sim::runStatusName(static_cast<sim::RunStatus>(i)),
                JsonValue::integer(statusCounts[i]));
    }
    JsonValue body = JsonValue::object();
    body.set("rows", std::move(rows));
    body.set("status_counts", std::move(counts));
    body.set("rows_from_journal",
             JsonValue::integer(static_cast<std::int64_t>(
                 result.rowsFromJournal)));
    body.set("rows_shared", JsonValue::integer(static_cast<std::int64_t>(
                                result.rowsShared)));
    body.set("sweep_workers",
             JsonValue::integer(result.workersUsed));
    body.set("cached_compile",
             JsonValue::boolean(live.cachedCompile));
    finish(sub, SubmissionState::kCompleted, std::move(body));
}

// ---------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------

void
SyscommDaemon::acceptLoop()
{
    for (;;) {
        pollfd fds[3];
        int n = 0;
        fds[n++] = pollfd{wakePipe_[0], POLLIN, 0};
        if (unixFd_ >= 0)
            fds[n++] = pollfd{unixFd_, POLLIN, 0};
        if (tcpFd_ >= 0)
            fds[n++] = pollfd{tcpFd_, POLLIN, 0};
        if (::poll(fds, static_cast<nfds_t>(n), -1) < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        if ((fds[0].revents & POLLIN) != 0) {
            char byte;
            [[maybe_unused]] ssize_t r =
                ::read(wakePipe_[0], &byte, 1);
            std::lock_guard<std::mutex> lock(mutex_);
            if (stopping_)
                return;
        }
        for (int i = 1; i < n; ++i) {
            if ((fds[i].revents & POLLIN) == 0)
                continue;
            int fd = ::accept(fds[i].fd, nullptr, nullptr);
            if (fd < 0)
                continue;
            reapClients();
            std::lock_guard<std::mutex> lock(clientMutex_);
            Client& client = clients_.emplace_back();
            client.fd = fd;
            try {
                client.thread = std::thread(&SyscommDaemon::clientLoop,
                                            this, &client);
            } catch (const std::system_error&) {
                // Out of threads or address space: drop this one
                // connection and keep serving the others.
                clients_.pop_back();
                ::close(fd);
            }
        }
    }
}

void
SyscommDaemon::reapClients()
{
    std::list<Client> finished;
    {
        std::lock_guard<std::mutex> lock(clientMutex_);
        for (auto it = clients_.begin(); it != clients_.end();) {
            auto next = std::next(it);
            if (it->done)
                finished.splice(finished.end(), clients_, it);
            it = next;
        }
    }
    for (Client& client : finished)
        client.thread.join();
}

void
SyscommDaemon::clientLoop(Client* client)
{
    const int fd = client->fd;
    std::string pending;
    char buf[4096];
    for (;;) {
        ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            break; // disconnect (possibly mid-line; drop the tail)
        }
        pending.append(buf, static_cast<std::size_t>(n));
        bool fatal = false;
        std::size_t pos;
        while ((pos = pending.find('\n')) != std::string::npos) {
            std::string line = pending.substr(0, pos);
            pending.erase(0, pos + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (line.empty())
                continue;
            const std::string response = handleLine(line) + "\n";
            if (!sendAll(fd, response)) {
                fatal = true;
                break;
            }
        }
        if (!fatal && pending.size() > options_.maxLineBytes) {
            // An unterminated line beyond the cap: answer once and
            // hang up rather than buffer without bound.
            sendAll(fd,
                    writeJson(errorResponse("request line too long")) +
                        "\n");
            fatal = true;
        }
        if (fatal)
            break;
    }
    {
        // Mark dead before closing: stop() only shutdown()s live
        // entries, so a recycled fd number can never be hit twice.
        // Nothing touches *client after this block: the accept loop
        // may join this thread and free the entry.
        std::lock_guard<std::mutex> lock(clientMutex_);
        client->fd = -1;
        client->done = true;
    }
    ::close(fd);
}

std::string
SyscommDaemon::handleLine(const std::string& line)
{
    JsonValue msg;
    std::string_view tag;
    std::string err;
    JsonValue response;
    if (line.size() > options_.maxLineBytes) {
        response = errorResponse("request line too long");
    } else if (!parseJson(line, "tag", tag, msg, err)) {
        response = errorResponse("parse: " + err);
    } else if (!msg.isObject()) {
        response = errorResponse("request must be a JSON object");
    } else {
        const std::string verbText = msg.getString("verb");
        Verb verb = Verb::kPing;
        if (!parseVerb(verbText, verb)) {
            response = errorResponse(
                verbText.empty() ? "missing 'verb'"
                                 : "unknown verb '" + verbText + "'");
        } else {
            switch (verb) {
              case Verb::kPing:
                response = JsonValue::object()
                               .set("ok", JsonValue::boolean(true))
                               .set("verb", JsonValue::str("ping"));
                break;
              case Verb::kSubmit:
                response = handleSubmit(msg, line);
                break;
              case Verb::kStatus:
                response = handleStatus(msg);
                break;
              case Verb::kResult:
                response = handleResult(msg);
                break;
              case Verb::kCancel:
                response = handleCancel(msg);
                break;
              case Verb::kDrain:
                response = handleDrain();
                break;
              case Verb::kStats:
                response = statsJson();
                break;
              case Verb::kLint:
                response = handleLint(msg);
                break;
            }
        }
    }
    if (!tag.empty())
        response.set("tag", JsonValue::verbatim(std::string(tag)));
    return writeJson(response);
}

JsonValue
SyscommDaemon::handleSubmit(const JsonValue& msg,
                            const std::string& line)
{
    const ServiceWant want = control_.get();
    if (want != ServiceWant::kServe && want != ServiceWant::kReload) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++rejectedDraining_;
        return rejectResponse("draining",
                              "daemon is not accepting submissions");
    }

    auto live = std::make_unique<Live>();
    std::string err;
    if (!parseSubmission(msg, live->payload, err)) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++rejectedBadRequest_;
        return rejectResponse("bad_request", err);
    }
    const Submission& p = live->payload;
    const std::string& key = p.idempotencyKey;

    // Admission-time static analysis (--lint). Runs before the daemon
    // lock — the compile cache carries its own locking and in-flight
    // dedup, so N concurrent submits of one program still pay for one
    // compile+analysis, and the worker's later cache get() for an
    // admitted submission is a pure hit (zero simulation cycles are
    // ever spent on an enforce-rejected program). An idempotent retry
    // of an already-admitted key must stay a read even under enforce,
    // so the index is probed first and re-checked at admission.
    if (options_.lintMode != DaemonOptions::LintMode::kOff) {
        if (!key.empty()) {
            std::lock_guard<std::mutex> lock(mutex_);
            JsonValue known = dedupResponseLocked(key);
            if (!known.isNull())
                return known;
        }
        // A sweep is analyzed at its most generously buffered rung: a
        // deadlock witness holds a fortiori at every smaller capacity
        // (the R2 bound shrinks monotonically), so if the best rung
        // wedges, the whole ladder does.
        const sim::ShapeSpec* best = &p.shapes[0];
        for (const sim::ShapeSpec& shape : p.shapes) {
            if (shape.queueCapacity + shape.extensionCapacity >
                best->queueCapacity + best->extensionCapacity)
                best = &shape;
        }
        const std::uint64_t compileKey = CompileCache::keyFor(
            p.program, p.topo, p.programVersion);
        bool wasHit = false;
        CachedProgram entry =
            cache_.get(compileKey, p.program, p.topo, &wasHit);
        if (entry.compiled->valid()) {
            MachineSpec spec;
            spec.topo = entry.compiled->sharedTopo();
            spec.queuesPerLink = best->queuesPerLink;
            spec.queueCapacity = best->queueCapacity;
            spec.extensionCapacity = best->extensionCapacity;
            std::shared_ptr<const AnalysisReport> report =
                entry.compiled->analysis(spec);
            if (options_.lintMode == DaemonOptions::LintMode::kEnforce &&
                report->verdict == LintVerdict::kDeadlock) {
                JsonValue response = rejectResponse(
                    "lint", "statically deadlocked: " +
                                report->witness.str(p.program));
                response.set("lint", lintReportJson(*report, p.program));
                std::lock_guard<std::mutex> lock(mutex_);
                ++rejectedLint_;
                return response;
            }
            if (!report->diagnostics.empty() ||
                report->verdict != LintVerdict::kCertified)
                live->lint = lintReportJson(*report, p.program);
        }
    }

    // Declared after `live`: every early return unlocks before the
    // rejected payload is freed.
    std::lock_guard<std::mutex> lock(mutex_);
    // Idempotent resubmission: a key we have already admitted (this
    // life or a previous one — the index is rebuilt from the spool)
    // answers with the original id instead of running the work twice.
    // Checked before every other rejection: a retry of an admitted
    // submission must succeed even degraded or queue-full, it is a
    // read.
    if (!key.empty()) {
        JsonValue known = dedupResponseLocked(key);
        if (!known.isNull())
            return known;
    }
    if (degraded_) {
        // Reject-new/serve-reads mode: the spool cannot persist new
        // work, and an unspooled admission would break the "an id we
        // returned survives a restart" contract.
        ++rejectedDegraded_;
        return rejectResponse(
            "degraded",
            "spool is failing (" + degradedReason_ +
                "); serving reads only");
    }
    // Admission control: a full queue answers "queue_full" NOW —
    // clients never block on a silent backlog.
    if (queue_.size() >= options_.maxQueue) {
        ++rejectedQueueFull_;
        return rejectResponse(
            "queue_full",
            "admission queue is full (depth " +
                std::to_string(queue_.size()) + ")");
    }
    const std::string id = makeId(nextId_++);
    if (!options_.spoolDir.empty()) {
        if (p.isSweep)
            live->journalPath = spoolFile(id, kJournalSuffix);
        // Persist before acknowledging: an id we returned must be an
        // id a restarted daemon still knows.
        std::string ioErr;
        if (!writeFileAtomicIo(*io_, spoolFile(id, kSubSuffix), line,
                               options_.fsyncPolicy, ioErr)) {
            --nextId_;
            setDegradedLocked("spool write: " + ioErr);
            return rejectResponse("spool_error",
                                  "cannot persist submission: " +
                                      ioErr);
        }
        clearDegradedLocked();
    }
    auto sub = std::make_unique<Sub>();
    sub->id = id;
    sub->idempotencyKey = key;
    if (!key.empty())
        idempotency_.emplace(key, id);
    sub->live = std::move(live);
    queue_.push_back(addLocked(std::move(sub)));
    workCv_.notify_one();

    JsonValue response = JsonValue::object();
    response.set("ok", JsonValue::boolean(true));
    response.set("id", JsonValue::str(id));
    response.set("state", JsonValue::str(submissionStateName(
                              SubmissionState::kWaiting)));
    response.set("description",
                 JsonValue::str(submissionStateDescription(
                     SubmissionState::kWaiting)));
    return response;
}

JsonValue
SyscommDaemon::dedupResponseLocked(const std::string& key) const
{
    auto known = idempotency_.find(key);
    if (known == idempotency_.end())
        return JsonValue();
    auto existing = subs_.find(known->second);
    if (existing == subs_.end())
        return JsonValue();
    JsonValue response = JsonValue::object();
    response.set("ok", JsonValue::boolean(true));
    response.set("id", JsonValue::str(known->second));
    response.set("state", JsonValue::str(submissionStateName(
                              existing->second->state)));
    response.set("deduplicated", JsonValue::boolean(true));
    return response;
}

JsonValue
SyscommDaemon::handleLint(const JsonValue& msg)
{
    LintRequest req;
    std::string err;
    if (!parseLintRequest(msg, req, err))
        return errorResponse(err);
    // Same cache, same digest a submit of this payload would use: a
    // lint followed by a submit compiles once, and the memoized
    // analysis on the CompiledProgram makes repeat lints free.
    const std::uint64_t key = CompileCache::keyFor(
        req.program, req.topo, req.programVersion);
    bool wasHit = false;
    CachedProgram entry = cache_.get(key, req.program, req.topo, &wasHit);
    MachineSpec spec;
    spec.topo = entry.compiled->sharedTopo();
    spec.queuesPerLink = req.shape.queuesPerLink;
    spec.queueCapacity = req.shape.queueCapacity;
    spec.extensionCapacity = req.shape.extensionCapacity;
    std::shared_ptr<const AnalysisReport> report =
        entry.compiled->analysis(spec);
    JsonValue response = JsonValue::object();
    response.set("ok", JsonValue::boolean(true));
    response.set("cached_compile", JsonValue::boolean(wasHit));
    response.set("digest", JsonValue::str(hexDigest(key)));
    response.set("lint", lintReportJson(*report, req.program));
    return response;
}

bool
SyscommDaemon::journalProgress(const std::string& journalPath,
                               JsonValue& out)
{
    if (journalPath.empty())
        return false;
    sim::SweepJournalInfo info;
    if (!sim::inspectSweepJournal(journalPath, info))
        return false;
    out = JsonValue::object();
    out.set("rows_done", JsonValue::integer(static_cast<std::int64_t>(
                             info.rowsDone)));
    JsonValue inflight = JsonValue::array();
    for (const sim::SweepJournalRow& row : info.inflight) {
        JsonValue r = JsonValue::object();
        r.set("shape", JsonValue::integer(
                           static_cast<std::int64_t>(row.shape)));
        r.set("request", JsonValue::integer(
                             static_cast<std::int64_t>(row.request)));
        r.set("cycles", JsonValue::integer(row.info.cycles));
        r.set("kernel", JsonValue::str(row.info.eventKernel
                                           ? "event"
                                           : "reference"));
        r.set("machine_digest",
              JsonValue::str(hexDigest(row.info.machineDigest)));
        inflight.push(std::move(r));
    }
    out.set("inflight", std::move(inflight));
    return true;
}

JsonValue
SyscommDaemon::handleStatus(const JsonValue& msg)
{
    const std::string id = msg.getString("id");
    JsonValue response = JsonValue::object();
    std::string journalPath;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = subs_.find(id);
        if (it == subs_.end())
            return errorResponse("unknown id '" + id + "'");
        const Sub& sub = *it->second;
        response.set("ok", JsonValue::boolean(true));
        response.set("id", JsonValue::str(id));
        response.set("state",
                     JsonValue::str(submissionStateName(sub.state)));
        response.set("description",
                     JsonValue::str(submissionStateDescription(sub.state)));
        response.set("terminal", JsonValue::boolean(
                                     submissionStateTerminal(sub.state)));
        if (sub.live == nullptr)
            return response;
        if (sub.state == SubmissionState::kRunning &&
            !sub.live->payload.isSweep)
            response.set("cycles",
                         JsonValue::integer(sub.live->executedCycles));
        // A copy: the live part may be freed (terminal transition)
        // once the lock is released.
        journalPath = sub.live->journalPath;
    }
    // Journal-backed progress for a sweep, live or parked: rows done
    // plus each in-flight row's checkpoint header. The walk reads and
    // CRC-checks the whole journal, so it runs unlocked: other verbs
    // never wait on it. Reading the journal while the sweep appends
    // is safe — a torn tail parses as "everything sound before it",
    // same as a resume would see.
    JsonValue progress;
    if (journalProgress(journalPath, progress))
        response.set("progress", std::move(progress));
    return response;
}

JsonValue
SyscommDaemon::handleResult(const JsonValue& msg)
{
    const std::string id = msg.getString("id");
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = subs_.find(id);
    if (it == subs_.end())
        return errorResponse("unknown id '" + id + "'");
    const Sub& sub = *it->second;
    if (!submissionStateTerminal(sub.state)) {
        JsonValue response = errorResponse("not finished");
        response.set("id", JsonValue::str(id));
        response.set("state",
                     JsonValue::str(submissionStateName(sub.state)));
        return response;
    }
    JsonValue response = JsonValue::object();
    response.set("ok", JsonValue::boolean(true));
    response.set("id", JsonValue::str(id));
    response.set("state",
                 JsonValue::str(submissionStateName(sub.state)));
    response.set("result", JsonValue::verbatim(sub.result));
    return response;
}

JsonValue
SyscommDaemon::handleCancel(const JsonValue& msg)
{
    const std::string id = msg.getString("id");
    std::unique_ptr<Live> released;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = subs_.find(id);
    if (it == subs_.end())
        return errorResponse("unknown id '" + id + "'");
    Sub& sub = *it->second;
    JsonValue response = JsonValue::object();
    if (submissionStateTerminal(sub.state)) {
        response.set("ok", JsonValue::boolean(false));
        response.set("error", JsonValue::str("already terminal"));
        response.set("state",
                     JsonValue::str(submissionStateName(sub.state)));
        return response;
    }
    if (sub.state == SubmissionState::kWaiting) {
        queue_.erase(std::remove(queue_.begin(), queue_.end(), &sub),
                     queue_.end());
        released = retireLocked(sub, SubmissionState::kCancelled, "{}");
    } else {
        // In flight: ask it to stop; the worker finishes the
        // transition at its next slice/checkpoint.
        sub.live->cancelRequested = true;
        sub.live->stop.store(true, std::memory_order_relaxed);
    }
    response.set("ok", JsonValue::boolean(true));
    response.set("id", JsonValue::str(id));
    response.set("state",
                 JsonValue::str(submissionStateName(sub.state)));
    return response;
}

JsonValue
SyscommDaemon::handleDrain()
{
    requestDrain();
    JsonValue response = JsonValue::object();
    response.set("ok", JsonValue::boolean(true));
    response.set("control", JsonValue::str(control_.status()));
    return response;
}

JsonValue
SyscommDaemon::statsJson()
{
    std::unique_lock<std::mutex> lock(mutex_);
    JsonValue response = JsonValue::object();
    response.set("ok", JsonValue::boolean(true));
    response.set("control", JsonValue::str(control_.status()));

    JsonValue states = JsonValue::object();
    for (int i = 0; i < kNumSubmissionStates; ++i)
        states.set(
            submissionStateName(static_cast<SubmissionState>(i)),
            JsonValue::integer(
                static_cast<std::int64_t>(stateCounts_[i])));
    response.set("submissions", std::move(states));

    JsonValue queue = JsonValue::object();
    queue.set("depth", JsonValue::integer(
                           static_cast<std::int64_t>(queue_.size())));
    queue.set("capacity",
              JsonValue::integer(
                  static_cast<std::int64_t>(options_.maxQueue)));
    queue.set("rejected_queue_full",
              JsonValue::integer(
                  static_cast<std::int64_t>(rejectedQueueFull_)));
    queue.set("rejected_bad_request",
              JsonValue::integer(
                  static_cast<std::int64_t>(rejectedBadRequest_)));
    queue.set("rejected_draining",
              JsonValue::integer(
                  static_cast<std::int64_t>(rejectedDraining_)));
    queue.set("rejected_degraded",
              JsonValue::integer(
                  static_cast<std::int64_t>(rejectedDegraded_)));
    queue.set("rejected_lint",
              JsonValue::integer(
                  static_cast<std::int64_t>(rejectedLint_)));
    response.set("queue", std::move(queue));

    response.set("lint_mode",
                 JsonValue::str(lintModeName(options_.lintMode)));

    response.set("degraded", JsonValue::boolean(degraded_));
    if (degraded_)
        response.set("degraded_reason",
                     JsonValue::str(degradedReason_));
    response.set("watchdog_fired",
                 JsonValue::integer(
                     static_cast<std::int64_t>(watchdogFired_)));

    const CompileCache::Stats cacheStats = cache_.stats();
    JsonValue cache = JsonValue::object();
    cache.set("entries", JsonValue::integer(static_cast<std::int64_t>(
                             cacheStats.entries)));
    cache.set("capacity", JsonValue::integer(static_cast<std::int64_t>(
                              cacheStats.capacity)));
    cache.set("hits", JsonValue::integer(
                          static_cast<std::int64_t>(cacheStats.hits)));
    cache.set("misses",
              JsonValue::integer(
                  static_cast<std::int64_t>(cacheStats.misses)));
    cache.set("evictions",
              JsonValue::integer(
                  static_cast<std::int64_t>(cacheStats.evictions)));
    response.set("cache", std::move(cache));

    // Journal progress of every non-terminal sweep — how a drained
    // (or killed-and-restarted) daemon reports parked work without
    // opening a single session. Each walk reads and CRC-checks a
    // whole journal, so, as in handleStatus, it runs unlocked over
    // copies: the live parts may be freed once the lock is released.
    struct LiveSweep
    {
        std::string id;
        SubmissionState state;
        std::string journalPath;
    };
    std::vector<LiveSweep> live;
    for (const auto& [id, sub] : liveSubs_) {
        if (!sub->live->journalPath.empty())
            live.push_back({id, sub->state, sub->live->journalPath});
    }
    lock.unlock();
    JsonValue sweeps = JsonValue::array();
    for (const LiveSweep& sweep : live) {
        JsonValue progress;
        if (!journalProgress(sweep.journalPath, progress))
            continue;
        JsonValue entry = JsonValue::object();
        entry.set("id", JsonValue::str(sweep.id));
        entry.set("state",
                  JsonValue::str(submissionStateName(sweep.state)));
        entry.set("progress", std::move(progress));
        sweeps.push(std::move(entry));
    }
    response.set("sweeps", std::move(sweeps));
    return response;
}

} // namespace syscomm::serve
