#pragma once

/**
 * @file
 * syscommd: simulation-as-a-service over a line-JSON socket protocol.
 *
 * The daemon accepts program/run/sweep submissions on a Unix and/or
 * TCP stream socket (docs/protocol.md), admits them into a bounded
 * queue — a full queue REJECTS with an explicit "queue_full", it
 * never silently blocks the client — and fans them out to worker
 * threads. Program compilation goes through a shared CompileCache,
 * so N clients submitting the same program over the same topology
 * pay for exactly one CompiledProgram build between them.
 *
 * Every submission walks a deterministic status machine:
 *
 *   waiting -> compiling -> running -> {completed, deadlocked,
 *                                       faulted, budget-exhausted,
 *                                       error}
 *   (+ rejected at admission, cancelled via the cancel verb, and
 *    running -> waiting when a drain parks resumable work)
 *
 * Durability: with a spool directory configured, every admitted
 * submission is persisted before it is acknowledged (its original
 * request line), sweeps journal their progress through ShapeSweep's
 * crash-resume journal, and terminal results are written as done
 * markers. A daemon killed outright (SIGKILL) and restarted on the
 * same spool re-admits unfinished submissions and *resumes* journaled
 * sweeps from their last checkpoint — producing per-row machine
 * digests bit-identical to an uninterrupted daemon (CI kills one mid-
 * sweep to prove it). SIGTERM is the polite version: the lifecycle
 * control word (serve/control.h) flips to draining, admission stops,
 * journaled in-flight sweeps park at their next checkpoint, and the
 * process exits with the spool in a resumable state.
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/cache.h"
#include "serve/control.h"
#include "serve/io.h"
#include "serve/protocol.h"

namespace syscomm::serve {

struct DaemonOptions
{
    /** Unix-domain listening socket path; "" disables. */
    std::string socketPath;
    /**
     * TCP listening port on 127.0.0.1: -1 disables, 0 binds an
     * ephemeral port (read it back with boundTcpPort()).
     */
    int tcpPort = -1;
    /**
     * Spool directory for durability (created if missing); "" runs
     * the daemon in-memory only — no resume after a kill, and drains
     * cannot park sweeps (nothing to journal into).
     */
    std::string spoolDir;
    /** Executor threads. */
    int workers = 2;
    /** Admission bound: waiting submissions beyond this are rejected
     *  with "queue_full". */
    std::size_t maxQueue = 64;
    /** Longest accepted request line; longer closes the connection. */
    std::size_t maxLineBytes = 4u << 20;
    /** Compiled-program cache entries (LRU). */
    std::size_t cacheCapacity = 32;
    /** Service-side cycle ceiling for submissions that set none. */
    Cycle defaultCycleBudget = 50'000'000;
    /**
     * Single runs execute in RunRequest::pauseAt slices of this many
     * cycles, so cancel/drain/budget are honored within a slice.
     */
    Cycle sliceCycles = 100'000;
    /** Default sweep journal checkpoint interval (cycles). */
    Cycle sweepCheckpointEvery = 5'000;
    /**
     * Worker threads *inside* one sweep submission (the
     * --sweep-workers knob): ShapeSweep steals (shape × request)
     * cells across this many threads. 1 (the default) keeps the
     * one-thread-per-submission regime; <= 0 lets each sweep size
     * itself to hardware_concurrency(). A submission's own
     * sweep_workers field can cap — never raise — this. Budget
     * threads as workers × sweepWorkers when sizing a box: every
     * sweep worker honors drain/cancel through the same stop flag,
     * so park/resume semantics are unchanged at any setting. (The
     * watchdog covers single runs only — sweeps already bound their
     * slices with checkpointEvery and park cooperatively.)
     */
    int sweepWorkers = 1;
    /**
     * The IO layer every spool/journal byte goes through. nullptr =
     * the real filesystem; the crash-point fuzz harness injects a
     * FaultyIo here to kill the daemon's durability chain at any
     * enumerated syscall. Must outlive the daemon.
     */
    Io* io = nullptr;
    /** When the spool/journal calls fsync (serve/io.h). */
    FsyncPolicy fsyncPolicy = FsyncPolicy::kNone;
    /**
     * Worker watchdog: a single run whose pause slice makes no
     * progress for this many wall milliseconds is stopped and failed
     * explicitly as an error ("watchdog: ..."), instead of wedging a
     * worker forever. 0 disables. Cooperative: the run must return
     * from its slice for the verdict to land — a thread wedged
     * *inside* the simulator cannot be preempted, but every slice
     * boundary checks.
     */
    std::int64_t watchdogMs = 0;
    /**
     * Admission-time static analysis (core/analyze.h, the --lint
     * knob). kOff skips it entirely. kWarn analyzes every submission
     * at admission and stamps the diagnostics ("lint") onto the
     * terminal result when the analyzer found anything. kEnforce
     * additionally REJECTS submissions whose verdict is "deadlock" —
     * statically certain to wedge on the submitted shape under any
     * policy — before a worker spends a single simulation cycle,
     * with the minimal blocked-cycle witness in the reply
     * (rejected: "lint"). The analysis compiles through the shared
     * CompileCache, so the admitted path's later compile is a pure
     * cache hit and N submissions of one program pay one analysis.
     */
    enum class LintMode : std::uint8_t
    {
        kOff = 0,
        kWarn,
        kEnforce,
    };
    LintMode lintMode = LintMode::kOff;
};

/** Wire/flag name of a lint mode: "off", "warn", "enforce". */
const char* lintModeName(DaemonOptions::LintMode mode);

/** Parse a --lint flag value; false on an unknown name. */
bool parseLintMode(const std::string& name, DaemonOptions::LintMode& out);

class SyscommDaemon
{
  public:
    explicit SyscommDaemon(DaemonOptions options);
    ~SyscommDaemon();

    SyscommDaemon(const SyscommDaemon&) = delete;
    SyscommDaemon& operator=(const SyscommDaemon&) = delete;

    /**
     * Bind sockets, recover the spool (terminal results re-indexed,
     * unfinished submissions re-admitted in id order), start the
     * accept loop and workers. False + @p error on failure.
     */
    bool start(std::string& error);

    /**
     * Graceful drain: stop admitting, ask in-flight work to park.
     * Async-signal-UNSAFE (takes locks) — signal handlers set the
     * control word instead and the owner calls this from its main
     * loop (tools/syscommd_main.cpp does exactly that).
     */
    void requestDrain();

    /** Re-scan the spool for externally dropped submissions (SIGHUP). */
    void reload();

    /** Full shutdown: close sockets, join every thread. Idempotent. */
    void stop();

    /** The lifecycle control word (signal handlers store into it). */
    ServiceControl& control() { return control_; }

    /** Actual TCP port when tcpPort was 0 (else the configured one). */
    int boundTcpPort() const { return boundTcpPort_; }

    /**
     * Wait until no submission is compiling/running and (unless
     * draining) the queue is empty. False on timeout.
     */
    bool waitIdle(int timeoutMs);

    /** The stats verb's response body (tests introspect through it). */
    JsonValue statsJson();

  private:
    struct Live;
    struct Sub;
    struct Client;

    // -- submission index (mutex_ must be held) --------------------
    /** Index @p sub under its current state; returns it. */
    Sub* addLocked(std::unique_ptr<Sub> sub);
    /** Move @p sub to @p state, keeping the state tally and the live
     *  set current. */
    void setStateLocked(Sub& sub, SubmissionState state);
    /**
     * Terminal transition: record @p state and @p result (the result
     * body's JSON text), write the done marker, wake waitIdle, and
     * hand back the live part. The caller destroys it after
     * unlocking.
     */
    std::unique_ptr<Live> retireLocked(Sub& sub, SubmissionState state,
                                       std::string result);
    /** A dedup hit's answer for @p key; null when the key is new. */
    JsonValue dedupResponseLocked(const std::string& key) const;

    // -- spool ----------------------------------------------------
    std::string spoolFile(const std::string& id,
                          const char* suffix) const;
    bool recoverSpool(std::string& error);
    void writeDoneMarker(Sub& sub);
    /** Enter/leave reject-new degraded mode (mutex_ must be held). */
    void setDegradedLocked(const std::string& reason);
    void clearDegradedLocked();

    // -- execution ------------------------------------------------
    void workerLoop();
    void watchdogLoop();
    void execute(Sub* sub);
    void executeRun(Sub* sub, const CachedProgram& entry);
    void executeSweep(Sub* sub, const CachedProgram& entry);
    /** Stamp the lint report onto @p result, render it, then retire
     *  @p sub. */
    void finish(Sub* sub, SubmissionState state, JsonValue result);

    // -- protocol -------------------------------------------------
    void acceptLoop();
    /** Join the client threads that have finished. */
    void reapClients();
    void clientLoop(Client* client);
    std::string handleLine(const std::string& line);
    JsonValue handleSubmit(const JsonValue& msg,
                           const std::string& line);
    JsonValue handleStatus(const JsonValue& msg);
    JsonValue handleResult(const JsonValue& msg);
    JsonValue handleCancel(const JsonValue& msg);
    JsonValue handleDrain();
    JsonValue handleLint(const JsonValue& msg);
    /** Journal-derived progress of a sweep submission (running or
     *  parked) from its journal at @p journalPath: rows done +
     *  per-row checkpoint headers, via inspectSweepJournal — no
     *  sessions are opened. */
    bool journalProgress(const std::string& journalPath, JsonValue& out);

    DaemonOptions options_;
    ServiceControl control_;
    CompileCache cache_;
    /** Resolved IO layer (options_.io or Io::system()). */
    Io* io_ = nullptr;

    std::mutex mutex_;
    std::condition_variable workCv_;
    std::condition_variable idleCv_;
    std::condition_variable watchdogCv_;
    /** id -> submission; ids are dense ("s-000001", ...). */
    std::map<std::string, std::unique_ptr<Sub>> subs_;
    /** The non-terminal subset of subs_, in id order. */
    std::map<std::string, Sub*> liveSubs_;
    /** Submissions per state, kept current at every transition. */
    std::uint64_t stateCounts_[kNumSubmissionStates] = {};
    std::deque<Sub*> queue_;
    /** idempotency key -> id: duplicate submits return the same id. */
    std::map<std::string, std::string> idempotency_;
    std::uint64_t nextId_ = 1;
    int active_ = 0; ///< submissions in kCompiling/kRunning
    bool stopping_ = false;
    std::uint64_t rejectedQueueFull_ = 0;
    std::uint64_t rejectedBadRequest_ = 0;
    std::uint64_t rejectedDraining_ = 0;
    std::uint64_t rejectedDegraded_ = 0;
    std::uint64_t rejectedLint_ = 0;
    std::uint64_t watchdogFired_ = 0;
    /**
     * Reject-new/serve-reads mode: set when a spool write, done
     * marker or sweep journal fails (ENOSPC, EIO). New submissions
     * are rejected "degraded"; status/result/stats keep serving.
     * Cleared by reload() (operator freed space) or by the next
     * successful spool write.
     */
    bool degraded_ = false;
    std::string degradedReason_;

    int unixFd_ = -1;
    int tcpFd_ = -1;
    int boundTcpPort_ = -1;
    int wakePipe_[2] = {-1, -1};
    std::thread acceptThread_;
    std::thread watchdogThread_;
    std::vector<std::thread> workerThreads_;
    std::mutex clientMutex_;
    /** Open connections, plus finished ones not yet joined. */
    std::list<Client> clients_;
    bool started_ = false;
};

} // namespace syscomm::serve
