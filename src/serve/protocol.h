#pragma once

/**
 * @file
 * The syscommd wire protocol: verbs, the submission payload, and the
 * per-submission lifecycle state machine.
 *
 * Transport is newline-delimited JSON over a Unix or TCP stream
 * socket: one request object per line, one response object per line,
 * answered in order (docs/protocol.md is the authoritative wire
 * description). This header is the shared vocabulary — the daemon
 * parses requests through it, the client library and CLI build them
 * through it, and the tests speak it raw to probe the error paths.
 *
 * Submissions travel as (program text, topology spec, shape ladder,
 * run requests): everything needed to reconstruct the simulation on
 * the daemon side from plain data. Programs use the text/ format the
 * parser and printer already round-trip; compute callbacks cannot
 * cross a socket, so served programs are transfer-op programs — which
 * is exactly the class the sweep journal can resume bit-identically
 * (see ShapeSweepOptions::programVersion's caveat).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "core/program.h"
#include "core/topology.h"
#include "serve/json.h"
#include "sim/session.h"
#include "sim/shape_sweep.h"

namespace syscomm::serve {

/** Protocol verbs (the "verb" member of every request line). */
enum class Verb : std::uint8_t
{
    kPing = 0,
    kSubmit,
    kStatus,
    kResult,
    kCancel,
    kDrain,
    kStats,
    kLint,
};

/** Wire name of a verb ("ping", "submit", ...). */
const char* verbName(Verb verb);

/** Parse a wire name; false on an unknown verb. */
bool parseVerb(const std::string& name, Verb& out);

/**
 * Lifecycle of one submission. Deterministic forward-only machine:
 *
 *   waiting -> compiling -> running -> {completed, deadlocked,
 *                                       faulted, budget-exhausted,
 *                                       error}
 *
 * plus three states reachable out of band: kRejected (admission
 * control refused it — it never entered the queue), kCancelled
 * (cancel verb), and back to kWaiting from kRunning when a drain
 * parks a journaled sweep (the one legal backward edge: the work is
 * requeued, not lost, and a restarted daemon resumes it).
 */
enum class SubmissionState : std::uint8_t
{
    kWaiting = 0, ///< Admitted, queued behind earlier submissions.
    kCompiling,   ///< A worker is building/fetching the CompiledProgram.
    kRunning,     ///< Executing (runs in slices, sweeps row by row).
    kCompleted,   ///< Terminal: ran to its natural end.
    kDeadlocked,  ///< Terminal: the simulated machine deadlocked.
    kFaulted,     ///< Terminal: injected faults froze the machine.
    kBudget,      ///< Terminal: service cycle budget exhausted.
    kRejected,    ///< Terminal: refused at admission (queue_full, ...).
    kCancelled,   ///< Terminal: cancelled by a client.
    kError,       ///< Terminal: invalid payload or config error.
};

inline constexpr int kNumSubmissionStates = 10;

/** Wire name: "waiting", "compiling", ..., "budget-exhausted". */
const char* submissionStateName(SubmissionState state);

/** Parse a wire name; false on an unknown state. */
bool parseSubmissionState(const std::string& name, SubmissionState& out);

/**
 * Human-readable one-liner for status responses, e.g. "Your
 * submission is waiting for a worker." — the status verb returns it
 * next to the machine-readable state name.
 */
const char* submissionStateDescription(SubmissionState state);

/** Is this state final (result available / no further transitions,
 *  modulo the drain requeue edge on kWaiting)? */
bool submissionStateTerminal(SubmissionState state);

/** Map a finished run's RunStatus onto the terminal submission state. */
SubmissionState submissionStateForRun(sim::RunStatus status);

/**
 * A parsed submit payload: one "run" (single machine shape, first
 * request) or one "sweep" (shape ladder x request grid). Owns the
 * Program — daemon-side it must stay alive for the whole execution,
 * so the daemon heap-allocates the Submission and frees it when the
 * submission reaches a terminal state (the spool keeps the request
 * line, which recovery reparses).
 */
struct Submission
{
    bool isSweep = false;
    Program program{1};
    Topology topo;
    /** The machine ladder; exactly one entry for a "run". */
    std::vector<sim::ShapeSpec> shapes;
    /** The request grid; at least one entry. */
    std::vector<sim::RunRequest> requests;
    /**
     * Service-side cycle ceiling per run, mapped onto
     * RunRequest::pauseAt slices by the daemon; 0 = daemon default.
     * A run that reaches it parks terminal as kBudget.
     */
    Cycle cycleBudget = 0;
    /** Sweep journal checkpoint interval; 0 = daemon default. */
    Cycle checkpointEvery = 0;
    /**
     * Per-request cap on the sweep's worker threads
     * ("sweep_workers"): the effective count is min(this, the
     * daemon's --sweep-workers) when > 0; 0 accepts the daemon
     * default unchanged. A client can shrink its own slice of the
     * box, never grow it. Ignored for single runs.
     */
    int sweepWorkers = 0;
    sim::KernelKind kernel = sim::KernelKind::kEventDriven;
    /** Folded into the sweep journal digest (see ShapeSweepOptions). */
    std::string programVersion;
    /**
     * Optional client-chosen dedup key ("idempotency_key"). Two
     * submits with the same key admit one submission: the second
     * answers with the first's id. This is what makes blind client
     * retries safe — an ack lost to a crashed daemon or dropped
     * connection cannot duplicate work, because the key is spooled
     * with the request line and the index is rebuilt on recovery.
     */
    std::string idempotencyKey;
};

/**
 * Parse and validate the "submit" request object in @p msg (the full
 * request line, verb included). On failure @p error names the field;
 * nothing about the daemon is consulted — this is pure payload
 * validation, shared by the daemon's admission path and the spool
 * recovery path.
 */
bool parseSubmission(const JsonValue& msg, Submission& out,
                     std::string& error);

/**
 * A parsed "lint" request: run the simlint static analysis
 * (core/analyze.h) over a (program, topology, shape) triple without
 * admitting any work. Shares the submit payload's program/topology/
 * shape grammar, so a client can lint exactly what it would submit;
 * the daemon answers with the rendered AnalysisReport (serve/lint.h)
 * and reuses/populates the compile cache under the same digest a
 * later submit would hit.
 */
struct LintRequest
{
    Program program{1};
    Topology topo;
    /** The machine shape to analyze against (defaults as in submit). */
    sim::ShapeSpec shape;
    std::string programVersion;
};

/** Parse and validate a "lint" request line; pure payload validation
 *  like parseSubmission. */
bool parseLintRequest(const JsonValue& msg, LintRequest& out,
                      std::string& error);

/** Uint64 digests travel as "0x%016x" hex strings on the wire. */
std::string hexDigest(std::uint64_t digest);

} // namespace syscomm::serve
