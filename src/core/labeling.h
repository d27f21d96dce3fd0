#pragma once

/**
 * @file
 * Consistent message labeling (paper, sections 5, 6 and 8.2).
 *
 * Every message receives a positive label; multiple messages may share
 * one. A labeling is *consistent* when each cell program touches
 * messages in non-decreasing label order. The section 6 scheme labels
 * messages in the order the crossing-off procedure first executes
 * them:
 *
 *   1a. If neither endpoint of the message will touch an
 *       already-labeled message, use a fresh maximum label.
 *   1b. Otherwise pick a label strictly between the last label either
 *       endpoint accessed and the smallest label either endpoint will
 *       still access (possibly a non-integer rational).
 *   1c. Related messages receive the same label.
 *   1d. With lookahead, messages whose writes were skipped receive the
 *       executing message's label (section 8.2).
 */

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/crossoff.h"
#include "core/program.h"
#include "core/rational.h"
#include "core/types.h"

namespace syscomm {

/** Options for the section 6 labeler. */
struct LabelingOptions
{
    /** Use the lookahead crossing-off procedure (section 8). */
    bool lookahead = false;
    /** Rule R2 bound (lookahead only). */
    SkipBoundFn skip_bound;
    /**
     * Which executable pair step 1 picks when several are available.
     * The paper leaves this open ("how to pick an optimal one ... is an
     * issue"); declaration order reproduces the paper's Fig. 7 labels.
     */
    enum class Pick : std::uint8_t
    {
        kDeclarationOrder,   ///< Lowest message id first.
        kReverseDeclaration, ///< Highest message id first (stress order).
        kLabeledFirst,       ///< Prefer already-labeled messages.
    };
    Pick pick = Pick::kDeclarationOrder;
    /** Record a human-readable narration of each labeling step. */
    bool record_log = false;
};

/** Result of a labeling run. */
struct Labeling
{
    bool success = false;
    std::string error;
    /** Label per MessageId; meaningful only when success is true. */
    std::vector<Rational> labels;
    /** Step-by-step narration (when record_log was set). */
    std::vector<std::string> log;

    /**
     * Labels renormalized to dense positive integers 1..k, preserving
     * order and ties. Handy for reports and for the simulator.
     */
    std::vector<std::int64_t> normalized() const;

    /** "A=1 B=3 C=2" rendering. */
    std::string str(const Program& program) const;
};

/**
 * Run the section 6 scheme. Fails (success == false) when the program
 * is not deadlock-free under the selected crossing-off options, or
 * when rule 1b's bounds are infeasible, which deadlock-free programs
 * do hit: of 300 randomDeadlockFreeProgram 8x8-mesh programs (64
 * messages, interleave 0.3, seeds 1-300), 211 fail on rule 1b. A
 * labeling that succeeds need not be consistent either (51 more of
 * the same 300); check it with label_verify.h. defaultLabeling()
 * falls back to the trivial labeling only on failure, and simlint
 * reports both outcomes (SL020, SL021).
 */
Labeling labelMessages(const Program& program,
                       const LabelingOptions& options = {});

/**
 * The trivial consistent labeling: every message gets label 1
 * (section 5 remark). Always consistent, but forces the compatible
 * assignment to treat all competitors as one simultaneous group, so it
 * "will not likely yield an efficient use of queues".
 */
Labeling trivialLabeling(const Program& program);

/** The labeling in force when none is given; see defaultLabeling(). */
struct DefaultLabeling
{
    Labeling labeling;
    /** Section 6 failed, so `labeling` is the trivial one. */
    bool fellBack = false;
};

/**
 * The labeling a SimSession uses unless it is handed one, and the one
 * simlint checks: the section 6 scheme, or the trivial labeling when
 * the scheme fails. CompiledProgram computes it once per program.
 */
DefaultLabeling defaultLabeling(const Program& program);

/**
 * Direct constraint-graph labeling — an alternative scheme under the
 * paper's "many labeling schemes can be used" remark. Consistency
 * demands label(m1) <= label(m2) whenever some cell program touches m1
 * immediately before m2; those constraints form a digraph whose
 * strongly connected components *must* share a label and whose
 * condensation can be labeled in topological order with distinct
 * integers. The result is always consistent (even for deadlocked
 * programs, since consistency is a property of the text alone) and
 * shares labels only where sharing is forced.
 */
Labeling graphLabeling(const Program& program);

} // namespace syscomm
