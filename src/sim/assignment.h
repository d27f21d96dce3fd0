#pragma once

/**
 * @file
 * Queue-assignment policies (paper, section 7).
 *
 * The policy decides, each cycle and per link, which waiting messages
 * receive free queues. Four policies are provided:
 *
 *  - StaticPolicy: every message gets a dedicated queue before the
 *    program starts (section 7.1). Automatically compatible.
 *  - CompatiblePolicy: the paper's dynamic scheme — ordered assignment
 *    by label plus simultaneous assignment of same-label groups
 *    (section 7.2). Requires a labeling.
 *  - FcfsPolicy: first-come-first-served baseline. Exhibits the
 *    queue-induced deadlocks of Figs. 7-9.
 *  - RandomPolicy: randomized arrival service; another unsafe baseline.
 */

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/types.h"
#include "sim/link_state.h"

namespace syscomm::sim {

/** (message, queue id) decisions a policy makes for one link. */
struct AssignmentDecision
{
    MessageId msg = kInvalidMessage;
    int queueId = -1;
};

/** Strategy interface for per-link queue assignment. */
class AssignmentPolicy
{
  public:
    virtual ~AssignmentPolicy() = default;

    virtual std::string name() const = 0;

    /**
     * An independent copy carrying the full mid-run decision state
     * (for the counted-stream random policy: its per-link decision
     * counters). SimSession::adoptState clones the donor's policy so
     * a session resumed from a checkpoint makes exactly the decisions
     * the donor would have made.
     */
    virtual std::unique_ptr<AssignmentPolicy> clone() const = 0;

    /**
     * Reset internal state for a fresh run over the same machine.
     * After this call the policy must behave exactly like a newly
     * constructed instance seeded with @p seed — SimSession reuses
     * one instance per kind across runs instead of reallocating.
     */
    virtual void resetRun(std::uint64_t seed) { (void)seed; }

    /**
     * Append the mid-run decision state clone() would carry — for the
     * counted-stream random policy, its per-link decision counters —
     * as plain words. The checkpoint machinery persists this next to
     * the machine pools so a run restored from disk makes exactly the
     * decisions the interrupted one would have made. The compatible,
     * static and FCFS policies are pure functions of the link state
     * and save nothing.
     */
    virtual void saveState(std::vector<std::uint64_t>& out) const
    {
        (void)out;
    }

    /**
     * Restore state written by saveState into a policy freshly reset
     * with the original run's seed. Returns false on a word count the
     * policy cannot interpret (a torn or mismatched checkpoint).
     */
    virtual bool loadState(const std::vector<std::uint64_t>& state)
    {
        return state.empty();
    }

    /**
     * Called once per link before cycle 0. Static assignment happens
     * here. Returns false if the policy cannot set this link up (e.g.
     * not enough queues for a static assignment).
     */
    virtual bool initLink(LinkState& link,
                          std::vector<AssignmentDecision>& decisions)
    {
        (void)link;
        (void)decisions;
        return true;
    }

    /** Called once per link per cycle; append decisions to make. */
    virtual void tick(LinkState& link, Cycle now,
                      std::vector<AssignmentDecision>& decisions) = 0;
};

/** Section 7.1: dedicated queue per message, fixed for the whole run. */
class StaticPolicy : public AssignmentPolicy
{
  public:
    std::string name() const override { return "static"; }
    std::unique_ptr<AssignmentPolicy> clone() const override
    {
        return std::make_unique<StaticPolicy>(*this);
    }
    bool initLink(LinkState& link,
                  std::vector<AssignmentDecision>& decisions) override;
    void tick(LinkState&, Cycle, std::vector<AssignmentDecision>&) override
    {}
};

/**
 * Section 7.2: ordered + simultaneous dynamic assignment.
 *
 * Messages crossing a link are grouped by label; groups are served in
 * ascending label order across the link's shared pool. A group is
 * assigned when every smaller group has been served, enough queues are
 * free, and (unless eager reservation is on) at least one member has
 * requested.
 */
class CompatiblePolicy : public AssignmentPolicy
{
  public:
    /**
     * @param labels label per MessageId (normalized integers work).
     * @param eager reserve queues for a group as soon as it is the
     *        lowest unserved group, before any member arrives (the
     *        paper's "reservation scheme" remark in section 5).
     */
    CompatiblePolicy(std::vector<std::int64_t> labels, bool eager = false);

    std::string name() const override
    {
        return eager_ ? "compatible-eager" : "compatible";
    }
    std::unique_ptr<AssignmentPolicy> clone() const override
    {
        return std::make_unique<CompatiblePolicy>(*this);
    }
    void tick(LinkState& link, Cycle now,
              std::vector<AssignmentDecision>& decisions) override;

  private:
    std::vector<std::int64_t> labels_;
    bool eager_;
    /** Per-tick scratch (lowest unserved label group); no allocation
     *  in steady state — tick is on the simulator's hot path. */
    std::vector<Crossing*> unserved_;
};

/** Unsafe baseline: serve queue requests in arrival order. */
class FcfsPolicy : public AssignmentPolicy
{
  public:
    std::string name() const override { return "fcfs"; }
    std::unique_ptr<AssignmentPolicy> clone() const override
    {
        return std::make_unique<FcfsPolicy>(*this);
    }
    void tick(LinkState& link, Cycle now,
              std::vector<AssignmentDecision>& decisions) override;

  private:
    /** Per-tick scratch; tick runs on the simulator's hot path. */
    std::vector<Crossing*> pending_;
};

/**
 * Unsafe baseline: serve pending requests in random order.
 *
 * The shuffle order is drawn from a per-link *counted* stream: each
 * draw is a pure function of (run seed, link index, the number of
 * assignment decisions that link has made so far). A tick that cannot
 * assign anything — no pending request, or no free queue — draws
 * nothing and leaves the counter untouched, so the stream advances
 * only on state-changing ticks. That makes the policy independent of
 * how often it is ticked: an event-driven kernel that skips provably
 * inert cycles sees exactly the shuffles the dense reference kernel
 * sees, so fast-forwarding never desynchronizes the two (and
 * SimSession's canFastForward needs no kRandom special case).
 */
class RandomPolicy : public AssignmentPolicy
{
  public:
    explicit RandomPolicy(std::uint64_t seed) : seed_(seed) {}

    std::string name() const override { return "random"; }
    std::unique_ptr<AssignmentPolicy> clone() const override
    {
        // The copy carries seed_ and the per-link decision counters:
        // the clone's future shuffles are exactly this policy's.
        return std::make_unique<RandomPolicy>(*this);
    }
    /** Restart every per-link stream as if freshly constructed. */
    void resetRun(std::uint64_t seed) override
    {
        seed_ = seed;
        std::fill(decisions_.begin(), decisions_.end(), 0);
    }
    void saveState(std::vector<std::uint64_t>& out) const override
    {
        out.insert(out.end(), decisions_.begin(), decisions_.end());
    }
    bool loadState(const std::vector<std::uint64_t>& state) override
    {
        // decisions_ grows lazily per link touched; a checkpoint may
        // carry any prefix length up to the link count, which this
        // policy cannot know — accept what was saved verbatim.
        decisions_ = state;
        return true;
    }
    void tick(LinkState& link, Cycle now,
              std::vector<AssignmentDecision>& decisions) override;

  private:
    std::uint64_t seed_;
    /** Assignment decisions made per link (the stream counters). */
    std::vector<std::uint64_t> decisions_;
    /** Per-tick shuffle scratch; tick is on the hot path. */
    std::vector<Crossing*> pending_;
};

/** Selector used by SimOptions and RunRequest. */
enum class PolicyKind : std::uint8_t
{
    kCompatible = 0,
    kCompatibleEager,
    kStatic,
    kFcfs,
    kRandom,
};

/** Number of PolicyKind values (SimSession's policy cache size). */
inline constexpr int kNumPolicyKinds = 5;
static_assert(static_cast<int>(PolicyKind::kRandom) + 1 ==
                  kNumPolicyKinds,
              "update kNumPolicyKinds when adding a PolicyKind — it "
              "sizes arrays indexed by the enum");

const char* policyKindName(PolicyKind kind);

/** Factory. @p labels may be empty for FCFS/random/static. */
std::unique_ptr<AssignmentPolicy>
makePolicy(PolicyKind kind, std::vector<std::int64_t> labels,
           std::uint64_t seed);

/**
 * Does a run under @p kind read RunRequest::seed? Only RandomPolicy's
 * counted shuffle streams do; every other policy is a pure function
 * of the link state, so two runs that differ only in seed are
 * bit-identical and ShapeSweep simulates them once (runsEquivalent,
 * sim/session.h). A new policy that consumes the seed must answer
 * true here, or its rows would be shared across seeds —
 * tests/test_assignment.cpp checks every kind against real runs.
 */
constexpr bool
policyReadsSeed(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::kRandom:
        return true;
      case PolicyKind::kCompatible:
      case PolicyKind::kCompatibleEager:
      case PolicyKind::kStatic:
      case PolicyKind::kFcfs:
        return false;
    }
    return true;
}

} // namespace syscomm::sim
