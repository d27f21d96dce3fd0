#include "sim/assignment.h"

#include <algorithm>
#include <cassert>

#include "core/mix.h"

namespace syscomm::sim {

namespace {

/** Slots of @p link's crossings waiting for a queue, in slot order. */
void
collectRequested(const LinkState& link, std::vector<int>& out)
{
    Span<const Crossing> crossings = link.crossings();
    out.clear();
    for (std::size_t s = 0; s < crossings.size(); ++s) {
        if (crossings[s].phase == CrossingPhase::kRequested)
            out.push_back(static_cast<int>(s));
    }
}

} // namespace

// ---------------------------------------------------------------------
// StaticPolicy
// ---------------------------------------------------------------------

bool
StaticPolicy::initLink(LinkState& link,
                       std::vector<AssignmentDecision>& decisions)
{
    const int crossings = static_cast<int>(link.crossings().size());
    for (int s = 0; s < crossings; ++s) {
        int q = link.findFreeQueue();
        if (q < 0)
            return false; // not enough queues for a static assignment
        link.assign(s, q, 0);
        decisions.push_back({s, q});
    }
    return true;
}

// ---------------------------------------------------------------------
// CompatiblePolicy
// ---------------------------------------------------------------------

CompatiblePolicy::CompatiblePolicy(std::vector<std::int64_t> labels,
                                   bool eager)
    : labels_(std::move(labels)), eager_(eager)
{}

void
CompatiblePolicy::tick(LinkState& link, Cycle now,
                       std::vector<AssignmentDecision>& decisions)
{
    // Serve strictly in ascending label order across the link's shared
    // queue pool: only the smallest label with unserved members may be
    // assigned this cycle (ordered rule); larger labels must wait.
    // Two linear passes over the crossings — this runs on the
    // simulator's per-cycle hot path, so no per-tick allocation.
    std::int64_t lowest = 0;
    bool found = false;
    for (const Crossing& c : link.crossings()) {
        assert(c.msg < static_cast<MessageId>(labels_.size()));
        if (c.assignedAt >= 0)
            continue;
        std::int64_t label = labels_[c.msg];
        if (!found || label < lowest) {
            lowest = label;
            found = true;
        }
    }
    if (!found)
        return; // every crossing served

    unserved_.clear();
    bool any_requested = false;
    Span<Crossing> crossings = link.crossings();
    for (std::size_t s = 0; s < crossings.size(); ++s) {
        const Crossing& c = crossings[s];
        if (c.assignedAt >= 0 || labels_[c.msg] != lowest)
            continue;
        unserved_.push_back(static_cast<int>(s));
        if (c.phase == CrossingPhase::kRequested)
            any_requested = true;
    }

    // Simultaneous assignment: all members of the group get separate
    // queues at once, or none do.
    if ((eager_ || any_requested) &&
        link.numFreeQueues() >= static_cast<int>(unserved_.size())) {
        for (int s : unserved_) {
            int q = link.findFreeQueue();
            assert(q >= 0);
            link.assign(s, q, now);
            decisions.push_back({s, q});
        }
    }
}

// ---------------------------------------------------------------------
// FcfsPolicy
// ---------------------------------------------------------------------

void
FcfsPolicy::tick(LinkState& link, Cycle now,
                 std::vector<AssignmentDecision>& decisions)
{
    Span<Crossing> crossings = link.crossings();
    collectRequested(link, pending_);
    std::sort(pending_.begin(), pending_.end(), [&](int a, int b) {
        const Crossing& ca = crossings[static_cast<std::size_t>(a)];
        const Crossing& cb = crossings[static_cast<std::size_t>(b)];
        if (ca.requestedAt != cb.requestedAt)
            return ca.requestedAt < cb.requestedAt;
        return ca.msg < cb.msg;
    });
    for (int s : pending_) {
        int q = link.findFreeQueue();
        if (q < 0)
            break;
        link.assign(s, q, now);
        decisions.push_back({s, q});
    }
}

// ---------------------------------------------------------------------
// RandomPolicy
// ---------------------------------------------------------------------

namespace {

/**
 * Counter-based bit generator for RandomPolicy's per-link streams:
 * splitmix64 over a mixed (seed, link, counter) state. Cheap to
 * construct per shuffle — no large state to seed, unlike mt19937.
 */
class SplitMix64
{
  public:
    using result_type = std::uint64_t;

    SplitMix64(std::uint64_t seed, std::uint64_t link,
               std::uint64_t counter)
        // Golden-ratio multiples keep the three inputs from aliasing
        // (seed=1,link=2 must not collide with seed=2,link=1).
        : state_(seed + 0x9e3779b97f4a7c15ull * (link + 1) +
                 0xbf58476d1ce4e5b9ull * (counter + 1))
    {}

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    result_type operator()() { return splitmix64(state_); }

  private:
    std::uint64_t state_;
};

} // namespace

void
RandomPolicy::tick(LinkState& link, Cycle now,
                   std::vector<AssignmentDecision>& decisions)
{
    // A tick that cannot change link state must not advance the RNG
    // stream: without a free queue (or without a pending request) the
    // shuffle outcome is unobservable, and skipping the draw is what
    // lets the event kernel fast-forward over such cycles without
    // desynchronizing from the dense kernel.
    if (link.numFreeQueues() == 0)
        return;
    collectRequested(link, pending_);
    if (pending_.empty())
        return;

    std::size_t idx = static_cast<std::size_t>(link.index());
    if (idx >= decisions_.size())
        decisions_.resize(idx + 1, 0);
    SplitMix64 rng(seed_, static_cast<std::uint64_t>(link.index()),
                   decisions_[idx]);
    std::shuffle(pending_.begin(), pending_.end(), rng);
    for (int s : pending_) {
        int q = link.findFreeQueue();
        if (q < 0)
            break;
        link.assign(s, q, now);
        decisions.push_back({s, q});
        ++decisions_[idx];
    }
}

// ---------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------

const char*
policyKindName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::kCompatible:
        return "compatible";
      case PolicyKind::kCompatibleEager:
        return "compatible-eager";
      case PolicyKind::kStatic:
        return "static";
      case PolicyKind::kFcfs:
        return "fcfs";
      case PolicyKind::kRandom:
        return "random";
    }
    return "?";
}

std::unique_ptr<AssignmentPolicy>
makePolicy(PolicyKind kind, std::vector<std::int64_t> labels,
           std::uint64_t seed)
{
    switch (kind) {
      case PolicyKind::kCompatible:
        return std::make_unique<CompatiblePolicy>(std::move(labels), false);
      case PolicyKind::kCompatibleEager:
        return std::make_unique<CompatiblePolicy>(std::move(labels), true);
      case PolicyKind::kStatic:
        return std::make_unique<StaticPolicy>();
      case PolicyKind::kFcfs:
        return std::make_unique<FcfsPolicy>();
      case PolicyKind::kRandom:
        return std::make_unique<RandomPolicy>(seed);
    }
    return nullptr;
}

} // namespace syscomm::sim
