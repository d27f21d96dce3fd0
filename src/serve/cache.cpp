#include "serve/cache.h"

#include <optional>

#include "sim/fnv.h"

namespace syscomm::serve {

namespace {

/**
 * Was @p entry built from exactly (@p program, @p topo)? Compute
 * callbacks are code and cannot be compared; the key's version string
 * stands in for them. The mesh shape counts: it selects XY routing.
 */
bool
holds(const CachedProgram& entry, const Program& program,
      const Topology& topo)
{
    const Program& p = *entry.program;
    const Topology& t = entry.compiled->topo();
    if (p.numCells() != program.numCells() ||
        p.numMessages() != program.numMessages() ||
        t.numCells() != topo.numCells() || t.numLinks() != topo.numLinks() ||
        t.name() != topo.name() || t.meshRows() != topo.meshRows() ||
        t.meshCols() != topo.meshCols())
        return false;
    for (MessageId m = 0; m < p.numMessages(); ++m) {
        const MessageDecl& x = p.message(m);
        const MessageDecl& y = program.message(m);
        if (x.name != y.name || x.sender != y.sender ||
            x.receiver != y.receiver)
            return false;
    }
    for (CellId c = 0; c < p.numCells(); ++c) {
        if (p.cellOps(c) != program.cellOps(c))
            return false;
    }
    for (LinkIndex l = 0; l < t.numLinks(); ++l) {
        if (t.link(l).a != topo.link(l).a || t.link(l).b != topo.link(l).b)
            return false;
    }
    return true;
}

} // namespace

CompileCache::CompileCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity)
{
}

std::uint64_t
CompileCache::keyFor(const Program& program, const Topology& topo,
                     const std::string& version)
{
    using sim::fnv;
    std::uint64_t h = sim::kFnvOffsetBasis;
    h = fnv(h, static_cast<std::uint64_t>(program.numCells()));
    h = fnv(h, static_cast<std::uint64_t>(program.numMessages()));
    for (MessageId m = 0; m < program.numMessages(); ++m)
        h = fnv(h,
                static_cast<std::uint64_t>(program.messageLength(m)));
    for (CellId c = 0; c < program.numCells(); ++c) {
        const std::vector<Op>& ops = program.cellOps(c);
        h = fnv(h, ops.size());
        for (const Op& op : ops) {
            h = fnv(h, static_cast<std::uint64_t>(op.kind));
            h = fnv(h, static_cast<std::uint64_t>(op.msg));
        }
    }
    h = fnv(h, version.size());
    for (char c : version)
        h = fnv(h, static_cast<std::uint8_t>(c));
    h = fnv(h, static_cast<std::uint64_t>(topo.numCells()));
    h = fnv(h, static_cast<std::uint64_t>(topo.numLinks()));
    for (LinkIndex l = 0; l < topo.numLinks(); ++l) {
        h = fnv(h, static_cast<std::uint64_t>(topo.link(l).a));
        h = fnv(h, static_cast<std::uint64_t>(topo.link(l).b));
    }
    return h;
}

CachedProgram
CompileCache::get(std::uint64_t key, const Program& program,
                  const Topology& topo, bool* wasHit)
{
    CachedProgram cached;
    std::shared_future<CachedProgram> wait;
    // Only the caller that compiles makes the promise its waiters
    // share; a hit allocates nothing.
    std::optional<std::promise<CachedProgram>> build;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto hit = entries_.find(key);
        auto pending = inflight_.find(key);
        if (hit != entries_.end()) {
            lru_.splice(lru_.begin(), lru_, hit->second.lruPos);
            cached = hit->second.value;
        } else if (pending != inflight_.end()) {
            wait = pending->second; // a wait, not a build
        } else {
            build.emplace();
            inflight_.emplace(key, build->get_future().share());
        }
    }
    const bool owner = build.has_value();
    if (wait.valid())
        cached = wait.get();
    // The key is only a digest: serve the entry only if it was built
    // from this very program (compared outside the lock).
    const bool same = cached.valid() && holds(cached, program, topo);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++(same ? hits_ : misses_);
    }
    if (wasHit != nullptr)
        *wasHit = same;
    if (same)
        return cached;

    // Compile outside the lock: compiles take milliseconds to seconds
    // and must not serialize the whole daemon. The entry owns copies,
    // made here on a miss only.
    auto pinned = std::make_shared<const Program>(program);
    CachedProgram value;
    value.program = pinned;
    value.compiled =
        sim::CompiledProgram::compile(*pinned, SharedTopology(topo));
    if (!owner)
        return value; // another program holds the key: leave its slot

    {
        std::lock_guard<std::mutex> lock(mutex_);
        lru_.push_front(key);
        entries_[key] = Entry{value, lru_.begin()};
        while (entries_.size() > capacity_) {
            std::uint64_t victim = lru_.back();
            lru_.pop_back();
            entries_.erase(victim);
            ++evictions_;
        }
        inflight_.erase(key);
    }
    // Waiters hold shared_ptrs after get(); eviction above only drops
    // the cache's reference, never a client's.
    build->set_value(value);
    return value;
}

CachedProgram
CompileCache::peek(std::uint64_t key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto hit = entries_.find(key);
    return hit != entries_.end() ? hit->second.value : CachedProgram{};
}

CompileCache::Stats
CompileCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats out;
    out.entries = entries_.size();
    out.capacity = capacity_;
    out.hits = hits_;
    out.misses = misses_;
    out.evictions = evictions_;
    return out;
}

} // namespace syscomm::serve
