#include "sim/arena.h"

#include <cassert>

#include "sim/fnv.h"

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace syscomm::sim {

namespace {

std::uint32_t
nextPow2(std::uint32_t v)
{
    std::uint32_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

/**
 * Ask the kernel for transparent huge pages over a pool's interior.
 * Multi-megabyte pools walked end to end every cycle (the dense-active
 * regime) otherwise spend a measurable share of their cache misses on
 * 4 KiB page walks. Called on freshly reserved, still-untouched
 * storage so the first-touch faults populate huge pages directly;
 * best-effort — a kernel without THP just ignores us.
 */
template <typename T>
void
adviseHugePages(std::vector<T>& pool)
{
#if defined(__linux__) && defined(MADV_HUGEPAGE)
    constexpr std::uintptr_t kHuge = 2u << 20;
    auto addr = reinterpret_cast<std::uintptr_t>(pool.data());
    std::uintptr_t bytes = pool.capacity() * sizeof(T);
    std::uintptr_t start = (addr + kHuge - 1) & ~(kHuge - 1);
    if (addr + bytes <= start + kHuge)
        return; // under one aligned huge page: nothing to gain
    std::uintptr_t len = (addr + bytes - start) & ~(kHuge - 1);
    (void)madvise(reinterpret_cast<void*>(start), len, MADV_HUGEPAGE);
#else
    (void)pool;
#endif
}

} // namespace

void
SimArena::buildPools(int num_links, int queues_per_link, int capacity,
                     int ext_capacity, int ext_penalty,
                     const std::vector<int>& crossings_per_link)
{
    assert(!built() && "SimArena::build is once-only");
    assert(num_links >= 1 && queues_per_link >= 1);
    assert(static_cast<int>(crossings_per_link.size()) == num_links);

    const std::uint32_t ring_size =
        nextPow2(static_cast<std::uint32_t>(capacity));
    const std::uint32_t spill_size =
        ext_capacity > 0 ? nextPow2(static_cast<std::uint32_t>(ext_capacity))
                         : 0;
    const std::size_t words_per_queue = ring_size + spill_size;
    const std::size_t num_queues =
        static_cast<std::size_t>(num_links) *
        static_cast<std::size_t>(queues_per_link);

    std::size_t total_crossings = 0;
    for (int n : crossings_per_link)
        total_crossings += static_cast<std::size_t>(n);

    // Reserve (untouched), advise huge pages, then populate: the
    // first-touch page faults then map the pools onto 2 MiB pages.
    words_.reserve(num_queues * words_per_queue);
    adviseHugePages(words_);
    words_.assign(num_queues * words_per_queue, Word{});
    crossings_.reserve(total_crossings);
    adviseHugePages(crossings_);
    crossings_.assign(total_crossings, Crossing{});
    queues_.reserve(num_queues);
    adviseHugePages(queues_);
    links_.reserve(static_cast<std::size_t>(num_links));
    adviseHugePages(links_);

    std::size_t word_at = 0;
    std::size_t cross_at = 0;
    for (LinkIndex l = 0; l < num_links; ++l) {
        for (int q = 0; q < queues_per_link; ++q) {
            Word* ring = words_.data() + word_at;
            Word* spill = spill_size > 0 ? ring + ring_size : nullptr;
            queues_.emplace_back(q, capacity, ext_capacity, ext_penalty,
                                 ring, ring_size, spill, spill_size);
            word_at += words_per_queue;
        }
        const std::size_t cap =
            static_cast<std::size_t>(crossings_per_link[l]);
        links_.emplace_back(
            l,
            Span<HwQueue>(queues_.data() +
                              static_cast<std::size_t>(l) *
                                  static_cast<std::size_t>(queues_per_link),
                          static_cast<std::size_t>(queues_per_link)),
            Span<Crossing>(crossings_.data() + cross_at, cap));
        cross_at += cap;
    }
}

void
SimArena::build(const MachineSpec& spec, const Program& program,
                const std::vector<int>& crossings_per_link)
{
    buildPools(spec.topo.numLinks(), spec.queuesPerLink,
               spec.queueCapacity, spec.extensionCapacity,
               spec.extensionPenalty, crossings_per_link);
    cells_.reserve(static_cast<std::size_t>(program.numCells()));
    adviseHugePages(cells_);
    for (CellId c = 0; c < program.numCells(); ++c)
        cells_.emplace_back(c, &program.cellOps(c));
}

LinkState&
SimArena::buildSingleLink(int num_queues, int capacity, int ext_capacity,
                          int ext_penalty, int max_crossings)
{
    buildPools(1, num_queues, capacity, ext_capacity, ext_penalty,
               {max_crossings});
    return links_.front();
}

HwQueue&
SimArena::buildSingleQueue(int capacity, int ext_capacity, int ext_penalty)
{
    return buildSingleLink(1, capacity, ext_capacity, ext_penalty, 0)
        .queue(0);
}

void
SimArena::serializeMachineState(std::vector<std::uint8_t>& out) const
{
    ByteWriter w(out);
    // Pool element counts lead the stream: deserialization into a
    // machine of a different shape must fail loudly, never memcpy.
    w.put(static_cast<std::uint64_t>(words_.size()));
    w.put(static_cast<std::uint64_t>(queues_.size()));
    w.put(static_cast<std::uint64_t>(crossings_.size()));
    w.put(static_cast<std::uint64_t>(cells_.size()));
    // Pools serialize field by field (not struct memcpy) so the wire
    // format is the fixed little-endian v3 layout with no padding —
    // a checkpoint written on any host restores on any other.
    w.put(static_cast<std::uint64_t>(words_.size()));
    for (const Word& word : words_) {
        w.put(word.msg);
        w.put(word.seq);
        w.put(word.value);
        w.put(word.enqueuedAt);
        w.put(word.wasExtended);
    }
    w.put(static_cast<std::uint64_t>(crossings_.size()));
    for (const Crossing& c : crossings_) {
        w.put(c.msg);
        w.put(c.dir);
        w.put(c.hopIndex);
        w.put(c.words);
        w.put(c.finalHop);
        w.put(c.phase);
        w.put(c.queueId);
        w.put(c.requestedAt);
        w.put(c.assignedAt);
    }
    for (const HwQueue& q : queues_)
        q.saveState(w);
    for (const CellRuntime& cell : cells_)
        cell.saveState(w);
}

bool
SimArena::deserializeMachineState(const std::uint8_t* data,
                                  std::size_t size)
{
    ByteReader r(data, size);
    if (r.get<std::uint64_t>() != words_.size() ||
        r.get<std::uint64_t>() != queues_.size() ||
        r.get<std::uint64_t>() != crossings_.size() ||
        r.get<std::uint64_t>() != cells_.size() || !r.ok())
        return false;
    // Exact-size reads into the existing pools: nothing may resize —
    // every LinkState/HwQueue span points into this storage.
    if (r.get<std::uint64_t>() != words_.size() || !r.ok())
        return false;
    for (Word& word : words_) {
        word.msg = r.get<MessageId>();
        word.seq = r.get<int>();
        word.value = r.get<double>();
        word.enqueuedAt = r.get<Cycle>();
        word.wasExtended = r.get<bool>();
    }
    if (r.get<std::uint64_t>() != crossings_.size() || !r.ok())
        return false;
    for (Crossing& c : crossings_) {
        c.msg = r.get<MessageId>();
        c.dir = r.get<LinkDir>();
        c.hopIndex = r.get<int>();
        c.words = r.get<int>();
        c.finalHop = r.get<bool>();
        c.phase = r.get<CrossingPhase>();
        c.queueId = r.get<int>();
        c.requestedAt = r.get<Cycle>();
        c.assignedAt = r.get<Cycle>();
    }
    if (!r.ok())
        return false;
    for (HwQueue& q : queues_) {
        if (!q.loadState(r))
            return false;
    }
    for (CellRuntime& cell : cells_) {
        if (!cell.loadState(r))
            return false;
    }
    if (!r.ok() || r.remaining() != 0)
        return false;
    for (LinkState& link : links_) {
        Span<Crossing> crossings = link.crossings();
        for (std::size_t s = 0; s < crossings.size(); ++s) {
            const Crossing& c = crossings[s];
            if (c.phase != CrossingPhase::kAssigned)
                continue;
            if (c.queueId < 0 ||
                static_cast<std::size_t>(c.queueId) >= link.queues().size())
                return false;
            link.queue(c.queueId).setSlot(static_cast<int>(s));
        }
    }
    return true;
}

std::uint64_t
SimArena::machineDigest() const
{
    std::uint64_t h = kFnvOffsetBasis;
    for (const Crossing& c : crossings_) {
        h = fnv(h, static_cast<std::uint64_t>(c.msg));
        h = fnv(h, static_cast<std::uint64_t>(c.phase));
        h = fnv(h, static_cast<std::uint64_t>(c.queueId));
        h = fnv(h, static_cast<std::uint64_t>(c.requestedAt));
        h = fnv(h, static_cast<std::uint64_t>(c.assignedAt));
    }
    for (const HwQueue& q : queues_)
        h = q.digestState(h);
    for (const CellRuntime& cell : cells_)
        h = cell.digestState(h);
    return h;
}

std::size_t
SimArena::bytesReserved() const
{
    return words_.capacity() * sizeof(Word) +
           queues_.capacity() * sizeof(HwQueue) +
           crossings_.capacity() * sizeof(Crossing) +
           links_.capacity() * sizeof(LinkState) +
           cells_.capacity() * sizeof(CellRuntime);
}

} // namespace syscomm::sim
