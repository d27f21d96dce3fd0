#include "sim/queue.h"

#include <cassert>

#include "sim/fnv.h"

namespace syscomm::sim {

namespace {

inline std::uint64_t
fnvWord(std::uint64_t h, const Word& w)
{
    h = fnv(h, static_cast<std::uint64_t>(w.msg));
    h = fnv(h, static_cast<std::uint64_t>(w.seq));
    h = fnvDouble(h, w.value);
    h = fnv(h, static_cast<std::uint64_t>(w.enqueuedAt));
    h = fnv(h, w.wasExtended ? 1 : 0);
    return h;
}

} // namespace

HwQueue::HwQueue(int id, int capacity, int ext_capacity, int ext_penalty,
                 Word* ring, std::uint32_t ring_size, Word* spill,
                 std::uint32_t spill_size)
    : id_(id),
      capacity_(capacity),
      ext_capacity_(ext_capacity),
      ext_penalty_(ext_penalty),
      ring_(ring),
      mask_(ring_size - 1),
      spill_(spill),
      spill_mask_(spill_size == 0 ? 0 : spill_size - 1)
{
    assert(capacity >= 1 && "a queue buffers at least one word");
    assert(ext_capacity >= 0 && ext_penalty >= 0);
    assert(ring != nullptr && (ring_size & mask_) == 0 &&
           static_cast<int>(ring_size) >= capacity &&
           "ring must be a pow2 slice covering the capacity");
    assert((ext_capacity == 0 ||
            (spill != nullptr && (spill_size & spill_mask_) == 0 &&
             static_cast<int>(spill_size) >= ext_capacity)) &&
           "spill must be a pow2 slice covering the extension");
}

void
HwQueue::reset()
{
    assigned_ = kInvalidMessage;
    slot_ = -1;
    dir_ = LinkDir::kForward;
    final_hop_ = false;
    words_remaining_ = 0;
    cap_limit_ = 0;
    head_ = 0;
    ring_count_ = 0;
    spill_head_ = 0;
    spill_count_ = 0;
    front_ready_at_ = 0;
    last_push_cycle_ = -1;
    last_pop_cycle_ = -1;
    settled_ = 0;
    busy_cycles_ = 0;
    occupancy_sum_ = 0;
    words_pushed_ = 0;
    extended_words_ = 0;
    assignments_ = 0;
}

void
HwQueue::saveState(ByteWriter& out) const
{
    out.put(assigned_);
    out.put(dir_);
    out.put(final_hop_);
    out.put(words_remaining_);
    out.put(cap_limit_);
    out.put(head_);
    out.put(ring_count_);
    out.put(spill_head_);
    out.put(spill_count_);
    out.put(front_ready_at_);
    out.put(last_push_cycle_);
    out.put(last_pop_cycle_);
    out.put(settled_);
    out.put(busy_cycles_);
    out.put(occupancy_sum_);
    out.put(words_pushed_);
    out.put(extended_words_);
    out.put(assignments_);
}

bool
HwQueue::loadState(ByteReader& in)
{
    assigned_ = in.get<MessageId>();
    slot_ = -1; // not serialized; SimArena re-derives it
    dir_ = in.get<LinkDir>();
    final_hop_ = in.get<bool>();
    words_remaining_ = in.get<int>();
    cap_limit_ = in.get<int>();
    head_ = in.get<std::uint32_t>();
    ring_count_ = in.get<int>();
    spill_head_ = in.get<std::uint32_t>();
    spill_count_ = in.get<int>();
    front_ready_at_ = in.get<Cycle>();
    last_push_cycle_ = in.get<Cycle>();
    last_pop_cycle_ = in.get<Cycle>();
    settled_ = in.get<Cycle>();
    busy_cycles_ = in.get<Cycle>();
    occupancy_sum_ = in.get<std::int64_t>();
    words_pushed_ = in.get<std::int64_t>();
    extended_words_ = in.get<std::int64_t>();
    assignments_ = in.get<std::int64_t>();
    return in.ok();
}

void
HwQueue::settleStats(Cycle now)
{
    if (now <= settled_)
        return;
    if (assigned_ != kInvalidMessage) {
        busy_cycles_ += now - settled_;
        occupancy_sum_ += static_cast<std::int64_t>(size()) *
                          (now - settled_);
    }
    settled_ = now;
}

void
HwQueue::assign(MessageId msg, LinkDir dir, int total_words, Cycle now,
                bool final_hop)
{
    assert(isFree() && "queue already assigned");
    assert(total_words > 0);
    settleStats(now);
    assigned_ = msg;
    dir_ = dir;
    final_hop_ = final_hop;
    words_remaining_ = total_words;
    ++assignments_;
}

void
HwQueue::release(Cycle now)
{
    assert(canRelease());
    settleStats(now);
    assigned_ = kInvalidMessage;
    slot_ = -1;
    final_hop_ = false;
    words_remaining_ = 0;
}

void
HwQueue::push(Word word, Cycle now)
{
    assert(canPush(now));
    assert(word.msg == assigned_ && "queue carries one message at a time");
    settleStats(now);
    word.enqueuedAt = now;
    // Hardware slots fill first; the overflow goes to the memory
    // extension. FIFO order requires spilling whenever the extension
    // already holds words.
    word.wasExtended = ring_count_ >= capacity_;
    bool was_empty = empty();
    if (word.wasExtended) {
        ++extended_words_;
        spill_[(spill_head_ + static_cast<std::uint32_t>(spill_count_)) &
               spill_mask_] = word;
        ++spill_count_;
    } else {
        ring_[(head_ + static_cast<std::uint32_t>(ring_count_)) & mask_] =
            word;
        ++ring_count_;
    }
    last_push_cycle_ = now;
    ++words_pushed_;
    if (was_empty)
        refreshFrontReady(now);
}

bool
HwQueue::canPop(Cycle now) const
{
    if (empty() || last_pop_cycle_ == now)
        return false;
    const Word& w = front();
    return w.enqueuedAt < now && now >= front_ready_at_;
}

bool
HwQueue::pendingTimedEvent(Cycle now) const
{
    if (empty() || canPop(now))
        return false;
    const Word& w = front();
    return w.enqueuedAt >= now || now < front_ready_at_ ||
           last_pop_cycle_ == now;
}

Word
HwQueue::pop(Cycle now)
{
    assert(canPop(now));
    settleStats(now);
    Word word = ring_[head_];
    head_ = (head_ + 1) & mask_;
    --ring_count_;
    last_pop_cycle_ = now;
    --words_remaining_;
    // A spilled word surfaces into the freed hardware slot.
    if (spill_count_ > 0) {
        ring_[(head_ + static_cast<std::uint32_t>(ring_count_)) & mask_] =
            spill_[spill_head_];
        ++ring_count_;
        spill_head_ = (spill_head_ + 1) & spill_mask_;
        --spill_count_;
    }
    if (!empty())
        refreshFrontReady(now);
    return word;
}

void
HwQueue::refreshFrontReady(Cycle now)
{
    // A word that spilled into the memory extension pays the extension
    // access penalty when it surfaces at the front.
    front_ready_at_ = now + (front().wasExtended ? ext_penalty_ : 0);
}

std::uint64_t
HwQueue::digestState(std::uint64_t h) const
{
    h = fnv(h, static_cast<std::uint64_t>(assigned_));
    h = fnv(h, static_cast<std::uint64_t>(dir_));
    h = fnv(h, final_hop_ ? 1 : 0);
    h = fnv(h, static_cast<std::uint64_t>(words_remaining_));
    h = fnv(h, static_cast<std::uint64_t>(
                   static_cast<std::int64_t>(cap_limit_)));
    h = fnv(h, static_cast<std::uint64_t>(ring_count_));
    h = fnv(h, static_cast<std::uint64_t>(spill_count_));
    for (int i = 0; i < ring_count_; ++i)
        h = fnvWord(h, ring_[(head_ + static_cast<std::uint32_t>(i)) &
                             mask_]);
    for (int i = 0; i < spill_count_; ++i)
        h = fnvWord(h,
                    spill_[(spill_head_ + static_cast<std::uint32_t>(i)) &
                           spill_mask_]);
    h = fnv(h, static_cast<std::uint64_t>(front_ready_at_));
    h = fnv(h, static_cast<std::uint64_t>(last_push_cycle_));
    h = fnv(h, static_cast<std::uint64_t>(last_pop_cycle_));
    h = fnv(h, static_cast<std::uint64_t>(busy_cycles_));
    h = fnv(h, static_cast<std::uint64_t>(occupancy_sum_));
    h = fnv(h, static_cast<std::uint64_t>(words_pushed_));
    h = fnv(h, static_cast<std::uint64_t>(extended_words_));
    h = fnv(h, static_cast<std::uint64_t>(assignments_));
    return h;
}

} // namespace syscomm::sim
