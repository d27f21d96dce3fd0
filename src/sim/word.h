#pragma once

/**
 * @file
 * A word in flight between cells.
 */

#include "core/types.h"

namespace syscomm::sim {

/** One word of a message travelling through the queue network. */
struct Word
{
    MessageId msg = kInvalidMessage;
    /** Word index within its message (0-based). */
    int seq = 0;
    /** Payload produced by the sender's compute context. */
    double value = 0.0;
    /** Cycle the word entered its current queue. */
    Cycle enqueuedAt = 0;
    /** True if the word ever sat in the queue's memory extension. */
    bool wasExtended = false;
};

// Pinned hot-state size (LP64): every queue ring slot is one Word.
static_assert(sizeof(Word) == 32, "Word layout changed");

} // namespace syscomm::sim
