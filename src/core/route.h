#pragma once

/**
 * @file
 * Message routes: the ordered sequence of directed hops (queues) a
 * message occupies between its sender and its receiver. Section 2.3:
 * "during program execution every message is assigned to a sequence of
 * queues, through which words in the message are transferred".
 */

#include <string>
#include <vector>

#include "core/topology.h"
#include "core/types.h"

namespace syscomm {

/** One directed hop of a route: crossing @p link from @p from to @p to. */
struct Hop
{
    LinkIndex link = kInvalidLink;
    LinkDir dir = LinkDir::kForward;
    CellId from = kInvalidCell;
    CellId to = kInvalidCell;
};

/** A full sender-to-receiver route. */
struct Route
{
    /** Cells visited, sender first, receiver last. */
    std::vector<CellId> cells;
    /** Directed hops; hops.size() == cells.size() - 1. */
    std::vector<Hop> hops;

    int numHops() const { return static_cast<int>(hops.size()); }
    bool empty() const { return hops.empty(); }

    /** "0 -> 1 -> 2" rendering. */
    std::string str() const;
};

/**
 * Compute the deterministic minimum-length route between two cells:
 * an empty route (no cells, no hops) when they are not connected.
 */
Route computeRoute(const Topology& topo, CellId sender, CellId receiver);

} // namespace syscomm
