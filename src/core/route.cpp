#include "core/route.h"

#include <cassert>

namespace syscomm {

std::string
Route::str() const
{
    std::string out;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i)
            out += " -> ";
        out += std::to_string(cells[i]);
    }
    return out;
}

Route
computeRoute(const Topology& topo, CellId sender, CellId receiver)
{
    Route route;
    route.cells = topo.routePath(sender, receiver);
    for (std::size_t i = 0; i + 1 < route.cells.size(); ++i) {
        CellId from = route.cells[i];
        CellId to = route.cells[i + 1];
        auto link = topo.linkBetween(from, to);
        assert(link.has_value());
        Hop hop;
        hop.link = *link;
        hop.from = from;
        hop.to = to;
        hop.dir = topo.directionFrom(*link, from);
        route.hops.push_back(hop);
    }
    return route;
}

} // namespace syscomm
