#include "sim/trace.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "core/competing.h"

namespace syscomm::sim {

RunLog::RunLog(const Program& program)
    : msgTiming(program.numMessages(), {-1, -1}),
      received(program.numMessages()),
      program_(&program)
{
    // A message delivers exactly messageLength words, so a reused log
    // records its values without allocating.
    for (MessageId m = 0; m < program.numMessages(); ++m)
        received[m].reserve(
            static_cast<std::size_t>(program.messageLength(m)));
}

void
RunLog::clear()
{
    events.clear();
    releases.clear();
    std::fill(msgTiming.begin(), msgTiming.end(),
              std::pair<Cycle, Cycle>{-1, -1});
    for (std::vector<double>& values : received)
        values.clear();
}

void
RunLog::onAssign(const AssignmentEvent& event)
{
    events.push_back(event);
}

void
RunLog::onRelease(const AssignmentEvent& event)
{
    releases.push_back(event);
}

void
RunLog::onSend(MessageId msg, int seq, double value, Cycle now)
{
    (void)value;
    if (seq == 0)
        msgTiming[msg].first = now;
}

void
RunLog::onDeliver(MessageId msg, int seq, double value, Cycle now)
{
    received[msg].push_back(value);
    if (seq + 1 == program_->messageLength(msg))
        msgTiming[msg].second = now;
}

bool
RunLog::operator==(const RunLog& other) const
{
    return events == other.events && releases == other.releases &&
           msgTiming == other.msgTiming && received == other.received;
}

std::string
renderQueueTimeline(const RunLog& log, Cycle cycles, const Program& program,
                    const MachineSpec& spec, int max_width)
{
    Cycle span = std::max<Cycle>(cycles, 1);
    Cycle step = std::max<Cycle>(1, (span + max_width - 1) / max_width);
    int columns = static_cast<int>((span + step - 1) / step);

    // Occupancy per (link, queue): fill assignment intervals.
    std::map<std::pair<LinkIndex, int>, std::string> rows;
    for (LinkIndex l = 0; l < spec.topo.numLinks(); ++l) {
        for (int q = 0; q < spec.queuesPerLink; ++q)
            rows[{l, q}] = std::string(columns, '.');
    }
    // Match assignments with releases per (link, queue) in time order.
    std::map<std::pair<LinkIndex, int>, std::vector<const AssignmentEvent*>>
        assigns, releases;
    for (const AssignmentEvent& ev : log.events)
        assigns[{ev.link, ev.queueId}].push_back(&ev);
    for (const AssignmentEvent& ev : log.releases)
        releases[{ev.link, ev.queueId}].push_back(&ev);

    for (auto& [key, list] : assigns) {
        const auto& rel = releases[key];
        for (std::size_t i = 0; i < list.size(); ++i) {
            Cycle from = list[i]->cycle;
            Cycle to = i < rel.size() ? rel[i]->cycle : span;
            char letter = program.message(list[i]->msg).name[0];
            for (Cycle t = from; t <= to && t <= span; t += 1) {
                int col = static_cast<int>(t / step);
                if (col >= columns)
                    col = columns - 1;
                rows[key][col] = letter;
            }
        }
    }

    std::ostringstream os;
    os << "queue occupancy (1 column ~ " << step << " cycle"
       << (step > 1 ? "s" : "") << ", '.' = free)\n";
    for (const auto& [key, text] : rows) {
        const Link& link = spec.topo.link(key.first);
        os << "link " << link.a << "-" << link.b << " q" << key.second
           << ": " << text << "\n";
    }
    return os.str();
}

std::string
renderMessageLatencies(const RunLog& log, const Program& program)
{
    std::ostringstream os;
    os << "message   first-sent  last-recv   span\n";
    for (MessageId m = 0; m < program.numMessages(); ++m) {
        auto [sent, received] = log.msgTiming[m];
        os << program.message(m).name;
        for (std::size_t pad = program.message(m).name.size(); pad < 10;
             ++pad) {
            os << ' ';
        }
        if (sent < 0) {
            os << "(never sent)\n";
            continue;
        }
        os << sent << "\t    " << received << "\t"
           << (received >= sent ? received - sent : -1) << "\n";
    }
    return os.str();
}

Cycle
idealCycles(const Program& program, const Topology& topo)
{
    auto analysis = CompetingAnalysis::analyze(program, topo);
    std::int64_t total_words = 0;
    for (MessageId m = 0; m < program.numMessages(); ++m)
        total_words += program.messageLength(m);

    MachineSpec spec;
    spec.topo = topo;
    spec.queuesPerLink = std::max(1, analysis.maxOnLink());
    spec.queueCapacity =
        std::max<int>(1, static_cast<int>(std::min<std::int64_t>(
                             total_words, 1 << 20)));
    // Unobserved run: idealCycles only needs the cycle count, and
    // the static policy never needs labels, so none are computed.
    SimSession session(program, spec);
    RunRequest request;
    request.policy = PolicyKind::kStatic;
    RunResult r = session.run(request);
    return r.status == RunStatus::kCompleted ? r.cycles : -1;
}

} // namespace syscomm::sim
