#include "core/labeling.h"

#include <algorithm>
#include <cassert>

#include "core/related.h"

namespace syscomm {

std::vector<std::int64_t>
Labeling::normalized() const
{
    std::vector<Rational> distinct = labels;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    std::vector<std::int64_t> out(labels.size(), 0);
    for (std::size_t i = 0; i < labels.size(); ++i) {
        auto it = std::lower_bound(distinct.begin(), distinct.end(),
                                   labels[i]);
        out[i] = static_cast<std::int64_t>(it - distinct.begin()) + 1;
    }
    return out;
}

std::string
Labeling::str(const Program& program) const
{
    if (!success)
        return "<labeling failed: " + error + ">";
    std::string out;
    for (MessageId m = 0; m < program.numMessages(); ++m) {
        if (m)
            out += " ";
        out += program.message(m).name + "=" + labels[m].str();
    }
    return out;
}

namespace {

/** Mutable state of one labeling run. */
struct LabelerState
{
    const Program& program;
    UnionFind related;
    std::vector<std::optional<Rational>> labels;
    /** Label of the last message each cell accessed (crossed off). */
    std::vector<std::optional<Rational>> lastAccess;
    Rational maxLabel = Rational(0);

    explicit LabelerState(const Program& p)
        : program(p),
          related(computeRelatedClasses(p)),
          labels(p.numMessages()),
          lastAccess(p.numCells())
    {}

    /**
     * Set a label on @p msg and propagate it to every unlabeled member
     * of its related class (rule 1c; also applied after rule 1d so
     * relatedness is honored no matter which rule labels first).
     */
    void
    setLabelWithClass(MessageId msg, const Rational& label)
    {
        int root = related.find(msg);
        for (MessageId m = 0; m < program.numMessages(); ++m) {
            if (related.find(m) == root && !labels[m].has_value()) {
                labels[m] = label;
                if (label > maxLabel)
                    maxLabel = label;
            }
        }
    }
};

} // namespace

Labeling
labelMessages(const Program& program, const LabelingOptions& options)
{
    Labeling result;
    result.labels.assign(program.numMessages(), Rational(0));

    CrossOffOptions co;
    co.lookahead = options.lookahead;
    co.skip_bound = options.skip_bound;
    CrossOffEngine engine(program, co);

    LabelerState st(program);

    while (!engine.done()) {
        std::vector<PairEvent> pairs = engine.executablePairs();
        if (pairs.empty()) {
            result.error = "program is not deadlock-free; crossing-off "
                           "stuck with " +
                           std::to_string(engine.remainingOps()) +
                           " ops remaining";
            return result;
        }

        // Step 1: pick an executable pair. The paper leaves the choice
        // open ("how to pick an optimal one ... is an issue");
        // executablePairs() returns ascending message-id order, and
        // declaration order reproduces the paper's Fig. 7 labels.
        const PairEvent& pair = pairs.front();
        MessageId a = pair.msg;
        const MessageDecl& decl = program.message(a);

        if (!st.labels[a].has_value()) {
            // Messages either endpoint will still touch, with labels.
            std::vector<MessageId> future = engine.futureMessages(decl.sender);
            std::vector<MessageId> future_r =
                engine.futureMessages(decl.receiver);
            future.insert(future.end(), future_r.begin(), future_r.end());

            std::optional<Rational> upper;
            for (MessageId m : future) {
                if (m == a || !st.labels[m].has_value())
                    continue;
                if (!upper || *st.labels[m] < *upper)
                    upper = st.labels[m];
            }

            if (!upper) {
                // Rule 1a: fresh label above everything in use.
                st.setLabelWithClass(a,
                                     Rational(st.maxLabel.nextInteger()));
            } else {
                // Rule 1b: strictly between the endpoints' last access
                // and the smallest labeled future message.
                Rational lower(0);
                for (CellId cell : {decl.sender, decl.receiver}) {
                    if (st.lastAccess[cell] && *st.lastAccess[cell] > lower)
                        lower = *st.lastAccess[cell];
                }
                if (lower > *upper) {
                    result.error =
                        "rule 1b infeasible for message " + decl.name +
                        ": need a label in (" + lower.str() + ", " +
                        upper->str() + ")";
                    return result;
                }
                // Strictly between when possible; when the bounds
                // coincide the message shares that label (labels may
                // be shared — consistency only needs non-decreasing
                // sequences).
                st.setLabelWithClass(
                    a, lower == *upper ? lower
                                       : Rational::midpoint(lower, *upper));
            }
        }

        // Rule 1d (lookahead): skipped messages share A's label.
        for (MessageId skipped : pair.skippedMessages) {
            if (!st.labels[skipped].has_value())
                st.setLabelWithClass(skipped, *st.labels[a]);
        }

        // Steps 2-3: cross the pair off and continue.
        engine.crossOffPair(pair);
        st.lastAccess[decl.sender] = st.labels[a];
        st.lastAccess[decl.receiver] = st.labels[a];
    }

    for (MessageId m = 0; m < program.numMessages(); ++m) {
        assert(st.labels[m].has_value() &&
               "crossing-off completed, so every message was executed");
        result.labels[m] = *st.labels[m];
    }
    result.success = true;
    return result;
}

Labeling
trivialLabeling(const Program& program)
{
    Labeling result;
    result.success = true;
    result.labels.assign(program.numMessages(), Rational(1));
    return result;
}

DefaultLabeling
defaultLabeling(const Program& program)
{
    DefaultLabeling out;
    out.labeling = labelMessages(program);
    if (!out.labeling.success) {
        out.labeling = trivialLabeling(program);
        out.fellBack = true;
    }
    return out;
}

namespace {

/** Iterative Tarjan SCC over a dense-id digraph. */
class SccFinder
{
  public:
    explicit SccFinder(const std::vector<std::vector<int>>& adj)
        : adj_(adj),
          index_(adj.size(), -1),
          low_(adj.size(), 0),
          on_stack_(adj.size(), false),
          component_(adj.size(), -1)
    {
        for (int v = 0; v < static_cast<int>(adj.size()); ++v) {
            if (index_[v] < 0)
                run(v);
        }
    }

    int componentOf(int v) const { return component_[v]; }
    int numComponents() const { return num_components_; }

  private:
    struct Frame
    {
        int node;
        std::size_t next_edge;
    };

    void
    run(int root)
    {
        std::vector<Frame> frames{{root, 0}};
        push(root);
        while (!frames.empty()) {
            Frame& frame = frames.back();
            int v = frame.node;
            if (frame.next_edge < adj_[v].size()) {
                int w = adj_[v][frame.next_edge++];
                if (index_[w] < 0) {
                    push(w);
                    frames.push_back({w, 0});
                } else if (on_stack_[w]) {
                    low_[v] = std::min(low_[v], index_[w]);
                }
            } else {
                if (low_[v] == index_[v]) {
                    while (true) {
                        int w = stack_.back();
                        stack_.pop_back();
                        on_stack_[w] = false;
                        component_[w] = num_components_;
                        if (w == v)
                            break;
                    }
                    ++num_components_;
                }
                frames.pop_back();
                if (!frames.empty()) {
                    int parent = frames.back().node;
                    low_[parent] = std::min(low_[parent], low_[v]);
                }
            }
        }
    }

    void
    push(int v)
    {
        index_[v] = low_[v] = next_index_++;
        stack_.push_back(v);
        on_stack_[v] = true;
    }

    const std::vector<std::vector<int>>& adj_;
    std::vector<int> index_, low_;
    std::vector<bool> on_stack_;
    std::vector<int> component_;
    std::vector<int> stack_;
    int next_index_ = 0;
    int num_components_ = 0;
};

} // namespace

Labeling
graphLabeling(const Program& program)
{
    int n = program.numMessages();
    Labeling result;
    result.labels.assign(n, Rational(0));
    if (n == 0) {
        result.success = true;
        return result;
    }

    // Precedence edges: m1 -> m2 when some cell touches m1 directly
    // before m2. Related messages (section 6) also constrain equality:
    // add edges both ways so they fall into one component.
    std::vector<std::vector<int>> adj(n);
    for (CellId cell = 0; cell < program.numCells(); ++cell) {
        MessageId prev = kInvalidMessage;
        for (const Op& op : program.cellOps(cell)) {
            if (!op.isTransfer())
                continue;
            if (prev != kInvalidMessage && prev != op.msg)
                adj[prev].push_back(op.msg);
            prev = op.msg;
        }
    }
    UnionFind related = computeRelatedClasses(program);
    for (MessageId m = 0; m < n; ++m) {
        int root = related.find(m);
        if (root != m) {
            adj[m].push_back(root);
            adj[root].push_back(m);
        }
    }

    SccFinder scc(adj);

    // Kahn's algorithm over the condensation, always picking the
    // component containing the smallest message id — deterministic and
    // close to declaration order.
    int comps = scc.numComponents();
    std::vector<std::vector<int>> cadj(comps);
    std::vector<int> indegree(comps, 0);
    for (int v = 0; v < n; ++v) {
        for (int w : adj[v]) {
            int cv = scc.componentOf(v);
            int cw = scc.componentOf(w);
            if (cv != cw)
                cadj[cv].push_back(cw);
        }
    }
    for (int c = 0; c < comps; ++c) {
        std::sort(cadj[c].begin(), cadj[c].end());
        cadj[c].erase(std::unique(cadj[c].begin(), cadj[c].end()),
                      cadj[c].end());
        for (int w : cadj[c])
            ++indegree[w];
    }
    std::vector<int> smallest(comps, n);
    for (int v = 0; v < n; ++v) {
        smallest[scc.componentOf(v)] =
            std::min(smallest[scc.componentOf(v)], v);
    }

    std::vector<int> ready;
    for (int c = 0; c < comps; ++c) {
        if (indegree[c] == 0)
            ready.push_back(c);
    }
    auto by_smallest = [&](int a, int b) {
        return smallest[a] > smallest[b]; // min-heap by smallest member
    };
    std::make_heap(ready.begin(), ready.end(), by_smallest);

    std::vector<std::int64_t> comp_label(comps, 0);
    std::int64_t next_label = 1;
    int emitted = 0;
    while (!ready.empty()) {
        std::pop_heap(ready.begin(), ready.end(), by_smallest);
        int c = ready.back();
        ready.pop_back();
        comp_label[c] = next_label++;
        ++emitted;
        for (int w : cadj[c]) {
            if (--indegree[w] == 0) {
                ready.push_back(w);
                std::push_heap(ready.begin(), ready.end(), by_smallest);
            }
        }
    }
    assert(emitted == comps && "condensation is a DAG");
    (void)emitted;

    for (MessageId m = 0; m < n; ++m)
        result.labels[m] = Rational(comp_label[scc.componentOf(m)]);
    result.success = true;
    return result;
}

} // namespace syscomm
