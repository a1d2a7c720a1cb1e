// `sssp`: the paper's Figure 4 label-correcting SSSP on a sparse
// Erdős–Rényi graph.  It is insert-heavy, its keys are distances, and
// wasted pops turn relaxation into time.  It runs without the k-LSM's
// lazy deletion (sssp_lazy), which returns wrong distances now and then
// at T = 4 (see README); stale entries are popped and skipped instead.
//
// An operation is a node settlement; a node whose distance disagrees
// with the benchmark's own sequential Dijkstra counts as failed.
//
// Set-up builds the program's CSR graph from the generated edge list,
// the shared distance state and the queue: on 4 vCPUs the queue and the
// state alone take about 1.5 ms, too short a time to compare between runs.

#include <queue>
#include <string>
#include <vector>

#include "rounds.hpp"
#include "graph/parallel_sssp.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t nodes = 200000;
constexpr std::uint32_t mean_degree = 20;
constexpr std::uint32_t max_weight = 100000000;

class sssp {
public:
    using key_type = std::uint64_t;
    using value_type = std::uint32_t;

    /// An undirected graph: nodes * mean_degree / 2 uniformly random
    /// edges (no self loops), each stored in both directions, with
    /// weights uniform in [1, max_weight].
    explicit sssp(const options &o) {
        rng r(o.seed, 0);
        const std::size_t m = std::size_t{nodes} * mean_degree / 2;
        edges_.reserve(2 * m);
        while (edges_.size() < 2 * m) {
            const auto u = static_cast<std::uint32_t>(r.below(nodes));
            const auto v = static_cast<std::uint32_t>(r.below(nodes));
            if (u == v)
                continue;
            const auto w =
                static_cast<std::uint32_t>(1 + r.below(max_weight));
            edges_.push_back({u, v, w});
            edges_.push_back({v, u, w});
        }
        g_ = klsm::graph(nodes, edges_);
        reference();
    }

    void begin() {
        g_ = klsm::graph(); // free the old graph before building anew
        g_ = klsm::graph(nodes, edges_);
        state_ = std::make_unique<klsm::sssp_state>(nodes);
    }
    unsigned top_level() const {
        return klsm::block<key_type, value_type>::level_for(nodes);
    }

    /// The source's entry is pushed inside the timed solve.
    template <typename Q>
    void prepare(Q &) {}

    template <typename Q>
    outcome run(Q &q, unsigned threads, phase_kind) {
        outcome o;
        const op_counts before = q.settle();
        const std::uint64_t t0 = now_ns();
        last_ = klsm::parallel_sssp(q, g_, 0, threads, *state_);
        o.seconds = seconds_since(t0);
        o.calls = q.settle() - before;
        o.units = last_.expansions;
        // The solve ends on an empty queue: every entry pushed was popped.
        o.own_completed = 2 * (last_.expansions + last_.stale_pops);
        o.attempted = nodes;
        return o;
    }

    template <typename Q>
    void check(Q &, outcome &o) const {
        for (std::uint32_t u = 0; u < nodes; ++u)
            o.failed += state_->dist(u) != ref_[u];
        if (o.failed != 0)
            o.error = std::to_string(o.failed) +
                      " distances differ from Dijkstra";
    }

    void layer_metrics(report &r) const {
        const double useful = static_cast<double>(last_.expansions);
        r.set("sssp.expansions", useful, "count");
        r.set("sssp.stale_pops", static_cast<double>(last_.stale_pops),
              "count");
        r.set("sssp.useful_pop_frac",
              useful / (useful + static_cast<double>(last_.stale_pops)),
              "ratio");
    }

private:
    /// Sequential Dijkstra with a binary heap, apart from the library.
    void reference() {
        ref_.assign(nodes, klsm::sssp_unreached);
        using entry = std::pair<std::uint64_t, std::uint32_t>;
        std::priority_queue<entry, std::vector<entry>, std::greater<>> pq;
        ref_[0] = 0;
        pq.push({0, 0});
        while (!pq.empty()) {
            const auto [d, u] = pq.top();
            pq.pop();
            if (d > ref_[u])
                continue;
            const auto nb = g_.neighbors(u);
            const auto wt = g_.weights(u);
            for (std::size_t i = 0; i < nb.size(); ++i)
                if (d + wt[i] < ref_[nb[i]]) {
                    ref_[nb[i]] = d + wt[i];
                    pq.push({d + wt[i], nb[i]});
                }
        }
    }

    std::vector<klsm::edge> edges_;
    klsm::graph g_;
    std::vector<std::uint64_t> ref_;
    std::unique_ptr<klsm::sssp_state> state_;
    klsm::sssp_stats last_;
};

} // namespace

void run_sssp(const options &o, report &r) {
    sssp w(o);
    rounds<sssp>(w, o, r).run();
}

} // namespace perfbench
