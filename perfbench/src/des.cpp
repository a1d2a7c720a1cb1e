// `des`: PHOLD from workloads/des.hpp.  The queue is small and hot
// (8192 events in flight) and its keys rise with virtual time, so the
// DistLSM local path and spying do the work; the large-block shared_lsm
// path and the pools do almost none.
//
// Check: committed events reach the target, and the final drain returns
// exactly population + scheduled - committed events.

#include <string>

#include "rounds.hpp"
#include "workloads.hpp"
#include "workloads/des.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t lps = 256;
constexpr std::uint32_t population = 8192;
constexpr std::uint64_t target_events = 3000000;
constexpr std::uint64_t target_rank = 200000; ///< serialised phase

class des {
public:
    using key_type = std::uint64_t;
    using value_type = std::uint64_t;

    /// PHOLD draws its events from one seed; the benchmark derives it.
    explicit des(const options &o) : seed_(rng(o.seed, 0).next()) {}

    void begin() {}
    unsigned top_level() const {
        return klsm::block<key_type, value_type>::level_for(population);
    }

    /// Seeding happens inside run_des, where it is timed as set-up.
    template <typename Q>
    void prepare(Q &) {}

    template <typename Q>
    outcome run(Q &q, unsigned threads, phase_kind kind) {
        klsm::workloads::des_params p;
        p.lps = lps;
        p.population = population;
        p.target_events =
            kind == phase_kind::rank ? target_rank : target_events;
        p.threads = threads;
        p.seed = seed_;
        outcome o;
        const op_counts before = q.settle();
        const std::uint64_t t0 = now_ns();
        last_ = klsm::workloads::run_des(q, p);
        o.setup_s = seconds_since(t0) - last_.elapsed_s;
        o.seconds = last_.elapsed_s;
        o.calls = q.settle() - before;
        o.calls.inserts -= population; // the seeding is set-up
        o.seeded = population;
        o.units = last_.committed;
        o.own_completed = last_.scheduled + last_.committed;
        o.attempted = o.calls.inserts + o.calls.deletes + o.calls.empty;
        o.failed = o.calls.empty;
        target_ = p.target_events;
        return o;
    }

    template <typename Q>
    void check(Q &q, outcome &o) const {
        std::uint64_t drained = 0;
        {
            auto h = q.get_handle();
            key_type k;
            value_type v;
            while (h.try_delete_min(k, v))
                ++drained;
        }
        const std::uint64_t expect =
            population + last_.scheduled - last_.committed;
        if (last_.committed < target_)
            o.error = "committed " + std::to_string(last_.committed) +
                      " events, target " + std::to_string(target_);
        else if (drained != expect)
            o.error = "drained " + std::to_string(drained) +
                      " events, expected " + std::to_string(expect);
    }

    void layer_metrics(report &r) const {
        r.set("des.violations", static_cast<double>(last_.violations),
              "count");
        r.set("des.failed_pops", static_cast<double>(last_.failed_pops),
              "count");
    }

private:
    std::uint64_t seed_;
    std::uint64_t target_ = 0;
    klsm::workloads::des_result last_;
};

} // namespace

void run_des(const options &o, report &r) {
    des w(o);
    rounds<des>(w, o, r).run();
}

} // namespace perfbench
