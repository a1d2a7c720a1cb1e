#pragma once

// The round structure every workload shares.
//
// Untraced run (end-to-end metrics): whole rounds until --seconds is
// spent.  One round runs the workload on a fresh k_lsm at k = 256, with
// T = nproc and with T = 1.  Each metric is the median over the run's
// rounds.
//
// Traced run (per-layer metrics): one rank phase against an exact
// mirror, one k = 4096 phase, one primary phase under the program's own
// tracer, one layered replay, one dist_pq run and two layer
// micro-benchmarks, then pairs of an untraced and a timed primary phase
// until --seconds is spent.  The pairs give the timers' overhead.
//
// A workload W supplies:
//   key_type, value_type
//   void begin()                     fresh per-phase state (set-up)
//   void prepare(Q &q)               prefill or seeding (set-up)
//   outcome run(Q &q, T, kind)       the measured work; it fills
//                                    own_completed from its own tallies
//   void check(Q &q, outcome &)      the checks of the last run
//   unsigned top_level()             log2 of the workload's queue size
//   void layer_metrics(report &)     the workload's own telemetry

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "adapt/contention_monitor.hpp"
#include "baselines/multiqueue.hpp"
#include "baselines/spin_heap.hpp"
#include "common.hpp"
#include "harness/quality.hpp"
#include "klsm/block.hpp"
#include "klsm/k_lsm.hpp"
#include "mm/item_pool.hpp"
#include "queues.hpp"
#include "trace/tracer.hpp"

namespace perfbench {

struct options {
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool reference = false; ///< other structures, for the README only
    unsigned threads = 1;   ///< nproc
};

enum class phase_kind { measure, rank };

struct outcome {
    double seconds = 0;       ///< the measured work
    double setup_s = 0;       ///< construction plus prefill or seeding
    std::uint64_t units = 0;  ///< workload units completed
    op_counts calls;          ///< queue calls the handles counted
    /// Completed inserts and delete-mins by the workload's own tallies,
    /// kept apart from the handles' counts so each checks the other.
    std::uint64_t own_completed = 0;
    /// Inserts run() made to seed the queue: set-up, left out of calls.
    std::uint64_t seeded = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string error;

    std::uint64_t completed() const { return calls.inserts + calls.deletes; }
    double ops_per_s() const { return completed() / seconds; }
};

inline op_counts operator-(const op_counts &a, const op_counts &b) {
    return {a.inserts - b.inserts, a.deletes - b.deletes, a.empty - b.empty};
}

/// The k-LSM's relaxation for the primary configuration.
inline constexpr std::size_t primary_k = 256;

/// Telemetry a timed primary phase collects.
struct traced_extras {
    /// The workload's tally of the phase's completed calls, seeding too.
    std::uint64_t own_completed = 0;
    klsm::adapt::contention_window contention;
    klsm::mm::memory_stats memory;
    op_slot latency;
};

template <typename W>
class rounds {
public:
    using K = typename W::key_type;
    using V = typename W::value_type;
    using queue = klsm::k_lsm<K, V>;

    rounds(W &w, const options &o, report &r) : w_(w), o_(o), r_(r) {}

    void run() {
        if (o_.reference)
            reference();
        else if (o_.trace)
            traced();
        else
            untraced();
        if (!o_.trace)
            r_.set("peak_rss_mb", peak_rss_mb(), "MB");
    }

private:
    struct config {
        unsigned threads;
        std::size_t k;
    };

    /// One phase on a fresh k_lsm.  `ex` non-null: timed by the handles
    /// and monitored.  `tracer_ring` non-zero: the program's own tracer
    /// records the measured work into rings of that many events.
    outcome klsm_phase(config c, traced_extras *ex,
                       std::size_t tracer_ring = 0) {
        const std::uint64_t t0 = now_ns();
        w_.begin();
        auto q = std::make_unique<queue>(c.k);
        handles<queue> h(*q);
        w_.prepare(h);
        const double setup = seconds_since(t0);
        klsm::adapt::contention_monitor mon;
        if (ex != nullptr) {
            q->set_monitor(&mon);
            h.set_timing(true);
        }
        if (tracer_ring != 0) {
            klsm::trace::tracer::instance().reset();
            klsm::trace::tracer::instance().enable(tracer_ring);
        }
        outcome o = w_.run(h, c.threads, phase_kind::measure);
        klsm::trace::tracer::instance().disable();
        o.setup_s += setup;
        if (ex != nullptr) {
            h.set_timing(false);
            q->set_monitor(nullptr);
            h.settle();
            ex->own_completed = o.own_completed + o.seeded;
            ex->contention = mon.totals();
            ex->memory = q->memory_stats();
            ex->latency = h.merged();
        }
        w_.check(h, o);
        account("k_lsm", o);
        return o;
    }

    /// Rank phase: every call serialised and ranked against a mirror.
    outcome rank_phase(std::vector<std::uint32_t> &ranks) {
        w_.begin();
        auto q = std::make_unique<queue>(primary_k);
        mirrored<queue> m(
            *q, klsm::rank_error_bound(o_.threads, primary_k,
                                       q->max_buffer_depth_seen()));
        w_.prepare(m);
        outcome o = w_.run(m, o_.threads, phase_kind::rank);
        w_.check(m, o);
        if (!m.error().empty() && o.error.empty())
            o.error = m.error();
        ranks = m.ranks();
        if (ranks.empty() && o.error.empty())
            o.error = "no delete-min was ranked";
        account("rank phase", o);
        return o;
    }

    void account(const char *phase, const outcome &o) {
        r_.attempted += o.attempted;
        r_.failed += o.failed;
        if (!o.error.empty())
            r_.fail(std::string(phase) + ": " + o.error);
        else if (o.own_completed != o.completed())
            r_.fail(std::string(phase) + ": the workload completed " +
                    std::to_string(o.own_completed) +
                    " inserts and delete-mins, the handles counted " +
                    std::to_string(o.completed()));
    }

    static double mean(const std::vector<std::uint32_t> &v) {
        double s = 0;
        for (std::uint32_t x : v)
            s += x;
        return v.empty() ? 0.0 : s / static_cast<double>(v.size());
    }

    bool time_left(std::uint64_t start, double last) const {
        return seconds_since(start) + last <= o_.seconds;
    }

    void untraced() {
        const config primary{o_.threads, primary_k};
        const config one{1, primary_k};
        const std::uint64_t start = now_ns();
        std::vector<double> ops, ops_1t, solve, events, setup;
        double last = 0;
        do {
            const std::uint64_t r0 = now_ns();
            const outcome a = klsm_phase(primary, nullptr);
            const outcome b = klsm_phase(one, nullptr);
            ops.push_back(a.ops_per_s());
            ops_1t.push_back(b.ops_per_s());
            solve.push_back(a.seconds);
            events.push_back(static_cast<double>(a.units) / a.seconds);
            setup.push_back(a.setup_s + b.setup_s);
            last = seconds_since(r0);
            std::printf("round %zu: %.2f s; measured %.3f / %.3f s, "
                        "set-up %.3f s\n",
                        ops.size(), last, a.seconds, b.seconds,
                        setup.back());
            std::fflush(stdout);
        } while (r_.error.empty() && time_left(start, last));
        r_.set("ops_per_s", median(ops), "ops/s");
        r_.set("ops_per_s_1t", median(ops_1t), "ops/s");
        r_.set("solve_s", median(solve), "s");
        r_.set("events_per_s", median(events), "events/s");
        r_.set("setup_s", median(setup), "s");
    }

    void traced() {
        const std::uint64_t start = now_ns();
        const config primary{o_.threads, primary_k};

        // Every per-layer metric is present in every traced run; the
        // workload overwrites its own telemetry below.
        r_.set("sssp.expansions", 0, "count");
        r_.set("sssp.stale_pops", 0, "count");
        r_.set("sssp.useful_pop_frac", 0, "ratio");
        r_.set("des.violations", 0, "count");
        r_.set("des.failed_pops", 0, "count");

        std::vector<std::uint32_t> ranks;
        rank_phase(ranks);
        std::sort(ranks.begin(), ranks.end());
        r_.set("k_lsm.rank_error_p99",
               ranks.empty() ? 0 : ranks[(ranks.size() - 1) * 99 / 100],
               "ranks");
        r_.set("k_lsm.rank_error_max", ranks.empty() ? 0 : ranks.back(),
               "ranks");
        r_.set("k_lsm.rank_error_mean", mean(ranks), "ranks");

        // k = 4096 is bimodal on the mix (see README), so it is a layer
        // figure without a bound rather than an end-to-end metric.
        r_.set("k_lsm.ops_per_s_k4096",
               klsm_phase({o_.threads, 4096}, nullptr).ops_per_s(), "ops/s");
        const std::uint64_t tracer_dropped = program_spans(primary);
        layers(primary);
        ceiling(primary);
        r_.set("block.merge_ns_per_item", merge_ns_per_item(), "ns");
        r_.set("mm.item_alloc_ns", item_alloc_ns(), "ns");

        std::vector<double> plain, timed;
        traced_extras sum, ex;
        std::uint64_t own_completed = 0;
        double last = 0;
        do {
            const std::uint64_t p0 = now_ns();
            plain.push_back(klsm_phase(primary, nullptr).seconds);
            const outcome o = klsm_phase(primary, &ex);
            timed.push_back(o.seconds);
            own_completed += ex.own_completed;
            sum.contention.publishes += ex.contention.publishes;
            sum.contention.publish_retries += ex.contention.publish_retries;
            sum.contention.local_hits += ex.contention.local_hits;
            sum.contention.shared_hits += ex.contention.shared_hits;
            sum.contention.spies += ex.contention.spies;
            sum.latency.insert_ns.merge(ex.latency.insert_ns);
            sum.latency.delete_ns.merge(ex.latency.delete_ns);
            w_.layer_metrics(r_);
            last = seconds_since(p0);
        } while (r_.error.empty() && time_left(start, last));

        const op_slot &lat = sum.latency;
        r_.set("k_lsm.insert_ns_p50", lat.insert_ns.quantile(0.50), "ns");
        r_.set("k_lsm.insert_ns_p99", lat.insert_ns.quantile(0.99), "ns");
        r_.set("k_lsm.delete_min_ns_p50", lat.delete_ns.quantile(0.50), "ns");
        r_.set("k_lsm.delete_min_ns_p99", lat.delete_ns.quantile(0.99), "ns");
        const klsm::adapt::contention_window &c = sum.contention;
        r_.set("k_lsm.local_hit_frac",
               static_cast<double>(c.local_hits) /
                   static_cast<double>(c.local_hits + c.shared_hits),
               "ratio");
        r_.set("k_lsm.spies", static_cast<double>(c.spies), "count");
        r_.set("shared_lsm.publishes", static_cast<double>(c.publishes),
               "count");
        r_.set("shared_lsm.publish_retries",
               static_cast<double>(c.publish_retries), "count");
        r_.set("dist_lsm.spills_per_kinsert",
               1000.0 * static_cast<double>(c.publishes) /
                   static_cast<double>(lat.insert_ns.count()),
               "count");
        const klsm::mm::memory_stats &m = ex.memory;
        r_.set("mm.items_mb", m.items.bytes / 1e6, "MB");
        r_.set("mm.dist_blocks_mb", m.dist_blocks.bytes / 1e6, "MB");
        r_.set("mm.shared_blocks_mb", m.shared_blocks.bytes / 1e6, "MB");
        // Timer samples against the workloads' own tallies of completed
        // calls, plus the events the program's tracer lost to wrap-around.
        const std::uint64_t samples =
            lat.insert_ns.count() + lat.delete_ns.count();
        r_.set("trace.samples", static_cast<double>(samples), "count");
        r_.set("trace.dropped_samples",
               static_cast<double>(own_completed) -
                   static_cast<double>(samples) +
                   static_cast<double>(tracer_dropped),
               "count");
        r_.set("trace.overhead_frac", median(timed) / median(plain) - 1.0,
               "ratio");
    }

    /// Other structures on the same workload, T = nproc and T = 1: the
    /// README's reference figures (median ops/s of three phases each).
    void reference() {
        reference_on<klsm::dist_pq<K, V>>("dlsm", [] {
            return std::make_unique<klsm::dist_pq<K, V>>();
        });
        reference_on<klsm::multiqueue<K, V>>("multiqueue", [this] {
            return std::make_unique<klsm::multiqueue<K, V>>(o_.threads);
        });
        reference_on<klsm::spin_heap<K, V>>("heap", [] {
            return std::make_unique<klsm::spin_heap<K, V>>();
        });
    }

    template <typename PQ, typename Make>
    void reference_on(const char *name, Make make) {
        for (unsigned threads : {o_.threads, 1u}) {
            std::vector<double> ops;
            for (int rep = 0; rep < 3; ++rep) {
                w_.begin();
                auto q = make();
                handles<PQ> h(*q);
                w_.prepare(h);
                outcome o = w_.run(h, threads, phase_kind::measure);
                w_.check(h, o);
                account(name, o);
                ops.push_back(o.ops_per_s());
            }
            std::printf("reference %-10s T=%u %.4g ops/s\n", name, threads,
                        median(ops));
            std::fflush(stdout);
        }
    }

    /// One primary phase with the program's tracer on: the durations of
    /// shared_lsm::insert it records itself (trace::kind::shared_publish).
    /// Returns the events its rings lost.
    std::uint64_t program_spans(config c) {
        // Each thread records about one event per queue call, up to 1.5M
        // per thread on des: 2^21 events (32 MiB) per ring drop none.
        constexpr std::size_t ring_events = std::size_t{1} << 21;
        klsm_phase(c, nullptr, ring_events);
        klsm::trace::tracer &tr = klsm::trace::tracer::instance();
        klsm::trace::tracer::drain_stats ds;
        histogram publish_ns;
        for (const auto &e : tr.drain_sorted(&ds))
            if (e.ev.kind_ == static_cast<std::uint16_t>(
                                  klsm::trace::kind::shared_publish))
                publish_ns.add(e.ev.b);
        tr.reset();
        r_.set("shared_lsm.publish_us_p50", publish_ns.quantile(0.5) / 1e3,
               "us");
        r_.set("shared_lsm.publish_us_p99",
               publish_ns.quantile(0.99) / 1e3, "us");
        return ds.dropped;
    }

    /// The layered replay: the layer calls the program does not time.
    void layers(config c) {
        w_.begin();
        auto lq = std::make_unique<layered<K, V>>(c.k);
        {
            handles<layered<K, V>> h(*lq);
            w_.prepare(h);
            outcome o = w_.run(h, c.threads, phase_kind::measure);
            w_.check(h, o);
            account("layered replay", o);
        }
        const layer_slot s = lq->merged();
        r_.set("dist_lsm.insert_ns",
               static_cast<double>(s.dist_insert_ns) /
                   static_cast<double>(s.dist_inserts),
               "ns");
        r_.set("shared_lsm.find_min_ns_p50", s.find_min_ns.quantile(0.5),
               "ns");
    }

    /// dist_pq alone (the k-LSM without its shared component).
    void ceiling(config c) {
        w_.begin();
        auto dq = std::make_unique<klsm::dist_pq<K, V>>();
        handles<klsm::dist_pq<K, V>> h(*dq);
        w_.prepare(h);
        outcome o = w_.run(h, c.threads, phase_kind::measure);
        w_.check(h, o);
        account("dist_pq", o);
        r_.set("dist_lsm.ops_per_s", o.ops_per_s(), "ops/s");
    }

    /// block::merge_from on pairs of equal blocks at every level from a
    /// spilled block (k + 1 items) up to the workload's queue size.
    double merge_ns_per_item() {
        const std::uint32_t lo = klsm::block<K, V>::level_for(primary_k + 1);
        const std::uint32_t hi = w_.top_level();
        klsm::item_pool<K, V> items;
        rng r(o_.seed, 0xb10c);
        std::vector<double> reps(5, 0.0);
        std::uint64_t per_rep = 0;
        for (std::uint32_t l = lo; l < hi; ++l) {
            const std::uint32_t n = 1u << l;
            klsm::block<K, V> a(l), b(l), out(l + 1);
            for (klsm::block<K, V> *blk : {&a, &b}) {
                std::vector<K> keys(n);
                for (K &k : keys)
                    k = static_cast<K>(r.next());
                std::sort(keys.begin(), keys.end(), std::greater<K>());
                blk->reuse_begin(l);
                for (const K &k : keys)
                    blk->append(items.allocate(k, V{}));
                blk->seal();
            }
            per_rep += 2u * n;
            for (std::size_t rep = 0; rep <= reps.size(); ++rep) {
                out.reuse_begin(l + 1);
                const std::uint64_t t0 = now_ns();
                out.merge_from(a, a.filled(), b, b.filled());
                const std::uint64_t dt = now_ns() - t0;
                out.seal();
                if (rep > 0) // the first merge touches `out`'s pages
                    reps[rep - 1] += static_cast<double>(dt);
            }
        }
        return median(reps) / static_cast<double>(per_rep);
    }

    /// item_pool::allocate, fresh and then recycling, per call.
    double item_alloc_ns() {
        constexpr std::size_t n = std::size_t{1} << 20;
        std::vector<double> reps;
        std::vector<klsm::item_ref<K, V>> refs(n);
        for (int rep = 0; rep < 3; ++rep) {
            klsm::item_pool<K, V> pool;
            std::uint64_t t0 = now_ns();
            for (std::size_t i = 0; i < n; ++i)
                refs[i] = pool.allocate(static_cast<K>(i), V{});
            std::uint64_t ns = now_ns() - t0;
            for (auto &ref : refs)
                ref.take();
            t0 = now_ns();
            for (std::size_t i = 0; i < n; ++i)
                refs[i] = pool.allocate(static_cast<K>(i), V{});
            ns += now_ns() - t0;
            reps.push_back(static_cast<double>(ns) / (2.0 * n));
        }
        return median(reps);
    }

    W &w_;
    const options &o_;
    report &r_;
};

} // namespace perfbench
