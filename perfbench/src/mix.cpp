// `mix`: the shape of the paper's Figure 3.  A queue prefilled with 10^6
// uniform 32-bit keys runs a 50/50 insert/delete-min mix.  Each thread
// runs a fixed stream of operations rather than a fixed duration: as the
// minimum rises, more uniform inserts land below it and are served from
// the caller's own DistLSM, so a time window would measure a faster
// program on an easier workload.  With fixed streams both commits walk
// the same state trajectory.
//
// Check: prefill keys plus inserted keys equal deleted keys plus the
// keys drained at the end, as multisets (fingerprints of the benchmark's
// own record of the keys it generated).

#include <barrier>
#include <thread>
#include <vector>

#include "rounds.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t prefill_keys = 1000000;
constexpr std::size_t ops_per_thread = 1000000; ///< T = nproc
constexpr std::size_t ops_single = 2000000;     ///< T = 1
constexpr std::size_t ops_rank = 25000;        ///< per thread, serialised

/// One operation: bit 32 set = insert the low 32 bits, else delete-min.
using op = std::uint64_t;
constexpr op insert_bit = op{1} << 32;

class mix {
public:
    using key_type = std::uint32_t;
    using value_type = std::uint32_t;

    mix(const options &o) : threads_(o.threads) {
        rng r(o.seed, 0);
        prefill_.resize(prefill_keys);
        for (auto &k : prefill_) {
            k = static_cast<key_type>(r.next());
            prefill_fp_.add(k);
        }
        make_streams(multi_, threads_, ops_per_thread, o.seed, 1);
        make_streams(single_, 1, ops_single, o.seed, 1000);
    }

    void begin() {}
    unsigned top_level() const {
        return klsm::block<key_type, value_type>::level_for(prefill_keys);
    }
    void layer_metrics(report &) const {}

    template <typename Q>
    void prepare(Q &q) {
        auto h = q.get_handle();
        for (key_type k : prefill_)
            h.insert(k, k);
    }

    template <typename Q>
    outcome run(Q &q, unsigned threads, phase_kind kind) {
        const auto &streams = threads == 1 ? single_ : multi_;
        const std::size_t n = kind == phase_kind::rank
                                  ? ops_rank
                                  : streams[0].size();
        outcome o;
        const op_counts before = q.settle();
        std::vector<fingerprint> deleted(threads);
        std::vector<std::uint64_t> inserted(threads);
        std::barrier sync{static_cast<std::ptrdiff_t>(threads) + 1};
        std::vector<std::thread> ts;
        for (unsigned t = 0; t < threads; ++t)
            ts.emplace_back([&, t] {
                auto h = q.get_handle();
                const op *s = streams[t].data();
                key_type k;
                value_type v;
                fingerprint out; // thread-local: no shared cache lines
                std::uint64_t in = 0;
                sync.arrive_and_wait();
                for (std::size_t i = 0; i < n; ++i) {
                    if (s[i] & insert_bit) {
                        const auto key = static_cast<key_type>(s[i]);
                        h.insert(key, key);
                        ++in;
                    } else if (h.try_delete_min(k, v)) {
                        out.add(k);
                    }
                }
                deleted[t] = out;
                inserted[t] = in;
            });
        sync.arrive_and_wait();
        const std::uint64_t t0 = now_ns();
        for (auto &t : ts)
            t.join();
        o.seconds = seconds_since(t0);
        o.calls = q.settle() - before;
        for (unsigned t = 0; t < threads; ++t)
            o.own_completed += inserted[t] + deleted[t].n;
        o.units = o.calls.deletes;
        o.attempted = n * threads;
        o.failed = o.calls.empty;
        last_ = {&streams, n, kind, std::move(deleted)};
        return o;
    }

    /// The rank phase is checked by its mirror, key by key; draining
    /// a mirrored queue would rank 10^6 more deletes.
    template <typename Q>
    void check(Q &q, outcome &o) {
        if (last_.kind == phase_kind::measure)
            conserve(q, *last_.streams, last_.n, last_.deleted, o);
    }

private:
    struct last_run {
        const std::vector<std::vector<op>> *streams = nullptr;
        std::size_t n = 0;
        phase_kind kind = phase_kind::measure;
        std::vector<fingerprint> deleted;
    };

    static void make_streams(std::vector<std::vector<op>> &out,
                             unsigned threads, std::size_t n,
                             std::uint64_t seed, std::uint64_t id) {
        out.assign(threads, std::vector<op>(n));
        for (unsigned t = 0; t < threads; ++t) {
            rng r(seed, id + t);
            for (op &x : out[t]) {
                const std::uint64_t w = r.next();
                x = (w & 0xffffffffu) | ((w >> 63) ? insert_bit : 0);
            }
        }
    }

    template <typename Q>
    void conserve(Q &q, const std::vector<std::vector<op>> &streams,
                  std::size_t n, std::vector<fingerprint> &deleted,
                  outcome &o) const {
        fingerprint in = prefill_fp_;
        for (const auto &s : streams)
            for (std::size_t i = 0; i < n; ++i)
                if (s[i] & insert_bit)
                    in.add(static_cast<key_type>(s[i]));
        // Drain in parallel, then once more from this thread so that no
        // spurious empty answer can hide a key.
        std::vector<std::thread> ts;
        for (unsigned t = 0; t < deleted.size(); ++t)
            ts.emplace_back([&, t] {
                auto h = q.get_handle();
                key_type k;
                value_type v;
                fingerprint out;
                while (h.try_delete_min(k, v))
                    out.add(k);
                deleted[t].merge(out);
            });
        for (auto &t : ts)
            t.join();
        fingerprint out;
        {
            auto h = q.get_handle();
            key_type k;
            value_type v;
            while (h.try_delete_min(k, v))
                out.add(k);
        }
        for (const fingerprint &f : deleted)
            out.merge(f);
        if (!(in == out))
            o.error = "keys in (" + std::to_string(in.n) +
                      ") and keys out (" + std::to_string(out.n) +
                      ") differ as multisets";
    }

    unsigned threads_;
    std::vector<key_type> prefill_;
    fingerprint prefill_fp_;
    std::vector<std::vector<op>> multi_, single_;
    last_run last_;
};

} // namespace

void run_mix(const options &o, report &r) {
    mix w(o);
    rounds<mix>(w, o, r).run();
}

} // namespace perfbench
