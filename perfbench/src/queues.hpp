#pragma once

// Queue adaptors the workloads run through.
//
//   handles<PQ>   every operation goes through the queue's per-thread
//                 handle (klsm::pq_handle).  It counts completed and
//                 failed calls, and in traced runs times each completed
//                 call into a per-thread histogram.  Untraced and traced
//                 runs take the same path apart from the clock reads.
//   mirrored<PQ>  serialises every call under one lock and mirrors it
//                 into an exact multiset, so each delete-min's rank is
//                 known exactly (the method of harness/quality.hpp).
//   layered<...>  the k-LSM's composition rebuilt from its layers'
//                 public classes (dist_lsm_local, shared_lsm), so the
//                 layer calls the program does not time itself can be
//                 timed from outside the library.  Traced runs only.
//
// Per-thread state written inside timed loops sits on its own cache
// lines, so the benchmark's bookkeeping adds no false sharing.

#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"
#include "klsm/dist_lsm.hpp"
#include "klsm/pq_concept.hpp"
#include "klsm/shared_lsm.hpp"
#include "util/slot_directory.hpp"
#include "util/spin_lock.hpp"
#include "util/thread_id.hpp"

namespace perfbench {

/// Latency histograms of one thread slot (traced runs).
struct alignas(64) op_slot {
    histogram insert_ns;
    histogram delete_ns;
};

struct op_counts {
    std::uint64_t inserts = 0;
    std::uint64_t deletes = 0; ///< successful delete-mins
    std::uint64_t empty = 0;   ///< delete-mins that returned empty
};

template <typename PQ>
class handles {
public:
    using key_type = typename PQ::key_type;
    using value_type = typename PQ::value_type;
    using inner_handle = decltype(klsm::pq_handle(std::declval<PQ &>()));

    explicit handles(PQ &q)
        : q_(&q), per_thread_(klsm::max_registered_threads) {}

    /// Handles made from now on time every call (traced runs), or not.
    void set_timing(bool on) {
        if (on && slots_.empty())
            slots_.resize(klsm::max_registered_threads);
        timing_ = on;
    }

    handles(const handles &) = delete;
    handles &operator=(const handles &) = delete;

    class handle {
    public:
        handle(handles &owner, inner_handle h, op_slot *slot)
            : owner_(&owner), h_(std::move(h)), slot_(slot) {}
        handle(handle &&o) noexcept
            : owner_(o.owner_), h_(std::move(o.h_)), slot_(o.slot_),
              c_(o.c_) {
            o.owner_ = nullptr;
        }
        handle(const handle &) = delete;
        handle &operator=(const handle &) = delete;
        handle &operator=(handle &&) = delete;
        ~handle() {
            if (owner_ != nullptr) {
                h_.flush();
                owner_->add(c_);
            }
        }

        void insert(const key_type &k, const value_type &v) {
            ++c_.inserts;
            if (slot_ == nullptr) {
                h_.insert(k, v);
                return;
            }
            const std::uint64_t t0 = now_ns();
            h_.insert(k, v);
            slot_->insert_ns.add(now_ns() - t0);
        }

        /// Only successful delete-mins are timed; empty ones are counted.
        bool try_delete_min(key_type &k, value_type &v) {
            bool ok;
            if (slot_ == nullptr) {
                ok = h_.try_delete_min(k, v);
            } else {
                const std::uint64_t t0 = now_ns();
                ok = h_.try_delete_min(k, v);
                if (ok)
                    slot_->delete_ns.add(now_ns() - t0);
            }
            ++(ok ? c_.deletes : c_.empty);
            return ok;
        }

        void flush() { h_.flush(); }

    private:
        handles *owner_;
        inner_handle h_;
        op_slot *slot_;
        op_counts c_;
    };

    handle get_handle() {
        op_slot *slot = timing_ ? &slots_[klsm::thread_index()] : nullptr;
        return handle(*this, klsm::pq_handle(*q_), slot);
    }

    // Direct calls (parallel_sssp calls the queue, not a handle): each
    // calling thread gets its own handle, kept until settle().
    void insert(const key_type &k, const value_type &v) {
        mine().insert(k, v);
    }
    bool try_delete_min(key_type &k, value_type &v) {
        return mine().try_delete_min(k, v);
    }

    /// Flush and retire the direct-call handles, then return the call
    /// counts of every handle retired so far.  Callers must have joined
    /// every thread that used this adaptor.
    op_counts settle() {
        for (auto &h : per_thread_)
            h.h.reset();
        std::lock_guard<std::mutex> g(mtx_);
        return counts_;
    }

    /// Merged latency histograms (traced runs; settle() first).
    op_slot merged() const {
        op_slot out;
        for (const op_slot &s : slots_) {
            out.insert_ns.merge(s.insert_ns);
            out.delete_ns.merge(s.delete_ns);
        }
        return out;
    }

private:
    handle &mine() {
        std::optional<handle> &h = per_thread_[klsm::thread_index()].h;
        if (!h)
            h.emplace(get_handle());
        return *h;
    }

    void add(const op_counts &c) {
        std::lock_guard<std::mutex> g(mtx_);
        counts_.inserts += c.inserts;
        counts_.deletes += c.deletes;
        counts_.empty += c.empty;
    }

    PQ *q_;
    bool timing_ = false;
    std::vector<op_slot> slots_;
    std::mutex mtx_;
    op_counts counts_;
    struct alignas(64) padded_handle {
        std::optional<handle> h;
    };
    std::vector<padded_handle> per_thread_;
};

/// Exact rank of every delete-min against a serialised mirror.
template <typename PQ>
class mirrored {
public:
    using key_type = typename PQ::key_type;
    using value_type = typename PQ::value_type;

    /// `rho`: the hard rank bound every delete-min must meet.
    mirrored(PQ &q, std::uint64_t rho) : q_(&q), rho_(rho) {}

    mirrored(const mirrored &) = delete;
    mirrored &operator=(const mirrored &) = delete;

    class handle {
    public:
        explicit handle(mirrored &m) : m_(&m), h_(klsm::pq_handle(*m.q_)) {}

        void insert(const key_type &k, const value_type &v) {
            std::lock_guard<klsm::spin_lock> g(m_->mtx_);
            h_.insert(k, v);
            m_->mirror_.insert(k);
            ++m_->counts_.inserts;
        }

        bool try_delete_min(key_type &k, value_type &v) {
            std::lock_guard<klsm::spin_lock> g(m_->mtx_);
            if (!h_.try_delete_min(k, v)) {
                ++m_->counts_.empty;
                return false;
            }
            ++m_->counts_.deletes;
            m_->rank_locked(k);
            return true;
        }

        void flush() {
            std::lock_guard<klsm::spin_lock> g(m_->mtx_);
            h_.flush();
        }

    private:
        mirrored *m_;
        decltype(klsm::pq_handle(std::declval<PQ &>())) h_;
    };

    handle get_handle() { return handle(*this); }

    void insert(const key_type &k, const value_type &v) {
        mine().insert(k, v);
    }
    bool try_delete_min(key_type &k, value_type &v) {
        return mine().try_delete_min(k, v);
    }

    /// Retire direct-call handles; call after every user thread joined.
    op_counts settle() {
        for (auto &h : per_thread_)
            h.reset();
        return counts_;
    }

    const std::vector<std::uint32_t> &ranks() const { return ranks_; }
    const std::string &error() const { return error_; }

private:
    void rank_locked(const key_type &k) {
        const auto it = mirror_.lower_bound(k);
        if (it == mirror_.end() || *it != k) {
            if (error_.empty())
                error_ = "delete-min returned a key that was never "
                         "inserted or was already deleted";
            return;
        }
        const auto rank =
            static_cast<std::uint64_t>(std::distance(mirror_.begin(), it));
        if (rank > rho_ && error_.empty())
            error_ = "rank error " + std::to_string(rank) +
                     " exceeds rho = " + std::to_string(rho_);
        ranks_.push_back(static_cast<std::uint32_t>(rank));
        mirror_.erase(it);
    }

    handle &mine() {
        std::optional<handle> &h = per_thread_[klsm::thread_index()];
        if (!h)
            h.emplace(*this);
        return *h;
    }

    PQ *q_;
    std::uint64_t rho_;
    klsm::spin_lock mtx_; // a sleeping lock would let the scheduler pick the order
    std::multiset<key_type> mirror_;
    std::vector<std::uint32_t> ranks_;
    op_counts counts_;
    std::string error_;
    std::vector<std::optional<handle>> per_thread_ =
        std::vector<std::optional<handle>>(klsm::max_registered_threads);
};

/// Per-thread timings of the layered replay.
struct alignas(64) layer_slot {
    histogram find_min_ns; ///< shared_lsm::find_min
    std::uint64_t dist_insert_ns = 0; ///< dist_lsm insert, spill excluded
    std::uint64_t dist_inserts = 0;
};

/// k_lsm's insert / try_delete_min / spy (src/klsm/k_lsm.hpp), written
/// against the public layer classes so that the layer calls the program
/// does not time itself can be timed from outside the library: the
/// DistLSM insert and the shared find_min.  The shared publish is timed
/// by the program (trace::kind::shared_publish) and read from its
/// tracer instead.  Any change to those three k_lsm functions must be
/// made here too; the replay runs every check the workload has.
template <typename K, typename V>
class layered {
public:
    using key_type = K;
    using value_type = V;

    explicit layered(std::size_t k)
        : k_(k), shared_(k), slots_(klsm::max_registered_threads) {
        for (auto &d : dist_)
            d = std::make_unique<klsm::dist_lsm_local<K, V>>();
    }

    layered(const layered &) = delete;
    layered &operator=(const layered &) = delete;

    void insert(const K &key, const V &value) {
        const std::uint32_t slot = dir_.register_self();
        layer_slot &s = slots_[slot];
        std::uint64_t spill_ns = 0;
        const std::uint64_t t0 = now_ns();
        dist_[slot]->insert(
            key, value, slot, k_, lazy_,
            [&](klsm::block<K, V> *b, std::uint32_t filled) {
                const std::uint64_t p0 = now_ns();
                shared_.insert(b, filled, lazy_);
                spill_ns = now_ns() - p0;
            });
        s.dist_insert_ns += now_ns() - t0 - spill_ns;
        ++s.dist_inserts;
    }

    bool try_delete_min(K &key, V &value) {
        const std::uint32_t slot = dir_.register_self();
        layer_slot &s = slots_[slot];
        klsm::dist_lsm_local<K, V> &mine = *dist_[slot];
        do {
            for (;;) {
                klsm::item_ref<K, V> cand = mine.find_min(lazy_);
                const std::uint64_t t0 = now_ns();
                klsm::item_ref<K, V> sc = shared_.find_min(slot, lazy_);
                s.find_min_ns.add(now_ns() - t0);
                if (!sc.empty() && (cand.empty() || sc.key < cand.key))
                    cand = sc;
                if (cand.empty())
                    break;
                const V v = cand.it->value();
                if (cand.take()) {
                    key = cand.key;
                    value = v;
                    return true;
                }
            }
        } while (spy(slot));
        return false;
    }

    /// Merged timings; call after every user thread joined.
    layer_slot merged() const {
        layer_slot out;
        for (const layer_slot &s : slots_) {
            out.find_min_ns.merge(s.find_min_ns);
            out.dist_insert_ns += s.dist_insert_ns;
            out.dist_inserts += s.dist_inserts;
        }
        return out;
    }

private:
    /// Random victim first, then one sweep over the other slots.
    bool spy(std::uint32_t slot) {
        const std::size_t cap = k_ > 0 ? k_ : 1;
        const std::uint32_t victim = dir_.random_victim(slot);
        if (victim < klsm::max_registered_threads && victim != slot &&
            dist_[slot]->spy_from(*dist_[victim], cap))
            return true;
        const std::uint32_t n = dir_.size();
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint32_t v = dir_.at(i);
            if (v != slot && v != victim &&
                dist_[slot]->spy_from(*dist_[v], cap))
                return true;
        }
        return false;
    }

    std::size_t k_;
    klsm::no_lazy lazy_;
    klsm::shared_lsm<K, V> shared_;
    std::unique_ptr<klsm::dist_lsm_local<K, V>>
        dist_[klsm::max_registered_threads];
    klsm::slot_directory dir_;
    std::vector<layer_slot> slots_;
};

} // namespace perfbench
