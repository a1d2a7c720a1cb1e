#pragma once

// Shared pieces of the k-LSM benchmark: input generation, clocks,
// lossless latency histograms, multiset fingerprints and the report that
// becomes the run's JSON line.  Everything here belongs to the benchmark,
// not to the library it measures: inputs must not change when the
// library's own RNG or helpers change.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---- inputs ----------------------------------------------------------

/// splitmix64 finalizer: the stateless mixer every input stream and
/// fingerprint is built from.
constexpr std::uint64_t mix64(std::uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Counter-based generator: stream `id` of seed `seed`.
class rng {
public:
    rng(std::uint64_t seed, std::uint64_t id)
        : s_(mix64(seed * 0x9e3779b97f4a7c15ULL + mix64(id + 1))) {}

    std::uint64_t next() { return mix64(s_ += 0x9e3779b97f4a7c15ULL); }

    /// Uniform in [0, n), n >= 1 (multiply-shift; bias below 2^-32).
    std::uint64_t below(std::uint64_t n) {
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * n) >> 64);
    }

private:
    std::uint64_t s_;
};

// ---- time ------------------------------------------------------------

inline std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

inline double seconds_since(std::uint64_t t0) {
    return static_cast<double>(now_ns() - t0) * 1e-9;
}

// ---- statistics ------------------------------------------------------

inline double median(std::vector<double> v) {
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Log-linear histogram of non-negative integers (16 sub-buckets per
/// power of two, so a quantile is exact to within 1/16 of its value).
/// Every sample is counted: nothing is sampled or dropped.
class histogram {
public:
    static constexpr unsigned sub_bits = 4;
    static constexpr unsigned subs = 1u << sub_bits;

    void add(std::uint64_t v) {
        ++counts_[bucket(v)];
        ++n_;
    }

    void merge(const histogram &o) {
        for (unsigned i = 0; i < buckets; ++i)
            counts_[i] += o.counts_[i];
        n_ += o.n_;
    }

    std::uint64_t count() const { return n_; }

    /// Upper edge of the bucket holding the q-quantile (0 if empty).
    double quantile(double q) const {
        if (n_ == 0)
            return 0.0;
        const auto rank = static_cast<std::uint64_t>(
            q * static_cast<double>(n_ - 1));
        std::uint64_t seen = 0;
        for (unsigned i = 0; i < buckets; ++i) {
            seen += counts_[i];
            if (seen > rank)
                return static_cast<double>(upper(i));
        }
        return static_cast<double>(upper(buckets - 1));
    }

private:
    static constexpr unsigned buckets = 64 * subs;

    static unsigned bucket(std::uint64_t v) {
        if (v < subs)
            return static_cast<unsigned>(v);
        const unsigned e = 63u - static_cast<unsigned>(__builtin_clzll(v));
        const unsigned shift = e - sub_bits;
        return (shift + 1) * subs +
               static_cast<unsigned>((v >> shift) & (subs - 1));
    }

    static std::uint64_t upper(unsigned b) {
        if (b < subs)
            return b;
        const unsigned shift = b / subs - 1;
        const std::uint64_t base = (std::uint64_t{subs} + b % subs) << shift;
        return base + (std::uint64_t{1} << shift) - 1;
    }

    std::uint64_t counts_[buckets] = {};
    std::uint64_t n_ = 0;
};

/// Order-independent multiset fingerprint: equal multisets give equal
/// fingerprints, and unequal ones collide with probability ~2^-128.
struct fingerprint {
    std::uint64_t n = 0, a = 0, b = 0;

    void add(std::uint64_t key) {
        ++n;
        a += mix64(key ^ 0x5851f42d4c957f2dULL);
        b += mix64(key * 0xd1342543de82ef95ULL + 1);
    }
    void merge(const fingerprint &o) {
        n += o.n;
        a += o.a;
        b += o.b;
    }
    bool operator==(const fingerprint &) const = default;
};

// ---- the run's report --------------------------------------------------

struct metric {
    std::string name;
    double value;
    std::string unit;
};

struct report {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string error; ///< first failed check; empty when correct
    std::vector<metric> metrics;

    void fail(const std::string &why) {
        if (error.empty())
            error = why;
    }
    void set(const std::string &name, double value, const std::string &unit) {
        for (metric &m : metrics)
            if (m.name == name) {
                m.value = value;
                m.unit = unit;
                return;
            }
        metrics.push_back({name, value, unit});
    }
};

/// Peak resident set of this process, in MB (10^6 bytes).
double peak_rss_mb();

} // namespace perfbench
