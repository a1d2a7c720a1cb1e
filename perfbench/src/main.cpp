// klsm_perf: one workload of the k-LSM benchmark in this process.
//
//   klsm_perf --workload mix|sssp|des --seed N --seconds S --trace 0|1
//             [--reference 1]
//
// T = nproc threads (std::thread::hardware_concurrency).
//
// --reference 1 runs dist_pq, the MultiQueue and a locked binary heap on
// the workload instead, for the README's reference figures.
//
// Prints its build provenance, every metric by name and unit, the
// attempted and failed operation counts, and as its last line one JSON
// object.  Exit codes: 0 correct, 1 a check failed, 2 usage, 3 refused
// build (assertions or sanitizers compiled in).

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "rounds.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace perfbench {

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6; // KiB
}

} // namespace perfbench

namespace {

int usage(const char *why) {
    std::fprintf(stderr,
                 "klsm_perf: %s\nusage: klsm_perf --workload mix|sssp|des "
                 "--seed N --seconds S --trace 0|1 [--reference 1]\n",
                 why);
    return 2;
}

bool parse_u64(const char *s, std::uint64_t &out) {
    char *end = nullptr;
    out = std::strtoull(s, &end, 10);
    return *s != '\0' && *end == '\0';
}

} // namespace

int main(int argc, char **argv) {
    using namespace perfbench;
#if !defined(NDEBUG) || defined(PERFBENCH_SANITIZED)
    std::fprintf(stderr, "klsm_perf: refusing to measure a build with "
                         "assertions or sanitizers (build type %s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
#endif
    options o;
    o.threads = std::thread::hardware_concurrency();
    if (o.threads == 0)
        o.threads = 1;
    std::string workload;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        std::uint64_t n = 0;
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed" && parse_u64(v, n)) {
            o.seed = n;
        } else if (a == "--seconds" && parse_u64(v, n) && n >= 1 &&
                   n <= 3600) {
            o.seconds = static_cast<double>(n);
        } else if (a == "--trace" && parse_u64(v, n) && n <= 1) {
            o.trace = n == 1;
        } else if (a == "--reference" && parse_u64(v, n) && n <= 1) {
            o.reference = n == 1;
        } else {
            return usage(("bad argument " + a + " " + v).c_str());
        }
    }

    std::printf("build: type=%s compiler=%s flags=\"%s\" threads=%u\n",
                PERFBENCH_BUILD_TYPE, __VERSION__, PERFBENCH_CXX_FLAGS,
                o.threads);
    std::fflush(stdout);

    report r;
    if (workload == "mix")
        run_mix(o, r);
    else if (workload == "sssp")
        run_sssp(o, r);
    else if (workload == "des")
        run_des(o, r);
    else
        return usage(("unknown workload '" + workload + "'").c_str());

    for (const metric &m : r.metrics) {
        std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        if (!std::isfinite(m.value))
            r.fail("metric " + m.name + " is not a finite number");
    }
    std::printf("operations attempted=%llu failed=%llu\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    if (!r.error.empty())
        std::printf("CHECK FAILED: %s\n", r.error.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.error.empty() ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    const char *sep = "";
    for (const metric &m : r.metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                    m.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
    return r.error.empty() ? 0 : 1;
}
