/**
 * @file
 * What the three workload runners share: the run options, the outcome
 * each returns, and the sample statistics they report with.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <sched.h>
#include <string>
#include <vector>

namespace perfbench {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    /** Length of the measured loop. */
    double seconds = 10.0;
    /** Traced run: record spans and report the per-layer metrics. */
    bool trace = false;
    /** Where the traced run writes its Chrome trace JSON. */
    std::string traceOut;
    /** Fault-injection self-check: corrupt the first measured output. */
    bool injectFault = false;
};

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetups = 9;

/** What one workload run measured. */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::string firstError;
    /** FNV-1a digest of every generated input. */
    uint64_t inputDigest = 0;
    /** End-to-end metrics by name (see main.cc for units). */
    std::map<std::string, double> e2e;
    /** Per-layer metrics by name; layers a workload skips stay 0. */
    std::map<std::string, double> layer;

    void
    fail(const std::string& what)
    {
        ++failed;
        if (firstError.empty())
            firstError = what;
    }
};

/** Linear-interpolated percentile (q in [0, 100]) of unsorted samples. */
inline double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q / 100.0 * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double
median(const std::vector<double>& v)
{
    return percentile(v, 50.0);
}

/** Which of `blocks` equal time blocks of [t0, t1) holds time `t`. */
inline size_t
blockOf(int64_t t, int64_t t0, int64_t t1, size_t blocks)
{
    auto b = static_cast<size_t>(static_cast<double>(t - t0) /
                                 static_cast<double>(t1 - t0) *
                                 static_cast<double>(blocks));
    return std::min(b, blocks - 1);
}

/**
 * Pins the calling thread to one CPU of its affinity set, chosen by
 * `turn` round-robin, and restores the set when destroyed. On a shared
 * VM the vCPUs run at persistently different speeds, so single-threaded
 * work that turns through all of them reads the same from run to run,
 * where work left on one vCPU reads that vCPU's speed. Threads created
 * while pinned would inherit the pin, so only thread-free work (set-up,
 * simulation) runs under it.
 */
class CpuTurn
{
  public:
    explicit CpuTurn(size_t turn)
    {
        if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0)
            return;
        std::vector<int> cpus;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &saved_))
                cpus.push_back(c);
        if (cpus.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[turn % cpus.size()], &one);
        pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    }
    ~CpuTurn()
    {
        if (pinned_)
            sched_setaffinity(0, sizeof(saved_), &saved_);
    }
    CpuTurn(const CpuTurn&) = delete;
    CpuTurn& operator=(const CpuTurn&) = delete;

  private:
    cpu_set_t saved_{};
    bool pinned_ = false;
};

Outcome runSuiteNative(const Options& opt);
Outcome runSimSuite(const Options& opt);
Outcome runServiceMix(const Options& opt);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
