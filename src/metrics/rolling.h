/**
 * @file
 * Rolling-window latency aggregation for live telemetry.
 *
 * phloemd's `stats` verb must answer "what is the p95 *right now*", not
 * since process start: a daemon that has served a week of traffic would
 * otherwise bury a fresh latency regression under 10^9 old samples.
 * The window is a ring of one-second buckets keyed by absolute epoch
 * second. observe() drops a sample into bucket `sec % N`, first
 * clearing it if it still holds data from a lap ago; snapshot() merges
 * exactly the buckets whose epoch second lies in (now - N, now], so
 * stale laps never leak in and an idle window reads as empty.
 *
 * Samples are keyed by a small string kind (the cache verdict: "hit",
 * "miss", "bypass") so the snapshot can report per-verdict
 * distributions — a cache regression shows up as the miss lane growing,
 * not as an unexplained blended p95 shift.
 *
 * Beside the ring, every sample also lands in a cumulative per-kind
 * distribution that never ages out ("what has this process served").
 * A snapshot returns both scopes, taken under one lock, so the window
 * and the totals always describe the same samples.
 *
 * Time is injected (nowNs) rather than read from a clock: the server
 * passes a monotonic now, tests pass synthetic timestamps to exercise
 * rotation at window edges deterministically.
 *
 * Thread safety: all methods take an internal mutex; observe() is a
 * handful of histogram increments and snapshot() copies ~N*kinds small
 * histograms, so the critical sections are microseconds. This is the
 * coherence fix the stats verb needs — readers see a consistent window,
 * never torn doubles.
 */

#ifndef PHLOEM_METRICS_ROLLING_H
#define PHLOEM_METRICS_ROLLING_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "metrics/metrics.h"

namespace phloem::metrics {

class RollingWindow
{
  public:
    /** Window length in seconds (ring of one 1 s bucket each). */
    explicit RollingWindow(int window_sec,
                           std::vector<double> edges = defaultEdges());

    RollingWindow(const RollingWindow&) = delete;
    RollingWindow& operator=(const RollingWindow&) = delete;

    /** Record one sample of `kind` ("hit"/"miss"/...) at time nowNs. */
    void observe(const std::string& kind, double latencyNs,
                 uint64_t nowNs);

    /** One scope's per-kind distributions and all kinds merged. */
    struct Scope
    {
        std::map<std::string, Distribution> byKind;
        Distribution total;
    };

    struct Snapshot
    {
        /** The buckets still inside (nowNs - window, nowNs]. */
        Scope window;
        /** Every sample observed since construction. */
        Scope cumulative;
        /** Window length the snapshot covers (seconds). */
        int windowSec = 0;
    };

    /** Both scopes as of nowNs. */
    Snapshot snapshot(uint64_t nowNs) const;

    int windowSec() const { return windowSec_; }

    /** The service latency edges: 1 us .. 10 s, 4 per decade. */
    static std::vector<double> defaultEdges();

  private:
    struct Bucket
    {
        /** Epoch second these counts belong to; ~0 = never used. */
        uint64_t epochSec = ~0ull;
        std::map<std::string, Distribution> byKind;
    };

    int windowSec_;
    std::vector<double> edges_;
    mutable std::mutex mu_;
    std::vector<Bucket> ring_;
    std::map<std::string, Distribution> cumulative_;
};

} // namespace phloem::metrics

#endif // PHLOEM_METRICS_ROLLING_H
