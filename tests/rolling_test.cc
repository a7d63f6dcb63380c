/**
 * @file
 * Tests for the rolling-window telemetry aggregator (metrics/rolling.h):
 * bucket rotation at window edges, stale-lap exclusion, empty-window
 * quantiles, the cumulative scope outliving the window, and merging a
 * window snapshot into a drain report.
 *
 * Every test drives time through the injected nowNs parameter, so
 * bucket rotation is exercised deterministically — no sleeping.
 */

#include <gtest/gtest.h>

#include <string>

#include "metrics/metrics.h"
#include "metrics/rolling.h"

namespace phloem::metrics {
namespace {

constexpr uint64_t kSec = 1'000'000'000ull;

TEST(RollingWindowTest, EmptyWindowIsZero)
{
    RollingWindow w(60);
    auto snap = w.snapshot(123 * kSec);
    EXPECT_EQ(snap.window.total.total, 0u);
    EXPECT_TRUE(snap.window.byKind.empty());
    EXPECT_DOUBLE_EQ(snap.window.total.quantile(0.50), 0.0);
    EXPECT_DOUBLE_EQ(snap.window.total.quantile(0.95), 0.0);
    EXPECT_DOUBLE_EQ(snap.window.total.mean(), 0.0);
    EXPECT_EQ(snap.windowSec, 60);
}

TEST(RollingWindowTest, ObservationsLandInWindow)
{
    RollingWindow w(10);
    w.observe("hit", 1e6, 100 * kSec);
    w.observe("hit", 2e6, 101 * kSec);
    w.observe("miss", 9e6, 102 * kSec);

    auto snap = w.snapshot(102 * kSec);
    EXPECT_EQ(snap.window.total.total, 3u);
    ASSERT_EQ(snap.window.byKind.count("hit"), 1u);
    ASSERT_EQ(snap.window.byKind.count("miss"), 1u);
    EXPECT_EQ(snap.window.byKind.at("hit").total, 2u);
    EXPECT_EQ(snap.window.byKind.at("miss").total, 1u);
    EXPECT_DOUBLE_EQ(snap.window.total.sum, 12e6);
}

TEST(RollingWindowTest, OldBucketsAgeOutAtWindowEdge)
{
    RollingWindow w(10);
    w.observe("hit", 1e6, 100 * kSec);

    // Still visible at the last covered second: window (sec-10, sec]
    // includes epoch 100 up to snapshot second 109.
    EXPECT_EQ(w.snapshot(109 * kSec).window.total.total, 1u);
    // One second later it has aged out.
    EXPECT_EQ(w.snapshot(110 * kSec).window.total.total, 0u);
}

TEST(RollingWindowTest, BucketRecycledAfterFullLap)
{
    RollingWindow w(5);
    // Epoch 100 lands in ring slot 100 % 5 == 0; epoch 105 hits the
    // same slot one lap later and must evict the stale contents, not
    // accumulate into them.
    w.observe("hit", 1e6, 100 * kSec);
    w.observe("hit", 3e6, 105 * kSec);

    auto snap = w.snapshot(105 * kSec);
    EXPECT_EQ(snap.window.total.total, 1u);
    EXPECT_DOUBLE_EQ(snap.window.total.sum, 3e6);
}

TEST(RollingWindowTest, StaleLapExcludedWithoutObservation)
{
    RollingWindow w(5);
    w.observe("hit", 1e6, 100 * kSec);
    // No writes afterwards: a snapshot several laps later must not
    // resurrect the slot even though it was never recycled.
    auto snap = w.snapshot(123 * kSec);
    EXPECT_EQ(snap.window.total.total, 0u);
}

TEST(RollingWindowTest, CumulativeScopeSurvivesWindowExpiry)
{
    RollingWindow w(5);
    w.observe("hit", 1e6, 100 * kSec);
    w.observe("miss", 9e6, 101 * kSec);
    w.observe("hit", 3e6, 107 * kSec);  // recycles slot 107 % 5 == 2

    // Laps later the window holds nothing, the totals hold every sample.
    auto snap = w.snapshot(130 * kSec);
    EXPECT_EQ(snap.window.total.total, 0u);
    EXPECT_TRUE(snap.window.byKind.empty());
    EXPECT_EQ(snap.cumulative.total.total, 3u);
    EXPECT_DOUBLE_EQ(snap.cumulative.total.sum, 13e6);
    ASSERT_EQ(snap.cumulative.byKind.count("hit"), 1u);
    ASSERT_EQ(snap.cumulative.byKind.count("miss"), 1u);
    EXPECT_EQ(snap.cumulative.byKind.at("hit").total, 2u);
    EXPECT_DOUBLE_EQ(snap.cumulative.byKind.at("miss").sum, 9e6);

    // While a sample is live, both scopes count it.
    snap = w.snapshot(107 * kSec);
    EXPECT_EQ(snap.window.total.total, 1u);
    EXPECT_EQ(snap.cumulative.total.total, 3u);
}

TEST(RollingWindowTest, FutureBucketsExcluded)
{
    RollingWindow w(10);
    w.observe("hit", 1e6, 105 * kSec);
    // Snapshot taken at an earlier second than the observation: the
    // bucket is in the snapshot's future and must not appear.
    EXPECT_EQ(w.snapshot(103 * kSec).window.total.total, 0u);
}

TEST(RollingWindowTest, QuantilesReflectWindowOnly)
{
    RollingWindow w(10);
    // An ancient slow request, then a fresh fast burst: the window
    // quantiles must track the burst only.
    w.observe("hit", 5e9, 100 * kSec);
    for (int i = 0; i < 100; ++i)
        w.observe("hit", 2e6, (200 + static_cast<uint64_t>(i % 5)) * kSec);

    auto snap = w.snapshot(205 * kSec);
    EXPECT_EQ(snap.window.total.total, 100u);
    // All observations sit in the bucket containing 2e6; the p99
    // estimate must stay well below the 5e9 outlier.
    EXPECT_LT(snap.window.total.quantile(0.99), 1e7);
}

TEST(RollingWindowTest, SnapshotMergesIntoDrainReport)
{
    RollingWindow w(60);
    for (int i = 0; i < 10; ++i)
        w.observe("hit", 1e6, 100 * kSec);
    w.observe("miss", 8e6, 101 * kSec);

    // The drain-report path: fold a snapshot into a metrics::Report and
    // round-trip it through the schema-versioned JSON.
    auto snap = w.snapshot(101 * kSec);
    Report report;
    // Qualified: gtest's Test::Run member otherwise shadows the type.
    ::phloem::metrics::Run& run =
        report.run("phloemd", {{"source", "stats"}});
    for (const auto& [verdict, d] : snap.window.byKind) {
        MetricSet& ms =
            run.families["latency"].at({{"verdict", verdict}});
        ms.dist("latency_ns", RollingWindow::defaultEdges()).merge(d);
        ms.addCounter("count", d.total);
    }

    Report parsed;
    std::string err;
    ASSERT_TRUE(parseReport(toJson(report), &parsed, &err)) << err;
    const ::phloem::metrics::Run* prun =
        parsed.findRun("phloemd", {{"source", "stats"}});
    ASSERT_NE(prun, nullptr);
    const auto& fam = prun->families.at("latency");
    const FamilyPoint* hit = fam.find({{"verdict", "hit"}});
    const FamilyPoint* miss = fam.find({{"verdict", "miss"}});
    ASSERT_NE(hit, nullptr);
    ASSERT_NE(miss, nullptr);
    EXPECT_EQ(hit->metrics.counters.at("count"), 10u);
    EXPECT_EQ(miss->metrics.counters.at("count"), 1u);
    EXPECT_EQ(hit->metrics.dists.at("latency_ns").total, 10u);
    EXPECT_DOUBLE_EQ(miss->metrics.dists.at("latency_ns").sum, 8e6);
}

TEST(RollingWindowTest, ObservationsSpreadAcrossDistinctBuckets)
{
    RollingWindow w(4);
    for (uint64_t s = 0; s < 4; ++s)
        w.observe("hit", 1e6, (200 + s) * kSec);
    EXPECT_EQ(w.snapshot(203 * kSec).window.total.total, 4u);
    // Advancing one second drops exactly the oldest bucket.
    EXPECT_EQ(w.snapshot(204 * kSec).window.total.total, 3u);
    EXPECT_EQ(w.snapshot(205 * kSec).window.total.total, 2u);
    EXPECT_EQ(w.snapshot(207 * kSec).window.total.total, 0u);
}

} // namespace
} // namespace phloem::metrics
