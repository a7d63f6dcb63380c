#include "metrics/rolling.h"

#include "base/logging.h"

namespace phloem::metrics {

namespace {

/** The distribution of `kind` in `lanes`, created empty on first use. */
Distribution&
lane(std::map<std::string, Distribution>& lanes, const std::string& kind,
     const std::vector<double>& edges)
{
    auto it = lanes.find(kind);
    if (it == lanes.end())
        it = lanes.emplace(kind, Distribution(edges)).first;
    return it->second;
}

} // namespace

std::vector<double>
RollingWindow::defaultEdges()
{
    return logSpacedEdges(1e3, 1e10, 4);
}

RollingWindow::RollingWindow(int window_sec, std::vector<double> edges)
    : windowSec_(window_sec), edges_(std::move(edges))
{
    phloem_assert(windowSec_ > 0, "rolling window must be >= 1 s");
    ring_.resize(static_cast<size_t>(windowSec_));
}

void
RollingWindow::observe(const std::string& kind, double latencyNs,
                       uint64_t nowNs)
{
    uint64_t sec = nowNs / 1'000'000'000ull;
    std::lock_guard<std::mutex> g(mu_);
    Bucket& b = ring_[static_cast<size_t>(sec % ring_.size())];
    if (b.epochSec != sec) {
        // This slot last held a bucket from >= one lap ago: recycle it.
        b.epochSec = sec;
        b.byKind.clear();
    }
    lane(b.byKind, kind, edges_).observe(latencyNs);
    lane(cumulative_, kind, edges_).observe(latencyNs);
}

RollingWindow::Snapshot
RollingWindow::snapshot(uint64_t nowNs) const
{
    uint64_t sec = nowNs / 1'000'000'000ull;
    uint64_t window = static_cast<uint64_t>(windowSec_);
    Snapshot out;
    out.windowSec = windowSec_;
    out.window.total = Distribution(edges_);
    out.cumulative.total = Distribution(edges_);
    auto add = [this](Scope& scope, const std::string& kind,
                      const Distribution& d) {
        lane(scope.byKind, kind, edges_).merge(d);
        scope.total.merge(d);
    };
    std::lock_guard<std::mutex> g(mu_);
    for (const Bucket& b : ring_) {
        // Live iff its second lies in (sec - window, sec]; a bucket an
        // observe() has not recycled yet fails this and is skipped.
        if (b.epochSec == ~0ull || b.epochSec > sec ||
            b.epochSec + window <= sec)
            continue;
        for (const auto& [kind, dist] : b.byKind)
            add(out.window, kind, dist);
    }
    for (const auto& [kind, dist] : cumulative_)
        add(out.cumulative, kind, dist);
    return out;
}

} // namespace phloem::metrics
