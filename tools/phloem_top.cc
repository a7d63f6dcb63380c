/**
 * @file
 * phloem-top — live one-screen telemetry view of a running phloemd.
 *
 * Polls the daemon's "stats" verb and renders the embedded
 * metrics::Report as a top(1)-style display: a health line, cache and
 * scheduler counters, the rolling-window latency headline, and one row
 * per cache verdict in both the window and cumulative scopes.
 *
 *   phloemd --socket=/tmp/phloemd.sock &
 *   phloem-top --socket=/tmp/phloemd.sock --interval=2
 *
 * --once prints a single snapshot without clearing the screen (handy
 * in scripts and CI); --json dumps the raw schema-versioned report
 * instead of rendering, so the same poll path feeds jq pipelines.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "metrics/metrics.h"
#include "service/client.h"

namespace {

using namespace phloem;

struct Options
{
    std::string socket;
    double intervalS = 2.0;
    bool once = false;
    bool json = false;
    int count = 0;  ///< 0 = until interrupted
};

void
usage()
{
    std::fprintf(
        stderr,
        "usage: phloem-top --socket=PATH [options]\n"
        "\n"
        "options:\n"
        "  --socket=PATH    phloemd socket to poll (required)\n"
        "  --interval=SEC   refresh period (default 2)\n"
        "  --count=N        exit after N refreshes (default: forever)\n"
        "  --once           one snapshot, no screen clearing\n"
        "  --json           print the raw stats report JSON instead of "
        "rendering\n");
}

double
gauge(const metrics::MetricSet& ms, const char* name)
{
    auto it = ms.gauges.find(name);
    return it != ms.gauges.end() ? it->second : 0.0;
}

uint64_t
counter(const metrics::MetricSet& ms, const char* name)
{
    auto it = ms.counters.find(name);
    return it != ms.counters.end() ? it->second : 0;
}

/** Latency in ns -> short human string ("1.24ms"). */
std::string
fmtNs(double ns)
{
    char buf[32];
    if (ns >= 1e9)
        std::snprintf(buf, sizeof buf, "%.2fs", ns / 1e9);
    else if (ns >= 1e6)
        std::snprintf(buf, sizeof buf, "%.2fms", ns / 1e6);
    else if (ns >= 1e3)
        std::snprintf(buf, sizeof buf, "%.1fus", ns / 1e3);
    else
        std::snprintf(buf, sizeof buf, "%.0fns", ns);
    return buf;
}

std::string
fmtUptime(double s)
{
    char buf[48];
    int sec = static_cast<int>(s);
    std::snprintf(buf, sizeof buf, "%d:%02d:%02d", sec / 3600,
                  (sec / 60) % 60, sec % 60);
    return buf;
}

void
renderScope(const metrics::Run& run, const char* scope)
{
    auto fam = run.families.find("latency");
    if (fam == run.families.end()) return;
    std::printf("  %-8s %-8s %10s %10s %10s %10s %10s\n", scope,
                "verdict", "count", "mean", "p50", "p95", "p99");
    for (const auto& point : fam->second.points) {
        auto s = point.labels.find("scope");
        if (s == point.labels.end() || s->second != scope) continue;
        auto v = point.labels.find("verdict");
        const std::string verdict =
            v != point.labels.end() ? v->second : "?";
        const metrics::MetricSet& ms = point.metrics;
        std::printf("  %-8s %-8s %10llu %10s %10s %10s %10s\n", "",
                    verdict.c_str(),
                    static_cast<unsigned long long>(counter(ms, "count")),
                    fmtNs(gauge(ms, "mean_ns")).c_str(),
                    fmtNs(gauge(ms, "p50_ns")).c_str(),
                    fmtNs(gauge(ms, "p95_ns")).c_str(),
                    fmtNs(gauge(ms, "p99_ns")).c_str());
    }
}

/** One full screen from one stats report. */
void
render(const metrics::Report& report, bool clear)
{
    // Home + clear-to-end keeps the redraw flicker-free (no full-screen
    // erase between frames).
    if (clear) std::printf("\033[H\033[J");

    // Match by name only: the daemon labels its run {source: stats} and
    // findRun wants the exact label set.
    const metrics::Run* run = nullptr;
    for (const auto& r : report.runs)
        if (r.name == "phloemd") { run = &r; break; }
    if (run == nullptr) {
        std::printf("phloem-top: stats report holds no phloemd run\n");
        return;
    }
    const metrics::MetricSet& top = run->top;

    std::printf("phloemd %s  up %s  workers %.0f  inflight %.0f  "
                "queued %.0f\n",
                gauge(top, "draining") > 0 ? "draining" : "serving",
                fmtUptime(gauge(top, "uptime_s")).c_str(),
                gauge(top, "workers"), gauge(top, "inflight"),
                gauge(top, "queued_conns"));
    std::printf("requests %llu (run %llu, errors %llu)   cache "
                "%llu hit / %llu miss (%.1f%%), %0.f entries, "
                "%llu evicted\n",
                static_cast<unsigned long long>(
                    counter(top, "requests_served")),
                static_cast<unsigned long long>(
                    counter(top, "run_requests")),
                static_cast<unsigned long long>(
                    counter(top, "run_errors")),
                static_cast<unsigned long long>(
                    counter(top, "cache_hits")),
                static_cast<unsigned long long>(
                    counter(top, "cache_misses")),
                gauge(top, "cache_hit_rate") * 100.0,
                gauge(top, "cache_entries"),
                static_cast<unsigned long long>(
                    counter(top, "cache_evictions")));
    if (top.counters.count("sched_parks") != 0 ||
        top.gauges.count("sched_pool_size") != 0) {
        std::printf("sched pool %.0f  parks %llu  steals %llu  "
                    "yields %llu  tasks %llu\n",
                    gauge(top, "sched_pool_size"),
                    static_cast<unsigned long long>(
                        counter(top, "sched_parks")),
                    static_cast<unsigned long long>(
                        counter(top, "sched_steals")),
                    static_cast<unsigned long long>(
                        counter(top, "sched_yields")),
                    static_cast<unsigned long long>(
                        counter(top, "sched_tasks_started")));
    }
    std::printf("last %.0fs: %.0f requests, %.1f req/s, hit rate "
                "%.1f%%, p50 %s  p95 %s  p99 %s\n",
                gauge(top, "window_sec"),
                gauge(top, "window_requests"), gauge(top, "window_rps"),
                gauge(top, "window_hit_rate") * 100.0,
                fmtNs(gauge(top, "window_p50_ns")).c_str(),
                fmtNs(gauge(top, "window_p95_ns")).c_str(),
                fmtNs(gauge(top, "window_p99_ns")).c_str());
    std::printf("\n");
    renderScope(*run, "window");
    std::printf("\n");
    renderScope(*run, "total");
    std::fflush(stdout);
}

bool
parseNum(const char* s, double* out)
{
    char* end = nullptr;
    double v = std::strtod(s, &end);
    if (end == nullptr || *end != '\0' || end == s) return false;
    *out = v;
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto val = [&arg](const char* name) -> const char* {
            size_t n = std::strlen(name);
            if (arg.compare(0, n, name) == 0 && arg.size() > n &&
                arg[n] == '=') {
                return arg.c_str() + n + 1;
            }
            return nullptr;
        };
        double d = 0.0;
        if (const char* v = val("--socket")) {
            opt.socket = v;
        } else if (const char* v = val("--interval")) {
            if (!parseNum(v, &d) || d < 0.1 || d > 3600) {
                std::fprintf(stderr, "phloem-top: bad --interval\n");
                return 2;
            }
            opt.intervalS = d;
        } else if (const char* v = val("--count")) {
            if (!parseNum(v, &d) || d < 1) {
                std::fprintf(stderr, "phloem-top: bad --count\n");
                return 2;
            }
            opt.count = static_cast<int>(d);
        } else if (arg == "--once") {
            opt.once = true;
        } else if (arg == "--json") {
            opt.json = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "phloem-top: unknown option %s\n",
                         arg.c_str());
            usage();
            return 2;
        }
    }
    if (opt.socket.empty()) {
        usage();
        return 2;
    }
    if (opt.json) opt.once = opt.count == 0 ? true : opt.once;

    std::string err;
    if (!svc::waitForServer(opt.socket, 5000, &err)) {
        std::fprintf(stderr, "phloem-top: no server at %s: %s\n",
                     opt.socket.c_str(), err.c_str());
        return 1;
    }

    // One persistent connection: the daemon serves sequential frames
    // per connection, so polls don't churn accept/close.
    svc::Client client;
    if (!client.connect(opt.socket, &err)) {
        std::fprintf(stderr, "phloem-top: connect: %s\n", err.c_str());
        return 1;
    }

    int shown = 0;
    bool first = true;
    for (;;) {
        svc::Request req;
        req.op = "stats";
        svc::Response resp;
        if (!client.call(req, &resp, &err)) {
            std::fprintf(stderr, "phloem-top: %s\n", err.c_str());
            return 1;
        }
        if (!resp.ok) {
            std::fprintf(stderr, "phloem-top: server error: %s\n",
                         resp.error.c_str());
            return 1;
        }
        if (opt.json) {
            std::printf("%s\n", resp.reportJson.c_str());
            std::fflush(stdout);
        } else {
            metrics::Report report;
            if (!metrics::parseReport(resp.reportJson, &report, &err)) {
                std::fprintf(stderr,
                             "phloem-top: bad stats report: %s\n",
                             err.c_str());
                return 1;
            }
            if (first && !opt.once) std::printf("\033[2J");
            render(report, !opt.once);
        }
        first = false;
        ++shown;
        if (opt.once || (opt.count > 0 && shown >= opt.count)) break;
        std::this_thread::sleep_for(std::chrono::duration<double>(
            opt.intervalS));
    }
    return 0;
}
