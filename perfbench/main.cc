/**
 * @file
 * perfbench — the repository benchmark's harness binary.
 *
 *   perfbench --workload suite-native|service-mix|sim-suite --seed N
 *             --seconds S --trace 0|1 [--trace-out PATH] [--inject-fault]
 *
 * Generates the workload's inputs from the seed, sets up kSetups
 * times, measures a closed loop for `--seconds`, checks every output,
 * and prints as its last stdout line one JSON object: correct,
 * attempted, failed and metrics (the end-to-end metrics untraced, the
 * per-layer metrics when traced). The line before it, "detail: {...}",
 * holds the input digest and every metric of both kinds for the
 * self-checks. Exit status: 0 when every output was correct, 1 when a
 * run failed or an output mismatched, 2 on bad arguments.
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench.h"
#include "spans.h"

namespace {

using namespace perfbench;

struct MetricDef
{
    std::string name;
    std::string unit;
};

/** End-to-end metrics; every workload reports each of them. */
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},          {"fast_ms_p50", "ms"},
    {"fast_ms_tail", "ms"},    {"base_ms_p50", "ms"},
    {"speedup_gmean", "x"},    {"worst_speedup", "x"},
    {"ops_per_s", "1/s"},      {"minst_per_s", "M/s"},
    {"peak_rss_mb", "MB"},
};

const char* const kPairs[] = {
    "bfs.rmat", "bfs.road",   "cc.rmat",    "cc.road",  "prd.rmat",
    "prd.road", "radii.rmat", "radii.road", "spmm.rand",
};

/** Per-layer metrics; a layer a workload does not exercise reads 0. */
std::vector<MetricDef>
perLayer()
{
    std::vector<MetricDef> m = {
        {"workloads.gen_ms", "ms"},
        {"frontend.compile_kernel_ms", "ms"},
        {"driver.compile_source_ms", "ms"},
        {"compiler.compile_ms", "ms"},
        {"compiler.stages", "count"},
        {"compiler.queues", "count"},
        {"compiler.ras", "count"},
    };
    for (const char* pair : kPairs)
        for (const char* leg : {".pipeline_ms", ".serial_ms"})
            m.push_back({std::string("runtime.") + pair + leg, "ms"});
    std::vector<MetricDef> rest = {
        {"runtime.instructions", "count"},
        {"runtime.queue_ops", "count"},
        {"runtime.ra_elements", "count"},
        {"runtime.enq_blocks", "count"},
        {"runtime.deq_blocks", "count"},
        {"runtime.blocks_per_kqop", "ratio"},
        {"runtime.parks", "count"},
        {"runtime.unparks", "count"},
        {"runtime.steals", "count"},
        {"runtime.vol_ctx_switches", "count"},
        {"runtime.invol_ctx_switches", "count"},
        {"runtime.pop_batch_mean", "count"},
        {"runtime.push_batch_mean", "count"},
        {"service.req_ms_p50", "ms"},
        {"service.req_ms_p99", "ms"},
        {"service.run_ms_p50", "ms"},
        {"service.run_ms_p99", "ms"},
        {"service.server_ms_p99", "ms"},
        {"service.overhead_ms_p99", "ms"},
        {"service.transport_ms_p99", "ms"},
        {"service.compile_ms_p50", "ms"},
        {"service.hit_ratio", "ratio"},
        {"service.evictions", "count"},
        {"sim.serial_cycles", "cycles"},
        {"sim.pipeline_cycles", "cycles"},
        {"sim.queue_stall_frac", "ratio"},
        {"sim.frontend_stall_frac", "ratio"},
        {"sim.dram_accesses", "count"},
        {"sim.l1_hit_ratio", "ratio"},
        {"sim.instructions", "count"},
        {"sim.host_ms", "ms"},
        {"samples.fast", "count"},
        {"samples.base", "count"},
        {"trace.overhead", "x"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    for (const auto& layer : kLayers)
        m.push_back({layer + ".self_ms", "ms"});
    return m;
}

/**
 * The process's peak resident set (VmHWM) in MB. getrusage's ru_maxrss
 * is not used: Linux carries it across exec, so it would report the
 * launching interpreter's footprint.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload suite-native|service-mix|"
                 "sim-suite --seed N --seconds S --trace 0|1\n"
                 "                 [--trace-out PATH] [--inject-fault]\n");
}

/** Parse "--flag value"; false on a missing or malformed value. */
bool
parseArgs(int argc, char** argv, Options* opt)
{
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--inject-fault") {
            opt->injectFault = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        std::string v = argv[++i];
        char* end = nullptr;
        if (a == "--workload") {
            opt->workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            opt->seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            opt->seconds = std::strtod(v.c_str(), &end);
            if (!(opt->seconds > 0))
                return false;
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return false;
            opt->trace = v == "1";
        } else if (a == "--trace-out") {
            opt->traceOut = v;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0')
            return false;
    }
    return have_workload;
}

void
appendMetric(std::string* json, const MetricDef& m, double value)
{
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json->size() > 1 ? ", " : "", m.name.c_str(), value,
                  m.unit.c_str());
    *json += buf;
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    if (!parseArgs(argc, argv, &opt)) {
        usage();
        return 2;
    }
    Outcome (*runner)(const Options&) = nullptr;
    if (opt.workload == "suite-native")
        runner = runSuiteNative;
    else if (opt.workload == "service-mix")
        runner = runServiceMix;
    else if (opt.workload == "sim-suite")
        runner = runSimSuite;
    if (runner == nullptr) {
        usage();
        return 2;
    }
    if (opt.trace)
        spans().enable();

    Outcome out = runner(opt);
    out.e2e["peak_rss_mb"] = peakRssMb();

    for (const auto& [layer, ms] : spans().selfMsByLayer())
        out.layer[layer + ".self_ms"] = ms;
    if (opt.trace && !opt.traceOut.empty()) {
        std::string err;
        if (!spans().writeChromeJson(opt.traceOut, &err))
            out.fail("trace: " + err);
    }

    bool correct = out.failed == 0 && out.attempted > 0;
    std::string e2e = "{", layer = "{";
    for (const auto& m : kEndToEnd) {
        auto it = out.e2e.find(m.name);
        if (correct && (it == out.e2e.end() || !(it->second > 0))) {
            out.fail("metric " + m.name + " not measured");
            correct = false;
        }
        appendMetric(&e2e, m, it == out.e2e.end() ? 0.0 : it->second);
    }
    for (const auto& m : perLayer())
        appendMetric(&layer, m, out.layer[m.name]);
    e2e += "}";
    layer += "}";

    std::fprintf(stderr,
                 "perfbench: %s seed %" PRIu64 ": %.0f fast and %.0f base "
                 "samples\n",
                 opt.workload.c_str(), opt.seed, out.layer["samples.fast"],
                 out.layer["samples.base"]);
    if (!out.firstError.empty())
        std::fprintf(stderr, "perfbench: FAILED: %s\n",
                     out.firstError.c_str());
    std::printf("detail: {\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"input_digest\": \"%016" PRIx64
                "\", \"end_to_end\": %s, \"per_layer\": %s}\n",
                opt.workload.c_str(), opt.seed, out.inputDigest, e2e.c_str(),
                layer.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                correct ? "true" : "false", out.attempted, out.failed,
                opt.trace ? layer.c_str() : e2e.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
