/**
 * @file
 * Stall-attribution tracing tests: ring retention semantics, and — for
 * both execution backends — that the emitted Chrome trace_event JSON
 * actually parses and contains at least one event for every registered
 * worker lane. The JSON is validated with metrics::Json's parser rather
 * than string matching, because the consumer (Perfetto /
 * chrome://tracing) parses it for real; the tracer writes through its
 * own emitter, so reader and writer stay independent.
 */

#include "tests/test_util.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "base/rng.h"
#include "compiler/compiler.h"
#include "ir/builder.h"
#include "frontend/frontend.h"
#include "metrics/json.h"
#include "runtime/runtime.h"
#include "runtime/trace.h"
#include "sim/machine.h"

namespace phloem {
namespace {

// ---------------------------------------------------------------------
// Shared checks: parse a tracer's JSON and require one event per lane.
// ---------------------------------------------------------------------

/**
 * Parse `json` and assert the Chrome trace_event envelope: expected
 * timebase tag, one thread_name metadata record per tracer buffer, and
 * at least one real (non-metadata) event on every lane.
 */
void
checkTraceJson(const trace::Tracer& tracer, const std::string& json,
               const std::string& want_timebase)
{
    metrics::Json root;
    std::string err;
    ASSERT_TRUE(metrics::Json::parse(json, &root, &err)) << err;
    ASSERT_EQ(root.kind(), metrics::Json::Kind::kObject);
    ASSERT_TRUE(root.has("otherData"));
    ASSERT_TRUE(root.at("otherData").has("timebase"));
    EXPECT_EQ(root.at("otherData").at("timebase").asString(), want_timebase);

    ASSERT_TRUE(root.has("traceEvents"));
    const metrics::Json& events = root.at("traceEvents");
    ASSERT_EQ(events.kind(), metrics::Json::Kind::kArray);

    std::map<int64_t, std::string> lane_names;  // tid -> thread_name
    std::map<int64_t, int> lane_events;         // tid -> non-metadata count
    for (const metrics::Json& e : events.items()) {
        ASSERT_EQ(e.kind(), metrics::Json::Kind::kObject);
        ASSERT_TRUE(e.has("ph"));
        if (e.at("ph").asString() == "M") {
            if (e.at("name").asString() == "thread_name")
                lane_names[e.at("tid").asInt()] =
                    e.at("args").at("name").asString();
            continue;
        }
        ASSERT_TRUE(e.has("tid"));
        ASSERT_TRUE(e.has("ts"));
        lane_events[e.at("tid").asInt()]++;
        if (e.at("ph").asString() == "X") {
            ASSERT_TRUE(e.has("dur"));
            EXPECT_GE(e.at("dur").asDouble(), 0.0);
        }
    }

    ASSERT_EQ(lane_names.size(), tracer.buffers().size());
    for (const auto& [tid, name] : lane_names)
        EXPECT_GT(lane_events[tid], 0)
            << "worker lane '" << name << "' (tid " << tid
            << ") emitted no events";
}

const char* kTraceKernel = R"(
#pragma phloem
void trace_work(const int* restrict a, const int* restrict b,
                long* restrict out, int n) {
    for (int i = 0; i < n; i++) {
        int x = a[i];
        if (x > 0) {
            int y = b[x];
            out[i] = phloem_work(y, 10);
        }
    }
}
)";

void
setupTraceKernel(sim::Binding& binding)
{
    Rng rng(42);
    const int n = 2000;
    auto* a = binding.makeArray("a", ir::ElemType::kI32, n);
    auto* b = binding.makeArray("b", ir::ElemType::kI32, n);
    auto* out = binding.makeArray("out", ir::ElemType::kI64, n);
    for (int i = 0; i < n; ++i) {
        a->setInt(i, static_cast<int64_t>(rng.nextBounded(n)) - n / 3);
        b->setInt(i, static_cast<int64_t>(rng.nextBounded(1000)));
        out->setInt(i, -1);
    }
    binding.setScalarInt("n", n);
}

ir::PipelinePtr
compileTracePipeline()
{
    auto kernel = fe::compileKernel(kTraceKernel);
    comp::CompileOptions opts;
    opts.numStages = 4;
    auto res = comp::compilePipeline(*kernel.fn, opts);
    EXPECT_TRUE(res.ok());
    return std::move(res.pipeline);
}

// ---------------------------------------------------------------------
// Ring semantics.
// ---------------------------------------------------------------------

TEST(TraceBuffer, RingKeepsTrailingEventsWhenFull)
{
    trace::Tracer tracer{trace::Timebase::kSimCycles, /*capacity=*/4};
    trace::TraceBuffer* buf = tracer.addWorker("w", true);
    for (uint64_t i = 0; i < 10; ++i)
        buf->record(trace::EventKind::kEnqBlock, 0, i, i + 1);
    EXPECT_EQ(buf->recorded(), 10u);
    EXPECT_EQ(buf->retained(), 4u);

    // forEachRetained walks oldest-first over the survivors: 6..9.
    uint64_t expect = 6;
    buf->forEachRetained([&](const trace::Event& e) {
        EXPECT_EQ(e.begin, expect);
        expect++;
    });
    EXPECT_EQ(expect, 10u);

    // lastN clips to what is retained and keeps oldest-first order.
    std::vector<trace::Event> tail = buf->lastN(2);
    ASSERT_EQ(tail.size(), 2u);
    EXPECT_EQ(tail[0].begin, 8u);
    EXPECT_EQ(tail[1].begin, 9u);
    ASSERT_EQ(buf->lastN(100).size(), 4u);
}

TEST(TraceBuffer, PostMortemNamesEveryWorkerAndKind)
{
    trace::Tracer tracer{trace::Timebase::kSimCycles};
    trace::TraceBuffer* s = tracer.addWorker("stage.0", true);
    trace::TraceBuffer* r = tracer.addWorker("ra.scan", false);
    s->record(trace::EventKind::kDeqBlock, 3, 10, 25);
    r->record(trace::EventKind::kRaService, 1, 5, 9, 17);

    std::string pm = tracer.postMortem();
    EXPECT_NE(pm.find("stage.0"), std::string::npos) << pm;
    EXPECT_NE(pm.find("ra.scan"), std::string::npos) << pm;
    EXPECT_NE(pm.find("deq_block"), std::string::npos) << pm;
    EXPECT_NE(pm.find("ra_service"), std::string::npos) << pm;
    EXPECT_NE(pm.find("q3"), std::string::npos) << pm;
}

// ---------------------------------------------------------------------
// Native backend: wall-clock timebase.
// ---------------------------------------------------------------------

TEST(Trace, NativeTraceJsonParsesAndCoversEveryWorker)
{
    ir::PipelinePtr pipeline = compileTracePipeline();
    ASSERT_TRUE(pipeline != nullptr);

    sim::Binding binding;
    setupTraceKernel(binding);
    trace::Tracer tracer{trace::Timebase::kWallNs};
    rt::RuntimeOptions opt;
    opt.tracer = &tracer;
    rt::Runtime runtime{sim::SysConfig{}, opt};
    rt::NativeStats stats = runtime.runPipeline(*pipeline, binding);
    ASSERT_TRUE(stats.ok) << stats.error;

    // One lane per stage thread and RA worker, plus the occupancy lane.
    ASSERT_EQ(tracer.buffers().size(),
              static_cast<size_t>(stats.numStageThreads +
                                  stats.numRAWorkers) +
                  1);
    checkTraceJson(tracer, tracer.toJson(), "wall_ns");
}

TEST(Trace, TracedNativeRunMatchesUntracedOutput)
{
    // Tracing is observability: it must not perturb results.
    ir::PipelinePtr pipeline = compileTracePipeline();
    ASSERT_TRUE(pipeline != nullptr);

    sim::Binding plain;
    setupTraceKernel(plain);
    rt::Runtime plain_rt;
    ASSERT_TRUE(plain_rt.runPipeline(*pipeline, plain).ok);

    sim::Binding traced;
    setupTraceKernel(traced);
    trace::Tracer tracer{trace::Timebase::kWallNs};
    rt::RuntimeOptions opt;
    opt.tracer = &tracer;
    rt::Runtime traced_rt{sim::SysConfig{}, opt};
    ASSERT_TRUE(traced_rt.runPipeline(*pipeline, traced).ok);

    EXPECT_TRUE(plain.array("out")->contentEquals(*traced.array("out")));
}

// ---------------------------------------------------------------------
// Simulator backend: simulated-cycle timebase.
// ---------------------------------------------------------------------

TEST(Trace, SimTraceJsonParsesAndCoversEveryWorker)
{
    ir::PipelinePtr pipeline = compileTracePipeline();
    ASSERT_TRUE(pipeline != nullptr);

    sim::Binding binding;
    setupTraceKernel(binding);
    trace::Tracer tracer{trace::Timebase::kSimCycles};
    sim::MachineOptions mopt;
    mopt.tracer = &tracer;
    sim::Machine machine{test::testConfig(), mopt};
    sim::RunStats stats = machine.runPipeline(*pipeline, binding);
    ASSERT_FALSE(stats.deadlock) << stats.deadlockInfo;

    EXPECT_GE(tracer.buffers().size(), 2u);
    checkTraceJson(tracer, tracer.toJson(), "sim_cycles");
}

TEST(Trace, SimDeadlockPostMortemCarriesTrailingEvents)
{
    // A producer with no consumer: the simulator detects the deadlock
    // and its report must include the tracer's trailing-event dump.
    auto pipeline = std::make_unique<ir::Pipeline>();
    pipeline->name = "sim-jam";
    {
        ir::FunctionBuilder b("jam");
        ir::RegId n = b.scalarParam("n");
        b.forRange(b.constI(0), n, [&](ir::RegId i) { b.enq(0, i); });
        pipeline->stages.push_back(b.finish());
    }
    ir::QueueConfig qc;
    qc.id = 0;
    qc.depth = 4;
    pipeline->queues.push_back(qc);

    sim::Binding b;
    b.setScalarInt("n", 64);

    trace::Tracer tracer{trace::Timebase::kSimCycles};
    sim::MachineOptions mopt;
    mopt.tracer = &tracer;
    sim::Machine machine{test::testConfig(), mopt};
    sim::RunStats stats = machine.runPipeline(*pipeline, b);
    ASSERT_TRUE(stats.deadlock);
    EXPECT_NE(stats.deadlockInfo.find("trace post-mortem"),
              std::string::npos)
        << stats.deadlockInfo;
    EXPECT_NE(stats.deadlockInfo.find("enq_block"), std::string::npos)
        << stats.deadlockInfo;
}

// ---------------------------------------------------------------------
// File round-trip.
// ---------------------------------------------------------------------

TEST(Trace, WriteJsonRoundTripsThroughDisk)
{
    trace::Tracer tracer{trace::Timebase::kSimCycles};
    trace::TraceBuffer* buf = tracer.addWorker("w\"ith\nodd name", true);
    buf->record(trace::EventKind::kBarrierWait, -1, 2, 11);
    buf->record(trace::EventKind::kHalt, -1, 12, 12);

    std::string path =
        (std::filesystem::temp_directory_path() / "phloem_trace_test.json")
            .string();
    std::string err;
    ASSERT_TRUE(tracer.writeJson(path, &err)) << err;

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream text;
    text << in.rdbuf();
    checkTraceJson(tracer, text.str(), "sim_cycles");
    std::remove(path.c_str());

    std::string werr;
    EXPECT_FALSE(
        tracer.writeJson("/nonexistent-dir/phloem/trace.json", &werr));
    EXPECT_FALSE(werr.empty());
}

} // namespace
} // namespace phloem
