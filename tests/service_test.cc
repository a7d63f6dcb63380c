/**
 * @file
 * Tests for the phloemd service: the compiled-pipeline cache (bit-exact
 * hits, LRU eviction, fingerprint-keyed invalidation, single-flight),
 * the framed wire protocol, and the server end to end over a real
 * Unix-domain socket.
 *
 * The cache-correctness core is a differential oracle: a pipeline
 * served from cache must produce an output image bit-identical to a
 * fresh cold compile of the same source — if flattening-once-and-
 * sharing ever diverged from flattening-per-run, this is the test that
 * pays for it.
 */

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "driver/compile_service.h"
#include "metrics/metrics.h"
#include "runtime/jit.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "sim/binding.h"
#include "sim/config.h"

namespace phloem {
namespace {

constexpr const char* kSpmv = R"(#pragma phloem
void spmv(const int* restrict row, const int* restrict col,
          const double* restrict val, const double* restrict x,
          double* restrict y, int n) {
    for (int i = 0; i < n; i++) {
        double sum = 0.0;
        int start = row[i];
        int end = row[i + 1];
        for (int k = start; k < end; k++) {
            sum = sum + val[k] * x[col[k]];
        }
        y[i] = sum;
    }
}
)";

constexpr const char* kStream = R"(#pragma phloem
void stream_add(const int* restrict idx, const long* restrict a,
                long* restrict out, int n) {
    for (int i = 0; i < n; i++) {
        long v = a[idx[i]];
        out[i] = v + 7;
    }
}
)";

driver::CompileSpec
specFor(const char* source)
{
    driver::CompileSpec spec;
    spec.source = source;
    spec.opts.numStages = 4;
    return spec;
}

/**
 * Native-run a compiled pipeline on the tier it was prepared for,
 * returning the output-image hash.
 */
uint64_t
runForHash(const driver::CompiledPipeline& cp, int64_t size)
{
    sim::Binding binding;
    driver::synthesizeBinding(*cp.kernel.fn, size, binding);
    driver::RunSpec run;
    run.backend = driver::Backend::kNative;
    run.size = size;
    run.cfg = sim::SysConfig::scaledEval();
    driver::ExecOutcome out = driver::runCompiled(cp, run, binding);
    EXPECT_TRUE(out.ok) << out.error;
    return driver::hashBinding(binding);
}

// ---------------------------------------------------------------------
// PipelineCache
// ---------------------------------------------------------------------

TEST(ServiceCache, CacheHitIsBitIdenticalToColdCompile)
{
    driver::CompileSpec spec = specFor(kSpmv);
    sim::SysConfig cfg = sim::SysConfig::scaledEval();
    svc::PipelineCache cache(4);

    // Cold: compiles and inserts.
    std::string err;
    bool hit = true;
    auto cold = cache.getOrCompile(
        svc::cacheKey(cfg, spec),
        [&] { return driver::compileSource(spec, &err); }, &hit);
    ASSERT_NE(cold, nullptr) << err;
    ASSERT_TRUE(cold->ok()) << cold->error;
    EXPECT_FALSE(hit);

    // Hit: must be the same object — no second compile happened.
    auto cached = cache.getOrCompile(
        svc::cacheKey(cfg, spec),
        [&]() -> driver::CompiledPipelinePtr {
            ADD_FAILURE() << "cache hit must not recompile";
            return nullptr;
        },
        &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(cached.get(), cold.get());

    // Differential oracle: an independent cold compile of the same
    // source, run over the same synthesized inputs, must produce a
    // bit-identical output image to a run through the cached pipeline.
    auto fresh = driver::compileSource(spec, &err);
    ASSERT_NE(fresh, nullptr) << err;
    ASSERT_TRUE(fresh->ok()) << fresh->error;
    EXPECT_EQ(runForHash(*cached, 512), runForHash(*fresh, 512));

    auto s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.entries, 1u);
}

TEST(ServiceCache, LruEvictionUnderSmallCapacity)
{
    svc::PipelineCache cache(2);
    std::string err;
    auto cp = driver::compileSource(specFor(kStream), &err);
    ASSERT_NE(cp, nullptr) << err;

    cache.insert("a", cp);
    cache.insert("b", cp);
    // Touch "a" so "b" becomes least recently used.
    EXPECT_NE(cache.lookup("a"), nullptr);
    cache.insert("c", cp);

    EXPECT_NE(cache.lookup("a"), nullptr);
    EXPECT_EQ(cache.lookup("b"), nullptr) << "LRU entry must be evicted";
    EXPECT_NE(cache.lookup("c"), nullptr);

    auto s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.capacity, 2u);
}

TEST(ServiceCache, ZeroCapacityDisablesCaching)
{
    svc::PipelineCache cache(0);
    std::string err;
    auto cp = driver::compileSource(specFor(kStream), &err);
    ASSERT_NE(cp, nullptr) << err;
    cache.insert("a", cp);
    EXPECT_EQ(cache.lookup("a"), nullptr);
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ServiceCache, ConfigFingerprintMismatchForcesRecompile)
{
    driver::CompileSpec spec = specFor(kSpmv);
    sim::SysConfig a = sim::SysConfig::scaledEval();
    sim::SysConfig b = a;
    b.queueDepth = 8; // a Table III knob: different machine, new key

    EXPECT_NE(svc::cacheKey(a, spec), svc::cacheKey(b, spec));

    svc::PipelineCache cache(4);
    std::string err;
    int compiles = 0;
    auto factory = [&] {
        ++compiles;
        return driver::compileSource(spec, &err);
    };
    bool hit = true;
    cache.getOrCompile(svc::cacheKey(a, spec), factory, &hit);
    EXPECT_FALSE(hit);
    cache.getOrCompile(svc::cacheKey(b, spec), factory, &hit);
    EXPECT_FALSE(hit) << "same source on a new machine config must miss";
    EXPECT_EQ(compiles, 2);
    cache.getOrCompile(svc::cacheKey(a, spec), factory, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(compiles, 2);
}

TEST(ServiceCache, KeyDependsOnSourceAndOptions)
{
    sim::SysConfig cfg = sim::SysConfig::scaledEval();
    driver::CompileSpec a = specFor(kSpmv);
    driver::CompileSpec b = specFor(kStream);
    EXPECT_NE(svc::cacheKey(cfg, a), svc::cacheKey(cfg, b));

    driver::CompileSpec c = a;
    c.opts.numStages = 2;
    EXPECT_NE(svc::cacheKey(cfg, a), svc::cacheKey(cfg, c));
}

TEST(ServiceCache, JitTierEntriesCarryArtifactsUnderTheirOwnKey)
{
    // A kJit compile prebuilds decoded shapes AND native stage
    // artifacts into the cache entry — a hit skips decode and codegen
    // entirely. The tier is part of the key, so a jit entry (which
    // carries dlopen'd .so handles) is never served to a default-tier
    // request, and vice versa.
    driver::CompileSpec plain = specFor(kStream);
    driver::CompileSpec jit = specFor(kStream);
    jit.tier = rt::TierMode::kJit;
    sim::SysConfig cfg = sim::SysConfig::scaledEval();
    EXPECT_NE(svc::cacheKey(cfg, plain), svc::cacheKey(cfg, jit));

    std::string err;
    auto cp = driver::compileSource(jit, &err);
    ASSERT_NE(cp, nullptr) << err;
    ASSERT_TRUE(cp->ok()) << cp->error;
    const rt::PreparedPipeline& prep = cp->prepared;
    EXPECT_EQ(prep.tier, rt::TierMode::kJit);
    ASSERT_EQ(prep.stages.size(), cp->compiled.pipeline->stages.size());
    int compiled = 0;
    for (const rt::PreparedStage& stage : prep.stages) {
        // Every stage carries its decoded shape (program + kEnd
        // sentinel) and an artifact, failed builds included.
        ASSERT_EQ(stage.shape.code.size(), stage.program.code.size() + 1);
        ASSERT_NE(stage.jit, nullptr);
        if (stage.jit->ok())
            ++compiled;
    }
    EXPECT_GT(compiled, 0) << "no stage JIT-compiled: "
                           << prep.stages[0].jit->error;

    // Differential oracle across tiers: the prebuilt-artifact run must
    // be bit-identical to a plain engine-tier compile+run.
    auto ep = driver::compileSource(plain, &err);
    ASSERT_NE(ep, nullptr) << err;
    ASSERT_TRUE(ep->ok()) << ep->error;
    EXPECT_EQ(ep->prepared.tier, rt::TierMode::kEngine);
    ASSERT_EQ(ep->prepared.stages.size(), prep.stages.size());
    for (const rt::PreparedStage& stage : ep->prepared.stages)
        EXPECT_EQ(stage.jit, nullptr) << "default tier must not pay codegen";
    EXPECT_EQ(runForHash(*cp, 512), runForHash(*ep, 512));
}

TEST(ServiceCache, SingleFlightCompilesOnceUnderContention)
{
    driver::CompileSpec spec = specFor(kStream);
    sim::SysConfig cfg = sim::SysConfig::scaledEval();
    std::string key = svc::cacheKey(cfg, spec);
    svc::PipelineCache cache(4);

    std::atomic<int> compiles{0};
    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    std::vector<driver::CompiledPipelinePtr> got(kThreads);
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            std::string err;
            got[static_cast<size_t>(t)] = cache.getOrCompile(
                key,
                [&] {
                    compiles.fetch_add(1);
                    return driver::compileSource(spec, &err);
                },
                nullptr);
        });
    }
    for (auto& th : threads) th.join();

    EXPECT_EQ(compiles.load(), 1)
        << "concurrent identical requests must share one compile";
    for (const auto& cp : got) {
        ASSERT_NE(cp, nullptr);
        EXPECT_EQ(cp.get(), got[0].get());
    }
}

// ---------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------

TEST(ServiceProtocol, RequestRoundTripsThroughJson)
{
    svc::Request req;
    req.op = "run";
    req.source = kStream;
    req.kernel = "stream_add";
    req.backend = "sim";
    req.stages = 3;
    req.size = 1000;
    req.timeoutMs = 1234;
    req.noCache = true;
    req.tier = "jit";

    svc::Request back;
    std::string err;
    ASSERT_TRUE(svc::Request::fromJson(req.toJson(), &back, &err)) << err;
    EXPECT_EQ(back.source, req.source);
    EXPECT_EQ(back.kernel, req.kernel);
    EXPECT_EQ(back.backend, "sim");
    EXPECT_EQ(back.stages, 3);
    EXPECT_EQ(back.size, 1000);
    EXPECT_EQ(back.timeoutMs, 1234);
    EXPECT_TRUE(back.noCache);
    EXPECT_EQ(back.tier, "jit");
}

TEST(ServiceProtocol, RejectsMalformedRequests)
{
    svc::Request req;
    std::string err;
    EXPECT_FALSE(svc::Request::fromJson("not json", &req, &err));
    EXPECT_FALSE(svc::Request::fromJson("{}", &req, &err));
    EXPECT_FALSE(
        svc::Request::fromJson(R"({"op":"explode"})", &req, &err));
    // A run without source is structurally invalid.
    EXPECT_FALSE(svc::Request::fromJson(R"({"op":"run"})", &req, &err));
    // Out-of-range parameters are rejected, not clamped silently.
    EXPECT_FALSE(svc::Request::fromJson(
        R"({"op":"run","source":"x","stages":0})", &req, &err));
    // An unrecognized tier is a protocol error, not a silent default;
    // so are the spellings of the removed interpreter tier.
    for (const char* tier : {"turbo", "interp", "interpreter"}) {
        err.clear();
        EXPECT_FALSE(svc::Request::fromJson(
            std::string(R"({"op":"run","source":"x","tier":")") + tier +
                R"("})",
            &req, &err))
            << tier;
        EXPECT_NE(err.find("tier must be"), std::string::npos)
            << tier << ": " << err;
    }
}

TEST(ServiceProtocol, FramingRejectsBadMagicAndOversize)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::string err;

    // A valid frame round-trips.
    ASSERT_TRUE(svc::writeFrame(fds[1], "hello", &err)) << err;
    std::string payload;
    EXPECT_EQ(svc::readFrame(fds[0], &payload, &err),
              svc::ReadResult::kOk);
    EXPECT_EQ(payload, "hello");

    // Bad magic is an error, not a hang.
    const char junk[8] = {'J', 'U', 'N', 'K', 1, 0, 0, 0};
    ASSERT_EQ(::write(fds[1], junk, sizeof junk), 8);
    EXPECT_EQ(svc::readFrame(fds[0], &payload, &err),
              svc::ReadResult::kError);

    // A length beyond kMaxFrameBytes is rejected before any payload read.
    char big[8] = {'P', 'H', 'L', 'O', 0, 0, 0, 0x7f};
    ASSERT_EQ(::write(fds[1], big, sizeof big), 8);
    EXPECT_EQ(svc::readFrame(fds[0], &payload, &err),
              svc::ReadResult::kError);

    ::close(fds[1]);
    // Clean EOF after the writer closes.
    EXPECT_EQ(svc::readFrame(fds[0], &payload, &err),
              svc::ReadResult::kEof);
    ::close(fds[0]);
}

TEST(ServiceProtocol, FrameReassemblesAcrossTinySocketBuffer)
{
    // Shrink the send buffer far below the payload so one frame needs
    // many kernel-level writes; writeAll must keep going until every
    // byte is out, and readFrame must reassemble the split frame.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    int tiny = 1; // the kernel clamps this up to its floor (~4 KiB)
    ASSERT_EQ(::setsockopt(fds[1], SOL_SOCKET, SO_SNDBUF, &tiny,
                           sizeof tiny),
              0);

    std::string payload(1 << 20, '\0');
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<char>('a' + (i % 23));

    // Reader must drain concurrently or the tiny buffer deadlocks the
    // writer — which is exactly the condition that forces short writes.
    std::string got, rerr;
    svc::ReadResult rr = svc::ReadResult::kError;
    std::thread reader(
        [&] { rr = svc::readFrame(fds[0], &got, &rerr); });
    std::string werr;
    bool wrote = svc::writeFrame(fds[1], payload, &werr);
    reader.join();

    EXPECT_TRUE(wrote) << werr;
    EXPECT_EQ(rr, svc::ReadResult::kOk) << rerr;
    EXPECT_EQ(got, payload);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(ServiceProtocol, WriteToDisconnectedPeerFailsWithoutSigpipe)
{
    // A client that vanishes mid-response used to kill the whole daemon
    // with SIGPIPE out of raw write(); it must surface as an ordinary
    // error on this connection only. If the fix regresses, this test
    // dies of the signal rather than failing an expectation.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ::close(fds[0]);

    std::string err;
    EXPECT_FALSE(svc::writeFrame(fds[1], "anyone there?", &err));
    EXPECT_FALSE(err.empty());
    ::close(fds[1]);
}

// ---------------------------------------------------------------------
// Server end to end
// ---------------------------------------------------------------------

std::string
testSocketPath(const char* tag)
{
    return "/tmp/phloem_service_test_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + ".sock";
}

TEST(ServiceServer, ServesColdThenHitWithIdenticalOutput)
{
    svc::ServerOptions opts;
    opts.socketPath = testSocketPath("e2e");
    opts.workers = 2;
    opts.cacheCapacity = 8;
    svc::Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    svc::Client client;
    ASSERT_TRUE(client.connect(opts.socketPath, &err)) << err;

    svc::Request ping;
    ping.op = "ping";
    svc::Response resp;
    ASSERT_TRUE(client.call(ping, &resp, &err)) << err;
    EXPECT_TRUE(resp.ok);

    svc::Request run;
    run.op = "run";
    run.source = kSpmv;
    run.size = 256;
    svc::Response cold;
    ASSERT_TRUE(client.call(run, &cold, &err)) << err;
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_EQ(cold.cache, "miss");
    EXPECT_GT(cold.compileNs, 0.0);
    EXPECT_GT(cold.stages, 1);
    EXPECT_FALSE(cold.outputHash.empty());

    svc::Response hot;
    ASSERT_TRUE(client.call(run, &hot, &err)) << err;
    ASSERT_TRUE(hot.ok) << hot.error;
    EXPECT_EQ(hot.cache, "hit");
    EXPECT_EQ(hot.compileNs, 0.0) << "hits must not pay a compile";
    EXPECT_EQ(hot.outputHash, cold.outputHash)
        << "cache hit must be bit-identical to the cold compile";

    // no_cache bypasses but still computes the same image.
    run.noCache = true;
    svc::Response bypass;
    ASSERT_TRUE(client.call(run, &bypass, &err)) << err;
    ASSERT_TRUE(bypass.ok) << bypass.error;
    EXPECT_EQ(bypass.cache, "bypass");
    EXPECT_EQ(bypass.outputHash, cold.outputHash);

    svc::Request stats;
    stats.op = "stats";
    svc::Response st;
    ASSERT_TRUE(client.call(stats, &st, &err)) << err;
    EXPECT_TRUE(st.ok);
    EXPECT_EQ(st.cacheHits, 1u);
    EXPECT_EQ(st.cacheMisses, 1u);
    EXPECT_GE(st.requestsServed, 4u);

    server.stop();
}

TEST(ServiceServer, JitTierRequestsHitTheirOwnCacheEntryBitIdentically)
{
    svc::ServerOptions opts;
    opts.socketPath = testSocketPath("jit");
    opts.workers = 2;
    opts.cacheCapacity = 8;
    svc::Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    svc::Client client;
    ASSERT_TRUE(client.connect(opts.socketPath, &err)) << err;

    // Default-tier run first: seeds the non-jit cache entry.
    svc::Request run;
    run.op = "run";
    run.source = kStream;
    run.size = 256;
    svc::Response plain;
    ASSERT_TRUE(client.call(run, &plain, &err)) << err;
    ASSERT_TRUE(plain.ok) << plain.error;
    EXPECT_EQ(plain.cache, "miss");

    // Same source with tier=jit keys a distinct entry (the jit entry
    // carries .so artifacts, so it must never alias the default one)...
    run.tier = "jit";
    svc::Response cold;
    ASSERT_TRUE(client.call(run, &cold, &err)) << err;
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_EQ(cold.cache, "miss")
        << "jit tier must not alias the default-tier cache entry";
    EXPECT_EQ(cold.outputHash, plain.outputHash)
        << "jit run must be bit-identical to the default tier";

    // ...and the second jit request is a hit: no recompile, no
    // re-codegen, same image.
    svc::Response hot;
    ASSERT_TRUE(client.call(run, &hot, &err)) << err;
    ASSERT_TRUE(hot.ok) << hot.error;
    EXPECT_EQ(hot.cache, "hit");
    EXPECT_EQ(hot.compileNs, 0.0) << "jit hits must not pay codegen";
    EXPECT_EQ(hot.outputHash, cold.outputHash);

    server.stop();
}

TEST(ServiceServer, ReportsCompileErrorsWithoutDying)
{
    svc::ServerOptions opts;
    opts.socketPath = testSocketPath("err");
    opts.workers = 1;
    svc::Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    svc::Client client;
    ASSERT_TRUE(client.connect(opts.socketPath, &err)) << err;

    svc::Request run;
    run.op = "run";
    run.source = "void broken( {";
    svc::Response resp;
    ASSERT_TRUE(client.call(run, &resp, &err)) << err;
    EXPECT_FALSE(resp.ok);
    EXPECT_NE(resp.error.find("compile failed"), std::string::npos)
        << resp.error;

    // The connection — and the server — survive a failed request.
    svc::Request ping;
    ping.op = "ping";
    ASSERT_TRUE(client.call(ping, &resp, &err)) << err;
    EXPECT_TRUE(resp.ok);

    server.stop();
}

TEST(ServiceServer, ShutdownOpDrainsGracefully)
{
    svc::ServerOptions opts;
    opts.socketPath = testSocketPath("drain");
    opts.workers = 2;
    svc::Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    svc::Client client;
    ASSERT_TRUE(client.connect(opts.socketPath, &err)) << err;
    svc::Request shutdown;
    shutdown.op = "shutdown";
    svc::Response resp;
    ASSERT_TRUE(client.call(shutdown, &resp, &err)) << err;
    EXPECT_TRUE(resp.ok);

    // wait() must return: acceptor and workers exit on their own.
    server.wait();
    server.stop();

    // The socket is gone; new connections fail.
    svc::Client late;
    EXPECT_FALSE(late.connect(opts.socketPath, &err));
}

TEST(ServiceServer, ConcurrentClientsShareTheCache)
{
    svc::ServerOptions opts;
    opts.socketPath = testSocketPath("conc");
    opts.workers = 4;
    opts.cacheCapacity = 8;
    svc::Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    constexpr int kClients = 4;
    constexpr int kRequests = 3;
    std::atomic<int> failures{0};
    std::vector<std::string> hashes(kClients);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            svc::Client client;
            std::string terr;
            if (!client.connect(opts.socketPath, &terr)) {
                failures.fetch_add(1);
                return;
            }
            svc::Request run;
            run.op = "run";
            run.source = kStream;
            run.size = 128;
            for (int r = 0; r < kRequests; ++r) {
                svc::Response resp;
                if (!client.call(run, &resp, &terr) || !resp.ok) {
                    failures.fetch_add(1);
                    return;
                }
                hashes[static_cast<size_t>(c)] = resp.outputHash;
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
    for (int c = 1; c < kClients; ++c) {
        EXPECT_EQ(hashes[static_cast<size_t>(c)], hashes[0]);
    }
    // One compile total: every other request was a hit or a
    // single-flight wait.
    auto s = server.cacheStats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits,
              static_cast<uint64_t>(kClients * kRequests - 1));
    server.stop();
}

// ---------------------------------------------------------------------
// Observability: health/stats verbs and request-scoped traces
// ---------------------------------------------------------------------

TEST(ServiceServer, HealthVerbReportsLiveState)
{
    svc::ServerOptions opts;
    opts.socketPath = testSocketPath("health");
    opts.workers = 3;
    svc::Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    svc::Client client;
    ASSERT_TRUE(client.connect(opts.socketPath, &err)) << err;
    svc::Request health;
    health.op = "health";
    svc::Response resp;
    ASSERT_TRUE(client.call(health, &resp, &err)) << err;
    EXPECT_TRUE(resp.ok);
    EXPECT_EQ(resp.state, "serving");
    EXPECT_EQ(resp.workersTotal, 3);
    EXPECT_GE(resp.uptimeS, 0.0);
    EXPECT_GE(resp.inflight, 0);
    EXPECT_GE(resp.queuedConns, 0);

    server.stop();
}

TEST(ServiceServer, StatsVerbReturnsParseableWindowedReport)
{
    svc::ServerOptions opts;
    opts.socketPath = testSocketPath("statsrep");
    opts.workers = 2;
    opts.statsWindowSec = 30;
    svc::Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    svc::Client client;
    ASSERT_TRUE(client.connect(opts.socketPath, &err)) << err;

    svc::Request run;
    run.op = "run";
    run.source = kStream;
    run.size = 128;
    svc::Response resp;
    ASSERT_TRUE(client.call(run, &resp, &err)) << err;
    ASSERT_TRUE(resp.ok) << resp.error;
    ASSERT_TRUE(client.call(run, &resp, &err)) << err;
    ASSERT_TRUE(resp.ok) << resp.error;

    svc::Request stats;
    stats.op = "stats";
    svc::Response st;
    ASSERT_TRUE(client.call(stats, &st, &err)) << err;
    ASSERT_TRUE(st.ok);
    // The stats verb carries the health fields too.
    EXPECT_EQ(st.state, "serving");

    ASSERT_FALSE(st.reportJson.empty());
    metrics::Report report;
    ASSERT_TRUE(metrics::parseReport(st.reportJson, &report, &err))
        << err;
    const metrics::Run* srun =
        report.findRun("phloemd", {{"source", "stats"}});
    ASSERT_NE(srun, nullptr);

    // Counters agree with what we just drove: 2 run requests, one
    // miss + one hit.
    EXPECT_EQ(srun->top.counters.at("run_requests"), 2u);
    EXPECT_EQ(srun->top.counters.at("cache_hits"), 1u);
    EXPECT_EQ(srun->top.counters.at("cache_misses"), 1u);
    EXPECT_DOUBLE_EQ(srun->top.gauges.at("window_sec"), 30.0);
    EXPECT_DOUBLE_EQ(srun->top.gauges.at("window_requests"), 2.0);
    EXPECT_DOUBLE_EQ(srun->top.gauges.at("window_hit_rate"), 0.5);
    EXPECT_GT(srun->top.gauges.at("window_p95_ns"), 0.0);

    // The latency family holds both scopes per verdict, and the window
    // (nothing has aged out) agrees with the cumulative totals.
    const auto fam = srun->families.find("latency");
    ASSERT_NE(fam, srun->families.end());
    for (const char* verdict : {"hit", "miss", "all"}) {
        for (const char* scope : {"window", "total"}) {
            const metrics::FamilyPoint* p = fam->second.find(
                {{"verdict", verdict}, {"scope", scope}});
            ASSERT_NE(p, nullptr) << verdict << "/" << scope;
            uint64_t expect =
                std::string(verdict) == "all" ? 2u : 1u;
            EXPECT_EQ(p->metrics.counters.at("count"), expect)
                << verdict << "/" << scope;
            EXPECT_GT(p->metrics.gauges.at("p50_ns"), 0.0);
            EXPECT_EQ(p->metrics.dists.at("latency_ns").total, expect);
        }
    }

    server.stop();
}

TEST(ServiceServer, StatsVerbIsCoherentUnderConcurrentLoad)
{
    svc::ServerOptions opts;
    opts.socketPath = testSocketPath("statsload");
    opts.workers = 4;
    opts.cacheCapacity = 8;
    svc::Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    // Drive run requests from two clients while a third hammers the
    // stats verb: every poll must parse, and the counters it reads must
    // be monotone — a torn or half-updated snapshot shows up as a
    // parse failure or a counter going backwards.
    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};
    std::vector<std::thread> drivers;
    for (int c = 0; c < 2; ++c) {
        drivers.emplace_back([&] {
            svc::Client client;
            std::string terr;
            if (!client.connect(opts.socketPath, &terr)) {
                failures.fetch_add(1);
                return;
            }
            svc::Request run;
            run.op = "run";
            run.source = kStream;
            run.size = 128;
            for (int r = 0; r < 6 && !stop.load(); ++r) {
                svc::Response resp;
                if (!client.call(run, &resp, &terr) || !resp.ok)
                    failures.fetch_add(1);
            }
        });
    }

    {
        svc::Client poller;
        ASSERT_TRUE(poller.connect(opts.socketPath, &err)) << err;
        uint64_t last_requests = 0;
        uint64_t last_lookups = 0;
        for (int i = 0; i < 20; ++i) {
            svc::Request stats;
            stats.op = "stats";
            svc::Response st;
            ASSERT_TRUE(poller.call(stats, &st, &err)) << err;
            ASSERT_TRUE(st.ok);
            metrics::Report report;
            ASSERT_TRUE(
                metrics::parseReport(st.reportJson, &report, &err))
                << err;
            const metrics::Run* srun =
                report.findRun("phloemd", {{"source", "stats"}});
            ASSERT_NE(srun, nullptr);
            auto c = [&srun](const char* name) {
                auto it = srun->top.counters.find(name);
                return it != srun->top.counters.end() ? it->second : 0;
            };
            uint64_t requests = c("run_requests");
            uint64_t lookups = c("cache_hits") + c("cache_misses");
            EXPECT_GE(requests, last_requests)
                << "run_requests went backwards";
            EXPECT_GE(lookups, last_lookups)
                << "cache lookups went backwards";
            EXPECT_GE(srun->top.gauges.at("inflight"), 0.0);
            last_requests = requests;
            last_lookups = lookups;
        }
    }

    stop.store(true);
    for (auto& t : drivers) t.join();
    EXPECT_EQ(failures.load(), 0);
    server.stop();
}

TEST(ServiceServer, TracedRequestWritesServiceAndRuntimeSpans)
{
    std::string trace_dir = "/tmp/phloem_service_test_traces_" +
                            std::to_string(::getpid());
    ::mkdir(trace_dir.c_str(), 0755);

    svc::ServerOptions opts;
    opts.socketPath = testSocketPath("trace");
    opts.workers = 1;
    opts.traceDir = trace_dir;
    svc::Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    svc::Client client;
    ASSERT_TRUE(client.connect(opts.socketPath, &err)) << err;

    svc::Request run;
    run.op = "run";
    run.source = kStream;
    run.size = 128;
    run.trace = true;
    svc::Response resp;
    ASSERT_TRUE(client.call(run, &resp, &err)) << err;
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_FALSE(resp.requestId.empty());
    ASSERT_FALSE(resp.tracePath.empty());

    std::ifstream in(resp.tracePath);
    ASSERT_TRUE(in.good()) << "trace file missing: " << resp.tracePath;
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string trace = buf.str();

    // Service spans and the request id share the file with the
    // runtime's own events — one time axis per request.
    EXPECT_NE(trace.find("svc_cache_lookup"), std::string::npos);
    EXPECT_NE(trace.find("svc_compile"), std::string::npos);
    EXPECT_NE(trace.find("svc_run"), std::string::npos);
    EXPECT_NE(trace.find("\"request_id\":\"" + resp.requestId + "\""),
              std::string::npos)
        << trace.substr(0, 400);
    EXPECT_NE(trace.find("traceEvents"), std::string::npos);

    // A cache hit of the same source traces again (no compile span this
    // time — the lookup short-circuits it) under a fresh request id.
    svc::Response hot;
    ASSERT_TRUE(client.call(run, &hot, &err)) << err;
    ASSERT_TRUE(hot.ok) << hot.error;
    EXPECT_EQ(hot.cache, "hit");
    ASSERT_FALSE(hot.tracePath.empty());
    EXPECT_NE(hot.tracePath, resp.tracePath);
    EXPECT_NE(hot.requestId, resp.requestId);

    // Without the flag no trace is produced.
    run.trace = false;
    svc::Response plain;
    ASSERT_TRUE(client.call(run, &plain, &err)) << err;
    ASSERT_TRUE(plain.ok) << plain.error;
    EXPECT_TRUE(plain.tracePath.empty());

    server.stop();
}

} // namespace
} // namespace phloem
