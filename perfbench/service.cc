/**
 * @file
 * The service-mix workload: an in-process phloemd Server (2 workers,
 * native backend, default tier) driven by 2 closed-loop Clients in the
 * same process. Each request names a kernel drawn by seeded choice from
 * a pool larger than the pipeline cache, so misses (compile, insert,
 * evict) interleave with hits (lookup only). Every response's output
 * hash is checked against a serial reference computed at set-up.
 */

#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "base/rng.h"
#include "base/stats_util.h"
#include "bench.h"
#include "driver/compile_service.h"
#include "frontend/frontend.h"
#include "runtime/runtime.h"
#include "service/client.h"
#include "service/server.h"
#include "spans.h"
#include "testing/progen.h"

namespace perfbench {

namespace {

using namespace phloem;

constexpr int kClients = 2;
constexpr int kWorkers = 2;
/** Pool size over cache capacity sets the hit ratio (about 0.7 with
 *  uniform draws). */
constexpr int kPoolKernels = 6;
constexpr size_t kCacheCapacity = 4;
/** Synthetic input size: small, so per-request costs dominate. */
constexpr int64_t kRequestSize = 64;
/** Closed-loop warm-up before the measured loop. */
constexpr double kWarmupSeconds = 2.0;
/** Time blocks a run is cut into; the end-to-end metrics come from the
 *  quietest (each holds thousands of hits, so its p99 is well founded). */
constexpr size_t kBlocks = 5;
/** Requests drawn per client at set-up (a run wraps around if it needs
 *  more). */
constexpr size_t kScheduleLength = 1 << 16;

constexpr const char* kSpmvSource = R"(#pragma phloem
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

struct PoolKernel
{
    std::string name;
    std::string source;
    int stages = 4;
    /** driver::hashBinding of the serial run's output image. */
    uint64_t refHash = 0;
};

/** One measured request. */
struct Sample
{
    int64_t endNs = 0;  ///< when the reply arrived
    size_t kernel = 0;
    bool hit = false;
    double clientMs = 0.0;
    double totalMs = 0.0;
    double compileMs = 0.0;
    double runMs = 0.0;
    double instructions = 0.0;
};

/**
 * The kernel pool: the spmv kernel plus testing::generateCase kernels
 * sized like phloem-loadgen's pool, from loadgen's default base seed.
 * The pool is fixed; the workload seed drives which kernel each request
 * names. Generated kernels differ in cost by an order of magnitude, so
 * a pool drawn per seed would make every seed a different workload.
 */
std::vector<PoolKernel>
makePool()
{
    constexpr uint64_t kPoolSeed = 1;
    std::vector<PoolKernel> pool;
    pool.push_back({"spmv", kSpmvSource, 4, 0});
    fuzz::GenLimits limits;
    limits.allowReplication = false;
    limits.maxTopStmts = 10;
    limits.maxBlockStmts = 5;
    limits.maxExprDepth = 4;
    for (int i = 1; i < kPoolKernels; ++i) {
        fuzz::FuzzCase fc = fuzz::generateCase(
            fuzz::caseSeed(kPoolSeed, static_cast<uint64_t>(i)), limits);
        pool.push_back({"fuzz_" + std::to_string(fc.seed), fc.source(),
                        fc.knobs.numStages, 0});
    }
    return pool;
}

/** Everything one set-up builds. */
struct Prepared
{
    std::vector<PoolKernel> pool;
    /** Per client, the pool index each successive request names. */
    std::vector<std::vector<uint32_t>> schedule;
    std::unique_ptr<svc::Server> server;
    uint64_t inputDigest = 0;
};

/**
 * One set-up: generate the pool (workloads); per kernel, lower it
 * (frontend), compile it as the server would (driver) and its pipeline
 * on its own (compiler), and compute the serial reference hash (driver
 * for the binding and hash, runtime for the run); then start the
 * server (service).
 */
std::unique_ptr<Prepared>
prepare(const Options& opt, const std::string& socket,
        std::map<std::string, std::vector<double>>* layer_ms, Outcome* out)
{
    auto p = std::make_unique<Prepared>();
    int64_t t0 = nowNs();
    {
        auto s = spans().span("workloads", "make_pool");
        p->pool = makePool();
        for (int c = 0; c < kClients; ++c) {
            Rng rng(fuzz::caseSeed(opt.seed, static_cast<uint64_t>(c)));
            std::vector<uint32_t> draws(kScheduleLength);
            for (auto& d : draws)
                d = static_cast<uint32_t>(rng.nextBounded(p->pool.size()));
            p->schedule.push_back(std::move(draws));
        }
    }
    (*layer_ms)["workloads.gen_ms"].push_back(msSince(t0));

    double fe_ms = 0, drv_ms = 0, comp_ms = 0;
    double stages = 0, queues = 0, ras = 0;
    std::string drawn;
    for (const auto& draws : p->schedule)
        drawn.append(reinterpret_cast<const char*>(draws.data()),
                     draws.size() * sizeof(uint32_t));
    uint64_t digest = driver::fnv1a(drawn);
    for (auto& k : p->pool) {
        digest = (digest * 1099511628211ull) ^ driver::fnv1a(k.source);
        t0 = nowNs();
        fe::CompiledKernel kernel;
        {
            auto s = spans().span("frontend", k.name + ".compile_kernel");
            kernel = fe::compileKernel(k.source);
        }
        fe_ms += msSince(t0);

        driver::CompileSpec spec;
        spec.source = k.source;
        spec.opts.numStages = k.stages;
        std::string err;
        t0 = nowNs();
        driver::CompiledPipelinePtr cp;
        {
            auto s = spans().span("driver", k.name + ".compile_source");
            cp = driver::compileSource(spec, &err);
        }
        drv_ms += msSince(t0);
        if (cp == nullptr || !cp->ok()) {
            out->fail(k.name + ": compile failed " + err);
            return nullptr;
        }
        t0 = nowNs();
        comp::CompileResult cr;
        {
            auto s = spans().span("compiler", k.name + ".compile");
            cr = comp::compilePipeline(*kernel.fn, cp->effectiveOpts);
        }
        comp_ms += msSince(t0);
        if (cr.ok()) {
            stages += static_cast<double>(cr.pipeline->stages.size());
            queues += cr.pipeline->numQueues();
            ras += static_cast<double>(cr.pipeline->ras.size());
        }

        sim::Binding binding;
        {
            auto s = spans().span("driver", k.name + ".synthesize_binding");
            driver::synthesizeBinding(*kernel.fn, kRequestSize, binding);
        }
        rt::NativeStats st;
        {
            auto s = spans().span("runtime", k.name + ".serial_reference");
            st = rt::Runtime(svc::ServerOptions{}.cfg)
                     .runSerial(*kernel.fn, binding);
        }
        if (!st.ok) {
            out->fail(k.name + ": serial reference failed: " + st.error);
            return nullptr;
        }
        {
            auto s = spans().span("driver", k.name + ".hash_binding");
            k.refHash = driver::hashBinding(binding);
        }
        digest = (digest * 1099511628211ull) ^ k.refHash;
    }
    (*layer_ms)["frontend.compile_kernel_ms"].push_back(fe_ms);
    (*layer_ms)["driver.compile_source_ms"].push_back(drv_ms);
    (*layer_ms)["compiler.compile_ms"].push_back(comp_ms);
    out->layer["compiler.stages"] = stages;
    out->layer["compiler.queues"] = queues;
    out->layer["compiler.ras"] = ras;
    p->inputDigest = digest;

    svc::ServerOptions so;
    so.socketPath = socket;
    so.workers = kWorkers;
    so.cacheCapacity = kCacheCapacity;
    std::string err;
    {
        auto s = spans().span("service", "server_start");
        p->server = std::make_unique<svc::Server>(so);
        if (!p->server->start(&err) ||
            !svc::waitForServer(socket, 5000, &err)) {
            out->fail("server start: " + err);
            return nullptr;
        }
    }
    return p;
}

/** State every client shares; `out` is guarded by `mu`. */
struct Shared
{
    std::string socket;
    const std::vector<PoolKernel>* pool = nullptr;
    int64_t deadline = 0;
    Outcome* out = nullptr;
    std::mutex mu;

    void
    count(const std::string& failure)
    {
        std::lock_guard<std::mutex> lock(mu);
        ++out->attempted;
        if (!failure.empty())
            out->fail(failure);
    }
};

/** One client's requests and what it measured. */
struct ClientRun
{
    std::vector<uint32_t> schedule;  ///< pool index per request, in order
    /** Traced mode: even requests traced, odd ones not. */
    bool alternateTracing = false;
    bool corruptFirst = false;
    std::vector<Sample> samples;
    std::vector<double> tracedMs, untracedMs;
};

/**
 * One client's closed loop until the deadline: send, wait for the
 * reply, check its output hash against the serial reference, repeat.
 */
void
clientLoop(Shared* sh, ClientRun* run)
{
    svc::Client client;
    std::string err;
    if (!client.connect(sh->socket, &err)) {
        sh->count("connect: " + err);
        return;
    }
    for (size_t r = 0; nowNs() < sh->deadline; ++r) {
        size_t idx = run->schedule[r % run->schedule.size()];
        const PoolKernel& k = (*sh->pool)[idx];
        svc::Request req;
        req.source = k.source;
        req.stages = k.stages;
        req.size = kRequestSize;
        svc::Response resp;
        bool traced = run->alternateTracing && r % 2 == 0;
        Spans::setThreadRecording(traced);
        int64_t t0 = nowNs();
        bool sent = false;
        {
            auto s = spans().span("service", k.name + ".request");
            sent = client.call(req, &resp, &err);
            s.setRequestId(resp.requestId);
        }
        double client_ms = msSince(t0);
        Spans::setThreadRecording(true);
        if (!sent) {
            sh->count("transport: " + err);
            return;
        }
        if (!resp.ok) {
            sh->count(k.name + " " + resp.requestId + ": " + resp.error);
            continue;
        }
        uint64_t expect = k.refHash ^ (run->corruptFirst && r == 0 ? 1 : 0);
        if (std::strtoull(resp.outputHash.c_str(), nullptr, 16) != expect) {
            sh->count(k.name + " " + resp.requestId + ": output hash " +
                      resp.outputHash + " differs from the serial reference");
            continue;
        }
        sh->count("");
        Sample smp;
        smp.endNs = t0 + static_cast<int64_t>(client_ms * 1e6);
        smp.kernel = idx;
        smp.hit = resp.cache == "hit";
        smp.clientMs = client_ms;
        smp.totalMs = resp.totalNs / 1e6;
        smp.compileMs = resp.compileNs / 1e6;
        smp.runMs = resp.runNs / 1e6;
        smp.instructions = static_cast<double>(resp.instructions);
        run->samples.push_back(smp);
        if (run->alternateTracing)
            (traced ? run->tracedMs : run->untracedMs).push_back(client_ms);
    }
}

/**
 * The end-to-end metrics, from the quietest of kBlocks equal time blocks
 * of the run (the one with the lowest hit median): co-tenants on a
 * shared host slow whole stretches of a run, and the quietest block is
 * what repeats from run to run. Speedups are, per kernel, the miss
 * median over the hit median.
 */
void
reportQuietestBlock(const std::vector<ClientRun>& runs, size_t kernels,
                    int64_t t0, int64_t t1, Outcome* out)
{
    std::vector<std::vector<const Sample*>> by_block(kBlocks);
    for (const ClientRun& run : runs)
        for (const Sample& s : run.samples)
            by_block[blockOf(s.endNs, t0, t1, kBlocks)].push_back(&s);
    auto hit_ms = [](const std::vector<const Sample*>& block) {
        std::vector<double> v;
        for (const Sample* s : block)
            if (s->hit)
                v.push_back(s->clientMs);
        return v;
    };
    size_t quiet = 0;
    double quiet_ms = 0.0;
    for (size_t b = 0; b < kBlocks; ++b) {
        std::vector<double> hits = hit_ms(by_block[b]);
        if (!hits.empty() && (quiet_ms == 0.0 || median(hits) < quiet_ms)) {
            quiet = b;
            quiet_ms = median(hits);
        }
    }
    const auto& block = by_block[quiet];

    std::vector<double> hits = hit_ms(block), misses;
    std::vector<std::vector<double>> hit_by_k(kernels), miss_by_k(kernels);
    double instructions = 0;
    for (const Sample* s : block) {
        if (!s->hit)
            misses.push_back(s->clientMs);
        (s->hit ? hit_by_k : miss_by_k)[s->kernel].push_back(s->clientMs);
        instructions += s->instructions;
    }
    std::vector<double> speedups;
    for (size_t k = 0; k < kernels; ++k)
        if (!hit_by_k[k].empty() && !miss_by_k[k].empty())
            speedups.push_back(median(miss_by_k[k]) / median(hit_by_k[k]));
    double block_s =
        static_cast<double>(t1 - t0) / 1e9 / static_cast<double>(kBlocks);

    out->e2e["fast_ms_p50"] = median(hits);
    out->e2e["fast_ms_tail"] = percentile(hits, 99.0);
    out->e2e["base_ms_p50"] = median(misses);
    out->e2e["speedup_gmean"] = gmean(speedups);
    out->e2e["worst_speedup"] =
        speedups.empty() ? 0.0
                         : *std::min_element(speedups.begin(), speedups.end());
    out->e2e["ops_per_s"] = static_cast<double>(block.size()) / block_s;
    out->e2e["minst_per_s"] = instructions / 1e6 / block_s;
    out->layer["samples.fast"] = static_cast<double>(hits.size());
    out->layer["samples.base"] = static_cast<double>(misses.size());
}

} // namespace

Outcome
runServiceMix(const Options& opt)
{
    Outcome out;
    std::filesystem::create_directories(".bench_build");
    std::string socket =
        ".bench_build/perfbench-" + std::to_string(::getpid()) + ".sock";

    std::map<std::string, std::vector<double>> layer_ms;
    std::vector<double> setup_s;
    std::unique_ptr<Prepared> p;
    for (int i = 0; i < kSetups; ++i) {
        if (p != nullptr)
            p->server->stop();
        int64_t t0 = nowNs();
        p = prepare(opt, socket, &layer_ms, &out);
        setup_s.push_back(msSince(t0) / 1e3);
        if (p == nullptr)
            return out;
    }
    out.e2e["setup_s"] = median(setup_s);
    for (const auto& [name, v] : layer_ms)
        out.layer[name] = median(v);
    out.inputDigest = p->inputDigest;

    Shared sh;
    sh.socket = socket;
    sh.pool = &p->pool;
    sh.out = &out;
    std::vector<ClientRun> runs(kClients);
    for (int c = 0; c < kClients; ++c)
        runs[c].schedule = std::move(p->schedule[c]);
    auto drive = [&](double seconds) {
        sh.deadline = nowNs() + static_cast<int64_t>(seconds * 1e9);
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c)
            clients.emplace_back(clientLoop, &sh, &runs[c]);
        for (auto& t : clients)
            t.join();
    };

    // Warm-up, checked but untimed: the cache, the runtime's task pool
    // and the connections reach their steady state.
    drive(kWarmupSeconds);
    for (int c = 0; c < kClients; ++c) {
        runs[c].samples.clear();
        runs[c].alternateTracing = opt.trace;
        runs[c].corruptFirst = opt.injectFault && c == 0;
    }
    svc::PipelineCache::Stats before = p->server->cacheStats();
    int64_t t0 = nowNs();
    drive(opt.seconds);
    int64_t t1 = nowNs();
    svc::PipelineCache::Stats after = p->server->cacheStats();
    p->server->stop();

    reportQuietestBlock(runs, p->pool.size(), t0, t1, &out);

    // The per-layer metrics cover the whole run.
    std::vector<double> all, hits, run_ms, server, overhead, transport,
        compile, tr, untr;
    std::vector<std::vector<double>> hit_by_k(p->pool.size()),
        miss_by_k(p->pool.size());
    for (const ClientRun& run : runs) {
        for (const Sample& s : run.samples) {
            all.push_back(s.clientMs);
            if (s.hit)
                hits.push_back(s.clientMs);
            else
                compile.push_back(s.compileMs);
            (s.hit ? hit_by_k : miss_by_k)[s.kernel].push_back(s.clientMs);
            run_ms.push_back(s.runMs);
            server.push_back(s.totalMs);
            overhead.push_back(s.totalMs - s.compileMs - s.runMs);
            transport.push_back(s.clientMs - s.totalMs);
        }
        tr.insert(tr.end(), run.tracedMs.begin(), run.tracedMs.end());
        untr.insert(untr.end(), run.untracedMs.begin(), run.untracedMs.end());
    }
    for (size_t k = 0; k < p->pool.size(); ++k)
        std::fprintf(stderr,
                     "perfbench: %-26s %5zu hits p50 %8.3f ms p99 %8.3f ms, "
                     "%5zu misses p50 %8.3f ms\n",
                     p->pool[k].name.c_str(), hit_by_k[k].size(),
                     median(hit_by_k[k]), percentile(hit_by_k[k], 99.0),
                     miss_by_k[k].size(), median(miss_by_k[k]));

    out.layer["service.req_ms_p50"] = median(all);
    out.layer["service.req_ms_p99"] = percentile(all, 99.0);
    out.layer["service.run_ms_p50"] = median(run_ms);
    out.layer["service.run_ms_p99"] = percentile(run_ms, 99.0);
    out.layer["service.server_ms_p99"] = percentile(server, 99.0);
    out.layer["service.overhead_ms_p99"] = percentile(overhead, 99.0);
    out.layer["service.transport_ms_p99"] = percentile(transport, 99.0);
    out.layer["service.compile_ms_p50"] = median(compile);
    out.layer["service.hit_ratio"] =
        all.empty() ? 0.0
                    : static_cast<double>(hits.size()) /
                          static_cast<double>(all.size());
    out.layer["service.evictions"] =
        static_cast<double>(after.evictions - before.evictions);
    if (opt.trace && !untr.empty())
        out.layer["trace.overhead"] = median(tr) / median(untr);
    return out;
}

} // namespace perfbench
