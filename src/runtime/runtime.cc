#include "runtime/runtime.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.h"
#include "base/thread_name.h"
#include "ir/op.h"
#include "runtime/hwcount.h"
#include "runtime/jit.h"
#include "runtime/sched.h"
#include "sim/program.h"

namespace phloem::rt {

namespace {

using Clock = std::chrono::steady_clock;

double
elapsedNs(Clock::time_point t0, Clock::time_point t1)
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
}

/** Task body shared by all workers: route exceptions to RunControl. */
template <typename W>
void
workerMain(W& worker, RunControl& ctl)
{
    try {
        worker.run();
    } catch (const std::exception& e) {
        ctl.fail(worker.stats.name + ": " + e.what());
    }
}

const char*
tierName(TierMode t)
{
    return t == TierMode::kJit ? "jit" : "engine";
}

/**
 * Fold the preparation's JIT build costs and each stage worker's
 * outcome (compiled code or engine fallback) into `out`.
 */
void
recordJit(NativeStats& out, const PreparedPipeline& prepared,
          const std::vector<const StageWorker*>& workers)
{
    if (prepared.tier != TierMode::kJit)
        return;
    for (const PreparedStage& stage : prepared.stages) {
        out.jitEmitNs += stage.jit->emitNs;
        out.jitCompileNs += stage.jit->compileNs;
        out.jitLoadNs += stage.jit->loadNs;
        if (!stage.jit->ok() && out.jitError.empty())
            out.jitError = stage.jit->error;
    }
    for (const StageWorker* w : workers)
        (w->runsJit() ? out.jitStages : out.jitFallbacks)++;
}

} // namespace

PreparedStage
prepareStage(const ir::Function& fn, TierMode tier)
{
    PreparedStage stage;
    stage.program = sim::flatten(fn);
    stage.shape = decodeShape(stage.program);
    if (tier == TierMode::kJit) {
        // A JIT problem is never fatal: the failed artifact downgrades
        // the stage to the engine.
        try {
            stage.jit = jitCompileStage(stage.program, stage.shape,
                                        fn.name);
        } catch (const std::exception& e) {
            auto failed = std::make_shared<JitArtifact>();
            failed->error = std::string("jit setup failed: ") + e.what();
            stage.jit = std::move(failed);
        }
    }
    return stage;
}

PreparedPipeline
preparePipeline(const ir::Pipeline& pipeline, TierMode tier)
{
    PreparedPipeline out;
    out.tier = tier;
    out.stages.reserve(pipeline.stages.size());
    for (const auto& stage : pipeline.stages)
        out.stages.push_back(prepareStage(*stage, tier));
    return out;
}

NativeStats
Runtime::runPipeline(const ir::Pipeline& pipeline, sim::Binding& binding,
                     const PreparedPipeline* prepared)
{
    // Prepare before the timed region; replicas share each stage.
    PreparedPipeline local;
    if (prepared == nullptr) {
        local = preparePipeline(pipeline, opt_.tier);
        prepared = &local;
    }
    phloem_assert(prepared->tier == opt_.tier, "pipeline prepared for ",
                  tierName(prepared->tier), " cannot run on ",
                  tierName(opt_.tier));
    phloem_assert(prepared->stages.size() == pipeline.stages.size(),
                  "prepared stage count (", prepared->stages.size(),
                  ") does not match pipeline stages (",
                  pipeline.stages.size(), ")");

    int replicas = std::max(1, pipeline.replicas);

    // Queue-id stride between replicas, matching the simulator exactly.
    int max_qid = ir::maxQueueId(pipeline);
    int stride =
        pipeline.queueStride > 0 ? pipeline.queueStride : max_qid + 1;
    phloem_assert(stride >= max_qid + 1, "queue stride too small");

    int stages_per_replica = static_cast<int>(pipeline.stages.size());
    int total_threads = stages_per_replica * replicas;
    phloem_assert(total_threads >= 1, "pipeline has no stages");
    int total_workers =
        total_threads + static_cast<int>(pipeline.ras.size()) * replicas;
    // Tasks, not threads: a wide pipeline costs stacks, not cores.
    phloem_assert(total_workers <= 4096,
                  "refusing to schedule that many tasks");

    // Build the rings: default depth from the architecture config,
    // per-queue overrides from the pipeline.
    int num_queues = stride * replicas;
    std::vector<std::unique_ptr<SpscQueue>> queues;
    queues.reserve(static_cast<size_t>(num_queues));
    std::vector<int> depths(static_cast<size_t>(stride), cfg_.queueDepth);
    for (const auto& qc : pipeline.queues)
        if (qc.depth > 0)
            depths[static_cast<size_t>(qc.id)] = qc.depth;
    for (int i = 0; i < num_queues; ++i)
        queues.push_back(
            std::make_unique<SpscQueue>(depths[static_cast<size_t>(
                i % stride)]));

    std::vector<SpscQueue*> queue_ptrs;
    queue_ptrs.reserve(queues.size());
    for (auto& q : queues)
        queue_ptrs.push_back(q.get());

    // Queues targeted by kEnqDist have one producer per replica (every
    // replica's distributor may select them); their pushes must be
    // serialized.
    if (replicas > 1) {
        for (const PreparedStage& stage : prepared->stages) {
            for (const auto& inst : stage.program.code) {
                if (inst.kind == sim::Inst::Kind::kOp &&
                    inst.opcode == ir::Opcode::kEnqDist) {
                    for (int r = 0; r < replicas; ++r)
                        queue_ptrs[static_cast<size_t>(
                                       inst.queue + r * stride)]
                            ->setMultiProducer();
                }
            }
        }
    }

    RunControl ctl;
    ctl.opt = opt_;

    StageBarrier barrier(total_threads);

    std::vector<std::unique_ptr<StageWorker>> stage_workers;
    for (int r = 0; r < replicas; ++r) {
        for (int s = 0; s < stages_per_replica; ++s) {
            std::string name =
                pipeline.stages[static_cast<size_t>(s)]->name +
                (replicas > 1 ? "@" + std::to_string(r) : "");
            stage_workers.push_back(std::make_unique<StageWorker>(
                std::move(name), prepared->stages[static_cast<size_t>(s)],
                binding, r, /*queue_offset=*/r * stride, stride, replicas,
                queue_ptrs, &barrier, &ctl));
        }
    }

    std::vector<std::unique_ptr<RAWorker>> ra_workers;
    std::vector<int> ra_in_qids;
    for (int r = 0; r < replicas; ++r) {
        for (const auto& ra : pipeline.ras) {
            std::string name =
                "ra:" + ra.arrayName +
                (replicas > 1 ? "@" + std::to_string(r) : "");
            ra_workers.push_back(std::make_unique<RAWorker>(
                std::move(name), ra, binding.array(ra.arrayName, r),
                queue_ptrs[static_cast<size_t>(ra.inQueue + r * stride)],
                queue_ptrs[static_cast<size_t>(ra.outQueue + r * stride)],
                &ctl));
            ra_workers.back()->traceInQ = ra.inQueue + r * stride;
            ra_workers.back()->traceOutQ = ra.outQueue + r * stride;
            ra_in_qids.push_back(ra.inQueue + r * stride);
        }
    }

    // Tracing: register one ring per worker (single-writer; must happen
    // before the tasks start) plus a sampler lane that snapshots queue
    // occupancy through the rings' atomic size estimate. With no tracer,
    // every worker keeps a null traceBuf and each hook is a dead branch.
    trace::Tracer* tracer = opt_.tracer;
    trace::TraceBuffer* occ_buf = nullptr;
    std::atomic<bool> sampler_stop{false};
    std::thread sampler;
    if (tracer != nullptr) {
        phloem_assert(tracer->timebase() == trace::Timebase::kWallNs,
                      "native runs trace on the wall-clock timebase");
        for (auto& w : stage_workers)
            w->traceBuf = tracer->addWorker(w->stats.name,
                                            /*is_stage=*/true);
        for (auto& w : ra_workers)
            w->traceBuf = tracer->addWorker(w->stats.name,
                                            /*is_stage=*/false);
        occ_buf = tracer->addWorker("queue-occupancy", /*is_stage=*/false);
        sampler = std::thread([&sampler_stop, occ_buf, &queue_ptrs] {
            setCurrentThreadName("phl-occ-sample");
            // Delta-encoded: a sample is recorded only when the estimate
            // moved, so idle phases cost ring space proportional to
            // activity. sizeApprox is all-atomic, keeping the sampler
            // race-free against producers and consumers.
            std::vector<uint64_t> last(queue_ptrs.size(), ~0ull);
            for (;;) {
                for (size_t i = 0; i < queue_ptrs.size(); ++i) {
                    uint64_t occ = queue_ptrs[i]->sizeApprox();
                    if (occ == last[i])
                        continue;
                    last[i] = occ;
                    uint64_t t = occ_buf->now();
                    occ_buf->record(trace::EventKind::kQueueOcc,
                                    static_cast<int32_t>(i), t, t, occ);
                }
                if (sampler_stop.load(std::memory_order_acquire))
                    return;
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
            }
        });
    }

    // Parallel region: run everyone as parkable tasks on a fixed-size
    // pool, wait for the stage workers (their halt defines completion —
    // RAs never write memory), then release the RAs.
    ResourceUsage ru0 = ResourceUsage::processNow();
    Scheduler::Options hint;
    hint.workers = opt_.schedWorkers;
    hint.stealing = opt_.schedStealing;
    Scheduler& sched = opt_.schedulerOverride != nullptr
                           ? *opt_.schedulerOverride
                           : Scheduler::shared(&hint);
    // Attach the rings' waiter slots before any task can touch them:
    // this is what arms the park/unpark path in the backoff.
    std::vector<QueueWaiters> queue_waiters(static_cast<size_t>(num_queues));
    for (int i = 0; i < num_queues; ++i)
        queue_ptrs[static_cast<size_t>(i)]->setWaiters(
            &queue_waiters[static_cast<size_t>(i)]);
    auto run = sched.createRun(&ctl);
    ctl.schedRun = run.get();
    for (auto& w : ra_workers)
        run->addTask(w->stats.name, /*is_stage=*/false,
                     [&ctl, worker = w.get()] { workerMain(*worker, ctl); });
    for (auto& w : stage_workers)
        run->addTask(w->stats.name, /*is_stage=*/true,
                     [&ctl, worker = w.get()] { workerMain(*worker, ctl); });
    // Pool lanes are snapshot-diffed around the run: the counters belong
    // to the pool threads, which this run only borrows (concurrent runs
    // overlap on the same lanes).
    auto hw_before = sched.hwSnapshot();
    auto t0 = Clock::now();
    run->start();
    run->waitStages();
    auto t1 = Clock::now();
    ctl.stop.store(true, std::memory_order_release);
    // RAs parked on drained inputs cannot observe stop; wake them.
    run->wakeAllTasks();
    run->waitAll();
    std::vector<HwLane> hw_lanes;
    for (const auto& after : sched.hwSnapshot()) {
        HwLane lane;
        lane.name = after.name;
        lane.counts = after.counts;
        for (const auto& before : hw_before) {
            if (before.name == after.name) {
                lane.counts = after.counts.minus(before.counts);
                break;
            }
        }
        hw_lanes.push_back(std::move(lane));
    }
    SchedStats sched_stats;
    sched_stats.shared = true;
    sched_stats.poolSize = sched.poolSize();
    sched_stats.stealing = sched.stealing();
    sched_stats.parks = run->parks();
    sched_stats.unparks = run->unparks();
    sched_stats.steals = run->steals();
    sched_stats.yields = run->yields();
    ctl.schedRun = nullptr;

    if (sampler.joinable()) {
        sampler_stop.store(true, std::memory_order_release);
        sampler.join();
    }

    // Collect results. Values drained into a consumer-side batch buffer
    // but never architecturally dequeued get folded back: they were
    // never consumed by the program, so they count as residual, not deq.
    std::vector<uint64_t> undequeued(static_cast<size_t>(num_queues), 0);
    for (auto& w : stage_workers)
        for (const auto& [qid, n] : w->unconsumed)
            undequeued[static_cast<size_t>(qid)] += n;
    for (size_t k = 0; k < ra_workers.size(); ++k)
        undequeued[static_cast<size_t>(ra_in_qids[k])] +=
            ra_workers[k]->unconsumedIn;

    NativeStats out;
    out.wallNs = elapsedNs(t0, t1);
    out.numStageThreads = total_threads;
    out.numRAWorkers = static_cast<int>(ra_workers.size());
    out.engine = true;
    out.tier = tierName(opt_.tier);
    std::vector<const StageWorker*> stage_ptrs;
    for (const auto& w : stage_workers)
        stage_ptrs.push_back(w.get());
    recordJit(out, *prepared, stage_ptrs);
    out.sched = sched_stats;
    out.hwLanes = std::move(hw_lanes);
    for (const auto& lane : out.hwLanes)
        out.hwValid = out.hwValid || lane.counts.valid;
    out.rusage = ResourceUsage::processNow().minus(ru0);
    for (auto& w : stage_workers)
        out.workers.push_back(w->stats);
    for (auto& w : ra_workers)
        out.workers.push_back(w->stats);
    for (int i = 0; i < num_queues; ++i) {
        const SpscQueue& q = *queue_ptrs[static_cast<size_t>(i)];
        if (q.enqCount() == 0 && q.deqCount() == 0 &&
            q.enqBlocks() == 0 && q.deqBlocks() == 0)
            continue;
        QueueStats qs;
        qs.id = i;
        qs.depth = q.depth();
        uint64_t uncons = undequeued[static_cast<size_t>(i)];
        qs.enq = q.enqCount();
        qs.deq = q.deqCount() - uncons;
        qs.enqBlocks = q.enqBlocks();
        qs.deqBlocks = q.deqBlocks();
        qs.maxOccupancy = q.maxOccupancy();
        // Exact: all workers have joined.
        qs.residual = q.sizeApprox() + uncons;
        qs.popBatches = q.popBatches();
        qs.popBatchElems = q.popBatchElems();
        qs.pushBatches = q.pushBatches();
        qs.pushBatchElems = q.pushBatchElems();
        for (int b = 0; b < QueueStats::kBatchHistBuckets; ++b) {
            qs.pushHist[b] = q.pushHist(b);
            qs.popHist[b] = q.popHist(b);
        }
        out.queues.push_back(qs);
    }
    if (ctl.aborted()) {
        out.ok = false;
        {
            std::lock_guard<std::mutex> g(ctl.errorMu);
            out.error = ctl.error;
        }
        // Watchdog post-mortem: which edges still hold data, and (when
        // traced) what each worker was doing right before the stall.
        std::string residuals;
        for (const auto& qs : out.queues)
            if (qs.residual > 0)
                residuals += "  q" + std::to_string(qs.id) +
                             ": residual occupancy " +
                             std::to_string(qs.residual) + "/" +
                             std::to_string(qs.depth) + "\n";
        if (!residuals.empty())
            out.error += "\nresidual occupancy:\n" + residuals;
        if (tracer != nullptr)
            out.error +=
                "\ntrace post-mortem (trailing events per worker):\n" +
                tracer->postMortem();
        if (!opt_.requestId.empty())
            out.error = "[req " + opt_.requestId + "] " + out.error;
    }
    return out;
}

NativeStats
Runtime::runSerial(const ir::Function& fn, sim::Binding& binding)
{
    PreparedPipeline prepared;
    prepared.tier = opt_.tier;
    prepared.stages.push_back(prepareStage(fn, opt_.tier));
    const sim::Program& prog = prepared.stages[0].program;

    // A serial function must be self-contained: the worker below gets no
    // queues, so a stray enq/deq (e.g. a pipeline stage passed here by
    // mistake) would index an empty queue vector. Fail with a diagnostic
    // instead.
    for (const auto& inst : prog.code) {
        if (inst.kind == sim::Inst::Kind::kOp &&
            inst.queue != ir::kNoQueue) {
            NativeStats out;
            out.ok = false;
            out.error = fn.name + ": serial function contains a queue " +
                        "operation (op " + std::to_string(inst.origin) +
                        " targets queue " + std::to_string(inst.queue) +
                        "); run it as a pipeline stage instead";
            return out;
        }
    }

    RunControl ctl;
    ctl.opt = opt_;
    StageBarrier barrier(1);
    StageWorker worker(fn.name, prepared.stages[0], binding, /*replica=*/0,
                       /*queue_offset=*/0, /*queue_stride=*/0,
                       /*num_replicas=*/1, {}, &barrier, &ctl);
    if (opt_.tracer != nullptr)
        worker.traceBuf = opt_.tracer->addWorker(fn.name,
                                                 /*is_stage=*/true);

    ResourceUsage ru0 = ResourceUsage::processNow();
    HwThreadCounters hw;
    hw.open();
    HwCounts hw_before = hw.read();
    auto t0 = Clock::now();
    workerMain(worker, ctl);
    auto t1 = Clock::now();
    HwCounts hw_delta = hw.read().minus(hw_before);

    NativeStats out;
    out.wallNs = elapsedNs(t0, t1);
    out.numStageThreads = 1;
    if (hw_delta.valid) {
        out.hwLanes.push_back({fn.name, hw_delta});
        out.hwValid = true;
    }
    out.rusage = ResourceUsage::processNow().minus(ru0);
    out.engine = true;
    out.tier = tierName(opt_.tier);
    recordJit(out, prepared, {&worker});
    out.workers.push_back(worker.stats);
    if (ctl.aborted()) {
        out.ok = false;
        std::lock_guard<std::mutex> g(ctl.errorMu);
        out.error = ctl.error;
    }
    return out;
}

} // namespace phloem::rt
