/**
 * @file
 * Native-runtime workers: the per-stage task and the software reference
 * accelerator.
 *
 * A StageWorker runs one prepared stage (runtime.h) through the
 * pre-decoded engine (runtime/engine.h) or, on the JIT tier, its
 * compiled artifact (runtime/jit.h); both use the shared functional core
 * (sim/eval.h), so the native and simulated backends agree bit-for-bit.
 * Both execute on one StageContext: instruction accounting, blocking
 * ring ops with consumer-side batching, and the barrier wait. Queue ops
 * block on the SPSC rings by spinning briefly, then parking the task on
 * the ring's waiter list (blockUntil, which RA workers use too); control
 * values arriving at a kDeq with a handler transfer to the handler pc
 * exactly as the simulated hardware does.
 *
 * An RAWorker replays sim/machine.cc's RAEntity state machine in
 * software: indirect mode turns dequeued indices into loaded elements;
 * scan mode streams [start, end) ranges, optionally delimited with a
 * range control value. Control values pass through unchanged. RA workers
 * never write memory, so they can be shut down as soon as every stage
 * task has halted.
 */

#ifndef PHLOEM_RUNTIME_WORKER_H
#define PHLOEM_RUNTIME_WORKER_H

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "ir/pipeline.h"
#include "runtime/queue.h"
#include "runtime/stats.h"
#include "runtime/trace.h"
#include "sim/binding.h"
#include "sim/eval.h"
#include "sim/program.h"

namespace phloem::rt {

/**
 * Poll abort, the instruction budget and cooperative yield every this
 * many instructions.
 */
constexpr uint64_t kHeartbeatInterval = 4096;

/** Stage execution tier (see runtime/jit.h). */
enum class TierMode : uint8_t {
    kEngine,  ///< pre-decoded batching engine (the default)
    kJit,     ///< per-stage compiled code, engine fallback on failure
};

class Scheduler;
class SchedRun;
struct JitArtifact;
struct PreparedStage;

/** Null-safe wake of every parked task in a run (runtime/sched.cc). */
void schedWakeAll(SchedRun* run);

/** Tuning knobs for one native run. */
struct RuntimeOptions
{
    /**
     * Abort the run when every live task has stayed parked for this
     * long (a mis-compiled pipeline would otherwise hang the host);
     * enforced by the scheduler's all-parked monitor.
     */
    int deadlockTimeoutMs = 10000;
    /** Per-worker dynamic instruction budget (runaway-loop backstop). */
    uint64_t maxInstructions = 4'000'000'000ull;
    /**
     * Stage execution tier. kJit compiles each stage program before the
     * timed region and falls back per stage to the engine when
     * emission/compilation/loading fails.
     */
    TierMode tier = TierMode::kEngine;
    /**
     * Stall-attribution tracer (trace.h), or null for no tracing. Must
     * outlive the run; the runtime registers one buffer per worker and
     * a sampled-occupancy lane. Null keeps every hook on its inlined
     * no-op path (the zero-cost-off contract).
     */
    trace::Tracer* tracer = nullptr;
    /**
     * Shared-pool size hint; 0 = hardware_concurrency. Honored only by
     * the run that creates the process-wide pool (one machine, one
     * pool); use schedulerOverride for a private pool of a chosen size.
     */
    int schedWorkers = 0;
    /** Work stealing between pool workers. */
    bool schedStealing = true;
    /**
     * Run on this scheduler instead of the process-wide shared pool.
     * Tests use it to build private pools of known size; must outlive
     * the run. Null = the shared pool.
     */
    Scheduler* schedulerOverride = nullptr;
    /**
     * Caller-assigned request id (phloemd threads the server's id down
     * here). Prefixes watchdog/worker errors and lands in trace metadata
     * so a service-side span and the runtime stalls it caused correlate.
     */
    std::string requestId;
};

/**
 * Run-wide shared control state: the shutdown/abort flags and the first
 * error.
 */
struct RunControl
{
    RuntimeOptions opt;

    /** All stage tasks have halted; RA workers drain and exit. */
    std::atomic<bool> stop{false};
    /** A worker failed (exception, deadlock monitor); everyone unwinds. */
    std::atomic<bool> abortFlag{false};

    /** This run's scheduler task group (null for runSerial). */
    SchedRun* schedRun = nullptr;

    /** Serializes atomic read-modify-write memory ops across stages. */
    std::mutex atomicsMu;

    std::mutex errorMu;
    std::string error;

    /** Record the first failure and tell every worker to unwind. */
    void
    fail(const std::string& msg)
    {
        {
            std::lock_guard<std::mutex> g(errorMu);
            if (error.empty())
                error = msg;
        }
        abortFlag.store(true, std::memory_order_release);
        // Parked tasks cannot poll the abort flag; wake them so the
        // run unwinds instead of waiting out the deadlock monitor.
        schedWakeAll(schedRun);
    }

    bool
    aborted() const
    {
        return abortFlag.load(std::memory_order_acquire);
    }
};

/**
 * Spin-then-park backoff for one blocked queue op. Spins briefly with
 * cpu-relax, then parks the calling task on the target's waiter list
 * until the other side of the ring unparks it. Deadlock detection is
 * the scheduler's all-parked monitor, whose fail() wakes every parked
 * task so the next step observes the abort.
 */
class Backoff
{
  public:
    /**
     * One backoff step: true = try the queue op again, false = the run
     * aborted (or, for `stoppable` waits, shut down). Must run on a
     * scheduler task with a parkable target.
     */
    bool step(RunControl& ctl, bool stoppable, const ParkTarget& pt);

  private:
    int spins_ = 0;
};

/** ParkTarget for a producer blocked on a full ring. */
inline ParkTarget
makePushTarget(SpscQueue& q, int abs_q)
{
    ParkTarget pt;
    QueueWaiters* w = q.waiters();
    pt.list = w != nullptr ? &w->producers : nullptr;
    pt.ready = [](const ParkTarget& p) {
        const auto* queue = static_cast<const SpscQueue*>(p.obj);
        return queue->sizeApprox() < static_cast<size_t>(queue->depth());
    };
    pt.obj = &q;
    pt.what = "enq";
    pt.q = abs_q;
    return pt;
}

/** ParkTarget for a consumer blocked on an empty ring. */
inline ParkTarget
makePopTarget(SpscQueue& q, int abs_q, const char* what = "deq")
{
    ParkTarget pt;
    QueueWaiters* w = q.waiters();
    pt.list = w != nullptr ? &w->consumers : nullptr;
    pt.ready = [](const ParkTarget& p) {
        return static_cast<const SpscQueue*>(p.obj)->sizeApprox() > 0;
    };
    pt.obj = &q;
    pt.what = what;
    pt.q = abs_q;
    return pt;
}

/**
 * Sense-reversing barrier for the pipeline's stage workers (kBarrier).
 * Abort-aware: a waiter returns false when the run is unwinding. On
 * the shared pool, waiters park on the barrier's waiter list and the
 * last arriver wakes them (spinning would starve the missing parties
 * when the pool is smaller than the stage count).
 */
class StageBarrier
{
  public:
    explicit StageBarrier(int parties) : parties_(parties) {}

    /** Returns false when the run aborted while waiting. */
    bool arriveAndWait(RunControl& ctl);

  private:
    /** ParkTarget re-check: has the generation moved past pt.arg? */
    static bool
    generationAdvanced(const ParkTarget& pt)
    {
        const auto* b = static_cast<const StageBarrier*>(pt.obj);
        return b->generation_.load(std::memory_order_acquire) != pt.arg;
    }

    const int parties_;
    std::atomic<int> waiting_{0};
    std::atomic<uint64_t> generation_{0};
    WaitList waiters_;
};

/**
 * The one blocking loop of the native runtime: retry `attempt` with
 * spin-then-park backoff on `pt` until it succeeds, recording the wait
 * as one `kind` span on pt.q when traced. Callers count the block on
 * the ring first. False when the run aborted or, for `stoppable`
 * waits, shut down.
 */
template <typename Attempt>
bool
blockUntil(const ParkTarget& pt, RunControl& ctl, bool stoppable,
           trace::TraceBuffer* trace, trace::EventKind kind,
           Attempt&& attempt)
{
    uint64_t t0 = trace != nullptr ? trace->now() : 0;
    Backoff backoff;
    bool ok = true;
    while (ok && !attempt())
        ok = backoff.step(ctl, stoppable, pt);
    if (trace != nullptr)
        trace->record(kind, pt.q, t0, trace->now());
    return ok;
}

/** Borrowed per-stage state the engine and the JIT host execute on. */
struct StageEnv
{
    ir::Value* regs = nullptr;
    sim::ArrayBuffer** arrayBind = nullptr;
    const std::vector<SpscQueue*>* queues = nullptr;
    StageBarrier* barrier = nullptr;
    RunControl* ctl = nullptr;
    WorkerStats* stats = nullptr;
    /** Owning worker's trace ring, or null when tracing is off. */
    trace::TraceBuffer* trace = nullptr;
    int queueStride = 0;
    int numReplicas = 1;
};

/**
 * Everything an executing stage does besides computing, shared by the
 * engine and the JIT host: instruction accounting with the periodic
 * abort / budget / yield poll, blocking push, pop and peek over the
 * rings, and the traced barrier wait.
 *
 * Dequeues drain the ring in batches: an empty consumer buffer refills
 * with SpscQueue::popBatch — one acquire/release pair per run of values
 * — and later pops are served from it. Buffering is consumer-side only:
 * pushes publish immediately (blocking semantics and deadlock detection
 * depend on enqueued values being visible to peers). Values drained but
 * never dequeued when the stage stops are reported by unconsumed().
 *
 * The hot paths are inline so the engine's handlers compile them in.
 * Ops return false when the run aborted; the budget check throws.
 */
class StageContext
{
  public:
    explicit StageContext(const StageEnv& env);

    /** Count n retired instructions; false when the run aborted. */
    bool
    tick(uint64_t n)
    {
        env_.stats->instructions += n;
        heartbeat_ += n;
        if (heartbeat_ >= kHeartbeatInterval)
            return slowTick();
        return true;
    }

    /**
     * Poll abort and the instruction budget (throws when exceeded) and
     * yield the pool worker to runnable peers.
     */
    bool slowTick();

    SpscQueue&
    queue(int abs_q) const
    {
        return *(*env_.queues)[static_cast<size_t>(abs_q)];
    }

    /** Absolute id of the ring a kEnqDist with selector `sel` targets. */
    int
    distQueue(int queue_base, int64_t sel) const
    {
        return queue_base +
               sim::distTargetReplica(sel, env_.numReplicas) *
                   env_.queueStride;
    }

    bool
    push(SpscQueue& q, int abs_q, const ir::Value& v)
    {
        if (q.tryPush(v))
            return true;
        q.noteEnqBlocked();
        return blockUntil(makePushTarget(q, abs_q), *env_.ctl,
                          /*stoppable=*/false, env_.trace,
                          trace::EventKind::kEnqBlock,
                          [&] { return q.tryPush(v); });
    }

    /** Buffered pop: serve from the batch buffer, refilling as needed. */
    bool
    pop(SpscQueue& q, int abs_q, ir::Value& v)
    {
        ConsumerBuf& b = bufs_[static_cast<size_t>(abs_q)];
        if (b.pos < b.len) {
            v = b.data[b.pos++];
            return true;
        }
        if (!b.data)
            b.data = std::make_unique<ir::Value[]>(kBatchCap);
        size_t n = q.popBatch(kBatchCap, b.data.get());
        if (n == 0) {
            q.noteDeqBlocked();
            if (!blockUntil(makePopTarget(q, abs_q), *env_.ctl,
                            /*stoppable=*/false, env_.trace,
                            trace::EventKind::kDeqBlock, [&] {
                                n = q.popBatch(kBatchCap, b.data.get());
                                return n != 0;
                            }))
                return false;
        }
        b.len = static_cast<uint32_t>(n);
        b.pos = 1;
        v = b.data[0];
        return true;
    }

    /**
     * Peek must not consume, so it never refills: serve the buffer
     * front when one is pending, otherwise read the ring front.
     */
    bool
    peek(SpscQueue& q, int abs_q, ir::Value& v)
    {
        const ConsumerBuf& b = bufs_[static_cast<size_t>(abs_q)];
        if (b.pos < b.len) {
            v = b.data[b.pos];
            return true;
        }
        if (q.tryPeek(v))
            return true;
        q.noteDeqBlocked();
        return blockUntil(makePopTarget(q, abs_q, "peek"), *env_.ctl,
                          /*stoppable=*/false, env_.trace,
                          trace::EventKind::kDeqBlock,
                          [&] { return q.tryPeek(v); });
    }

    /** kBarrier: wait for every stage, traced as one barrier span. */
    bool barrier();

    /**
     * Per-queue counts of values drained into the consumer buffers but
     * never dequeued (pairs of absolute queue id, count).
     */
    std::vector<std::pair<int, uint64_t>> unconsumed() const;

  protected:
    StageEnv env_;
    uint64_t heartbeat_ = 0;
    /** Sink for kWork's burned mixes; keeps the burn loop observable. */
    uint64_t workSink_ = 0;

  private:
    /** Values drained per popBatch refill (and buffer capacity). */
    static constexpr size_t kBatchCap = 256;

    struct ConsumerBuf
    {
        std::unique_ptr<ir::Value[]> data;
        uint32_t pos = 0;
        uint32_t len = 0;
    };

    /** Consumer-side batch buffers, indexed by absolute queue id. */
    std::vector<ConsumerBuf> bufs_;
};

/** One pipeline stage (or a serial function) on one pool task. */
class StageWorker
{
  public:
    /**
     * `stage` is shared by every replica and must outlive the run; on
     * kJit a stage whose artifact failed to build runs on the engine
     * and records why in stats.jitFallback.
     */
    StageWorker(std::string name, const PreparedStage& stage,
                sim::Binding& binding, int replica, int queue_offset,
                int queue_stride, int num_replicas,
                std::vector<SpscQueue*> queues, StageBarrier* barrier,
                RunControl* ctl);

    /** Task body: execute until halt, abort, or budget. */
    void run();

    /** Runs compiled code (a loaded JIT artifact), not the engine. */
    bool runsJit() const { return jit_ != nullptr; }

    WorkerStats stats;

    /** This worker's trace ring, or null when tracing is off. */
    trace::TraceBuffer* traceBuf = nullptr;

    /**
     * Per-queue counts of values drained into the consumer batch
     * buffer but never architecturally dequeued (pairs of absolute
     * queue id, count). The runtime subtracts these from
     * the ring's deq count and adds them to residual occupancy.
     */
    std::vector<std::pair<int, uint64_t>> unconsumed;

  private:
    const PreparedStage& stage_;
    /** The stage's loaded artifact, or null to run the engine. */
    const JitArtifact* jit_ = nullptr;
    int queueOffset_;
    int queueStride_;
    int numReplicas_;
    std::vector<SpscQueue*> queues_;
    StageBarrier* barrier_;
    RunControl* ctl_;

    std::vector<ir::Value> regs_;
    std::vector<sim::ArrayBuffer*> arrayBind_;
};

/** One software reference accelerator on one pool task. */
class RAWorker
{
  public:
    RAWorker(std::string name, const ir::RAConfig& cfg,
             sim::ArrayBuffer* array, SpscQueue* in_q, SpscQueue* out_q,
             RunControl* ctl);

    /** Task body: service requests until shutdown. */
    void run();

    WorkerStats stats;

    /** This worker's trace ring, or null when tracing is off. */
    trace::TraceBuffer* traceBuf = nullptr;
    /** Absolute ids of inQ_/outQ_ for trace attribution (-1 unset). */
    int traceInQ = -1;
    int traceOutQ = -1;

    /**
     * Values drained from the input queue (batched indirect mode) but
     * not yet serviced when the worker shut down. The runtime folds
     * these back into the input ring's deq/residual statistics.
     */
    uint64_t unconsumedIn = 0;

  private:
    /** Indices drained per input-ring synchronization (indirect mode). */
    static constexpr size_t kIndirectBatch = 256;

    /** Service loop (run() wraps it to trace the halt). */
    void runLoop();
    /** Blocking ring ops; false on shutdown/abort. */
    bool waitPush(const ir::Value& v);
    bool waitPop(ir::Value& v);
    /** Service a drained run of values in order; false on shutdown. */
    bool serviceIndirectBatch(const ir::Value* batch, size_t n);
    /** Periodic cooperative yield so streaming never starves peers. */
    void heartbeat(uint64_t n = 1);

    uint64_t heartbeatCount_ = 0;
    ir::RAConfig cfg_;
    sim::ArrayBuffer* array_;
    SpscQueue* inQ_;
    SpscQueue* outQ_;
    RunControl* ctl_;
};

} // namespace phloem::rt

#endif // PHLOEM_RUNTIME_WORKER_H
