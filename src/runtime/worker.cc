#include "runtime/worker.h"

#include <stdexcept>

#include "base/logging.h"
#include "ir/op.h"
#include "runtime/decode.h"
#include "runtime/engine.h"
#include "runtime/jit.h"
#include "runtime/runtime.h"
#include "runtime/sched.h"

namespace phloem::rt {

namespace {

/**
 * Spin this many times with cpuRelax before parking: 256 pauses at
 * 15-21 ns each is 4-5.5 us, about one wake of a sleeping pool thread
 * (2-7 us one-way on the 4-core host), so a peer running on another
 * worker gets that long to answer before we pay a park.
 */
constexpr int kSpinLimit = 256;

/**
 * Run `body` on `ctx`, then record the values it drained but never
 * dequeued — also when the body throws (budget, bounds): the failure
 * post-mortem keys on residual occupancy.
 */
template <typename Body>
void
runDraining(const StageContext& ctx, Body body,
            std::vector<std::pair<int, uint64_t>>& unconsumed)
{
    try {
        body();
    } catch (...) {
        unconsumed = ctx.unconsumed();
        throw;
    }
    unconsumed = ctx.unconsumed();
}

} // namespace

// ---------------------------------------------------------------------
// Backoff.
// ---------------------------------------------------------------------

bool
Backoff::step(RunControl& ctl, bool stoppable, const ParkTarget& pt)
{
    phloem_assert(pt.list != nullptr && Scheduler::current() != nullptr,
                  "blocking ", pt.what, " wait must run on a pool task "
                  "with a parkable target");
    if (ctl.aborted())
        return false;
    if (stoppable && ctl.stop.load(std::memory_order_acquire))
        return false;

    // Spin only when spinning can help; otherwise park straight away
    // so the worker runs whatever would satisfy this wait.
    if (spins_ == 0 && !Scheduler::spinMayHelp())
        spins_ = kSpinLimit;

    if (spins_ < kSpinLimit) {
        spins_++;
        cpuRelax();
        return true;
    }

    // After the capped spin phase, park instead of burning the core —
    // the other side of the ring unparks us. A deadlocked run is caught
    // by the scheduler's all-parked monitor, whose fail() wakes us and
    // the abort check above observes it.
    Scheduler::parkCurrent(pt, ctl, stoppable);
    return true;
}

// ---------------------------------------------------------------------
// StageBarrier.
// ---------------------------------------------------------------------

bool
StageBarrier::arriveAndWait(RunControl& ctl)
{
    uint64_t gen = generation_.load(std::memory_order_acquire);
    int arrived = waiting_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (arrived == parties_) {
        waiting_.store(0, std::memory_order_relaxed);
        generation_.fetch_add(1, std::memory_order_release);
        // Notifier side of the parking handshake: the generation bump
        // above must be ordered before the waiter-list check, so a
        // peer that registered just before we bumped is either seen
        // here or sees the new generation in its parked re-check.
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (!waiters_.empty())
            waiters_.wakeAll();
        return !ctl.aborted();
    }
    ParkTarget pt;
    pt.list = &waiters_;
    pt.ready = &StageBarrier::generationAdvanced;
    pt.obj = this;
    pt.arg = gen;
    pt.what = "barrier";
    Backoff backoff;
    while (generation_.load(std::memory_order_acquire) == gen)
        if (!backoff.step(ctl, /*stoppable=*/false, pt))
            return false;
    return !ctl.aborted();
}

// ---------------------------------------------------------------------
// StageContext.
// ---------------------------------------------------------------------

StageContext::StageContext(const StageEnv& env) : env_(env)
{
    phloem_assert(env_.regs != nullptr && env_.ctl != nullptr &&
                      env_.stats != nullptr && env_.queues != nullptr,
                  "stage env incomplete");
    bufs_.resize(env_.queues->size());
}

bool
StageContext::slowTick()
{
    // Abort and the instruction budget are polled here rather than per
    // instruction.
    heartbeat_ = 0;
    if (env_.ctl->aborted())
        return false;
    if (env_.stats->instructions > env_.ctl->opt.maxInstructions) {
        std::string msg = "instruction budget exceeded (" +
                          std::to_string(env_.ctl->opt.maxInstructions) +
                          ") in " + env_.stats->name;
        env_.ctl->fail(msg);
        throw std::runtime_error(msg);
    }
    // Shared pool: long compute phases must not monopolize the worker
    // while runnable peers wait (no-op off the pool).
    Scheduler::maybeYield();
    return true;
}

bool
StageContext::barrier()
{
    if (!env_.trace)
        return env_.barrier->arriveAndWait(*env_.ctl);
    uint64_t t0 = env_.trace->now();
    bool ok = env_.barrier->arriveAndWait(*env_.ctl);
    env_.trace->record(trace::EventKind::kBarrierWait, -1, t0,
                       env_.trace->now());
    return ok;
}

std::vector<std::pair<int, uint64_t>>
StageContext::unconsumed() const
{
    std::vector<std::pair<int, uint64_t>> out;
    for (size_t q = 0; q < bufs_.size(); ++q) {
        const ConsumerBuf& b = bufs_[q];
        if (b.pos < b.len)
            out.emplace_back(static_cast<int>(q),
                             static_cast<uint64_t>(b.len - b.pos));
    }
    return out;
}

// ---------------------------------------------------------------------
// StageWorker.
// ---------------------------------------------------------------------

StageWorker::StageWorker(std::string name, const PreparedStage& stage,
                         sim::Binding& binding, int replica,
                         int queue_offset, int queue_stride,
                         int num_replicas, std::vector<SpscQueue*> queues,
                         StageBarrier* barrier, RunControl* ctl)
    : stage_(stage), queueOffset_(queue_offset),
      queueStride_(queue_stride), numReplicas_(num_replicas),
      queues_(std::move(queues)), barrier_(barrier), ctl_(ctl)
{
    stats.name = std::move(name);
    stats.isStage = true;
    stats.opCounts.assign(static_cast<size_t>(ir::kNumOpcodes), 0);
    if (stage_.jit != nullptr) {
        if (stage_.jit->ok())
            jit_ = stage_.jit.get();
        else
            stats.jitFallback = stage_.jit->error;
    }

    regs_.assign(static_cast<size_t>(stage_.program.numRegs), ir::Value{});
    const ir::Function& fn = *stage_.program.fn;
    for (const auto& p : fn.scalarParams)
        regs_[static_cast<size_t>(p.reg)] = binding.scalar(p.name, replica);
    arrayBind_.resize(fn.arrays.size());
    for (size_t a = 0; a < fn.arrays.size(); ++a)
        arrayBind_[a] = binding.array(fn.arrays[a].name, replica);
}

void
StageWorker::run()
{
    StageEnv env;
    env.regs = regs_.data();
    env.arrayBind = arrayBind_.data();
    env.queues = &queues_;
    env.barrier = barrier_;
    env.ctl = ctl_;
    env.stats = &stats;
    env.trace = traceBuf;
    env.queueStride = queueStride_;
    env.numReplicas = numReplicas_;
    stats.fusedSites = static_cast<uint64_t>(stage_.shape.fusedSites);

    if (jit_ != nullptr) {
        stats.tier = "jit";
        JitHost host(stage_.program, env, queueOffset_);
        runDraining(host, [&] { host.run(*jit_); }, unconsumed);
    } else {
        // Includes per-stage JIT fallback (stats.jitFallback says why).
        // The shared shape is copied and re-based on this replica's
        // queue window.
        stats.tier = "engine";
        DecodedProgram code = stage_.shape;
        relocateProgram(code, queueOffset_, queues_);
        Engine engine(code, env);
        runDraining(engine, [&] { engine.run(); }, unconsumed);
    }
    // Abnormal exits (budget, failed ops) throw past this point; they
    // already recorded the block span they died in.
    if (traceBuf) {
        uint64_t t = traceBuf->now();
        traceBuf->record(trace::EventKind::kHalt, -1, t, t);
    }
}

// ---------------------------------------------------------------------
// RAWorker.
// ---------------------------------------------------------------------

RAWorker::RAWorker(std::string name, const ir::RAConfig& cfg,
                   sim::ArrayBuffer* array, SpscQueue* in_q,
                   SpscQueue* out_q, RunControl* ctl)
    : cfg_(cfg), array_(array), inQ_(in_q), outQ_(out_q), ctl_(ctl)
{
    stats.name = std::move(name);
    stats.isStage = false;
}

void
RAWorker::heartbeat(uint64_t n)
{
    heartbeatCount_ += n;
    if (heartbeatCount_ >= kHeartbeatInterval) {
        heartbeatCount_ = 0;
        // Shared pool: a streaming RA must not starve runnable peers.
        Scheduler::maybeYield();
    }
}

bool
RAWorker::waitPush(const ir::Value& v)
{
    if (outQ_->tryPush(v)) {
        heartbeat();
        return true;
    }
    outQ_->noteEnqBlocked();
    // Stoppable: once every stage task halted, whatever the RA still
    // holds can never reach memory, so it just exits.
    return blockUntil(makePushTarget(*outQ_, traceOutQ), *ctl_,
                      /*stoppable=*/true, traceBuf,
                      trace::EventKind::kEnqBlock,
                      [&] { return outQ_->tryPush(v); });
}

bool
RAWorker::waitPop(ir::Value& v)
{
    if (inQ_->tryPop(v)) {
        heartbeat();
        return true;
    }
    inQ_->noteDeqBlocked();
    // An empty input after shutdown is the normal RA exit path, not a
    // deadlock: RAs never see an end-of-stream value.
    return blockUntil(makePopTarget(*inQ_, traceInQ), *ctl_,
                      /*stoppable=*/true, traceBuf,
                      trace::EventKind::kDeqBlock,
                      [&] { return inQ_->tryPop(v); });
}

bool
RAWorker::serviceIndirectBatch(const ir::Value* batch, size_t n)
{
    size_t i = 0;
    while (i < n) {
        if (batch[i].isControl()) {
            // Control values pass through in order, delimiting streams.
            stats.raCtrlForwarded++;
            if (!waitPush(batch[i])) {
                unconsumedIn += n - i;
                return false;
            }
            ++i;
            continue;
        }
        // Emit the maximal run of data indices [i, j) as output batches.
        size_t j = i;
        while (j < n && !batch[j].isControl())
            ++j;
        while (i < j) {
            uint64_t t0 = traceBuf ? traceBuf->now() : 0;
            size_t pushed = outQ_->pushBatch(j - i, [&](size_t k) {
                return array_->load(batch[i + k].asInt());
            });
            if (pushed == 0) {
                // Ring full: fall back to one blocking push.
                if (!waitPush(array_->load(batch[i].asInt()))) {
                    unconsumedIn += n - i;
                    return false;
                }
                pushed = 1;
            } else {
                heartbeat(pushed);
                if (traceBuf)
                    traceBuf->record(trace::EventKind::kRaService,
                                     traceOutQ, t0, traceBuf->now(),
                                     pushed);
            }
            i += pushed;
            stats.raElements += pushed;
        }
    }
    return true;
}

void
RAWorker::run()
{
    runLoop();
    if (traceBuf) {
        uint64_t t = traceBuf->now();
        traceBuf->record(trace::EventKind::kHalt, -1, t, t);
    }
}

void
RAWorker::runLoop()
{
    enum class Phase : uint8_t { kIdle, kHaveStart, kScanning };
    Phase phase = Phase::kIdle;
    int64_t pending_start = 0;
    int64_t scan_cur = 0;
    int64_t scan_end = 0;

    for (;;) {
        if (phase == Phase::kScanning) {
            if (scan_cur >= scan_end) {
                if (cfg_.emitRangeCtrl) {
                    if (!waitPush(ir::Value::makeControl(
                            cfg_.rangeCtrlCode)))
                        return;
                    stats.raCtrlForwarded++;
                }
                phase = Phase::kIdle;
                continue;
            }
            // Stream the rest of the range as one batch per ring refill:
            // elements are published with a single release store, which
            // is where the RA's native-speed advantage comes from.
            size_t want = static_cast<size_t>(scan_end - scan_cur);
            uint64_t t0 = traceBuf ? traceBuf->now() : 0;
            size_t pushed = outQ_->pushBatch(want, [&](size_t k) {
                return array_->load(scan_cur + static_cast<int64_t>(k));
            });
            if (pushed == 0) {
                // Ring full: fall back to one blocking push.
                if (!waitPush(array_->load(scan_cur)))
                    return;
                pushed = 1;
            } else {
                heartbeat(pushed);
                if (traceBuf)
                    traceBuf->record(trace::EventKind::kRaService,
                                     traceOutQ, t0, traceBuf->now(),
                                     pushed);
            }
            scan_cur += static_cast<int64_t>(pushed);
            stats.raElements += pushed;
            continue;
        }

        ir::Value e;
        if (!waitPop(e))
            return;

        if (e.isControl()) {
            // Control values pass through RAs, delimiting streams.
            phase = Phase::kIdle;
            stats.raCtrlForwarded++;
            if (!waitPush(e))
                return;
            continue;
        }

        if (cfg_.mode == ir::RAMode::kIndirect) {
            // Batched drain/emit: grab whatever run of indices the
            // producer has already published alongside e, then load and
            // publish the elements with pushBatch — one ring
            // synchronization per run on each side instead of one per
            // element.
            ir::Value batch[kIndirectBatch];
            batch[0] = e;
            size_t n = 1 + inQ_->popBatch(kIndirectBatch - 1, batch + 1);
            if (!serviceIndirectBatch(batch, n))
                return;
        } else {
            if (phase == Phase::kIdle) {
                pending_start = e.asInt();
                phase = Phase::kHaveStart;
            } else {
                scan_cur = pending_start;
                scan_end = e.asInt();
                phase = Phase::kScanning;
            }
        }
    }
}

} // namespace phloem::rt
