/**
 * @file
 * Pre-decoded batching execution engine for stage workers.
 *
 * The engine executes a DecodedProgram (runtime/decode.h) through a
 * function-pointer handler table: one indirect call per decoded
 * instruction replaces a raw sim::Inst walk's kind-switch + opcode
 * classification + opcode-switch, queue pointers are already absolute,
 * and fused superinstructions retire the flattener's dominant pairs in
 * one dispatch.
 *
 * Dequeues additionally drain the ring in batches: a blocked-or-empty
 * consumer refills a small per-queue buffer with SpscQueue::popBatch —
 * one acquire/release pair per run of values instead of one per element
 * — and subsequent deqs are served from the buffer. Buffering is
 * consumer-side only: values a stage *produces* are always published
 * immediately (blocking semantics and deadlock detection depend on
 * enqueued values being visible to peers), while values already
 * published by a peer may be drained eagerly without changing any
 * observable ordering. Values drained but never architecturally
 * dequeued when the stage halts are reported via unconsumed() so queue
 * statistics (deq counts, residual occupancy) stay truthful.
 *
 * Semantics are bit-identical to the simulator's: both run the same
 * sim/eval.h functional core over the same flattened program, and
 * dynamic instruction counts match exactly (fused pairs count two).
 * The fuzzing oracle and the differential tests exercise engine vs
 * simulator vs serial reference.
 */

#ifndef PHLOEM_RUNTIME_ENGINE_H
#define PHLOEM_RUNTIME_ENGINE_H

#include <memory>
#include <utility>
#include <vector>

#include "runtime/decode.h"
#include "runtime/queue.h"
#include "runtime/stats.h"
#include "runtime/worker.h"
#include "sim/binding.h"

namespace phloem::rt {

/** Borrowed per-stage execution state the engine operates on. */
struct EngineEnv
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

class Engine
{
  public:
    Engine(const DecodedProgram& prog, const EngineEnv& env);

    /**
     * Execute until halt or abort. Throws on instruction-budget
     * violations; the caller's task wrapper routes that to
     * RunControl::fail.
     */
    void run();

    /**
     * Per-queue counts of values drained into the consumer buffer but
     * never dequeued by the program (pairs of absolute queue id,
     * count). Valid after run() returns.
     */
    std::vector<std::pair<int, uint64_t>> unconsumed() const;

  private:
    using Handler = bool (*)(Engine&, const DInst&);
    static const Handler kDispatch[kNumDOps];

    /** Values drained per popBatch refill (and buffer capacity). */
    static constexpr size_t kBatchCap = 256;

    struct ConsumerBuf
    {
        std::unique_ptr<ir::Value[]> data;
        uint32_t pos = 0;
        uint32_t len = 0;
    };

    // --- Bookkeeping ------------------------------------------------
    /** Count n retired instructions; false when the run aborted. */
    bool tick(uint64_t n);
    bool slowTick();

    // --- Blocking queue primitives ----------------------------------
    bool waitPush(SpscQueue& q, int abs_q, const ir::Value& v);
    /** Buffered pop: serve from the batch buffer, refilling as needed. */
    bool popValue(const DInst& d, ir::Value& v);
    bool peekValue(const DInst& d, ir::Value& v);

    // --- Handlers (indexed by DOp) ----------------------------------
    static bool hEnd(Engine& e, const DInst& d);
    static bool hHalt(Engine& e, const DInst& d);
    static bool hBr(Engine& e, const DInst& d);
    static bool hBrIf(Engine& e, const DInst& d);
    static bool hBrIfNot(Engine& e, const DInst& d);
    static bool hScalar(Engine& e, const DInst& d);
    static bool hWork(Engine& e, const DInst& d);
    static bool hLoad(Engine& e, const DInst& d);
    static bool hStore(Engine& e, const DInst& d);
    static bool hMemOther(Engine& e, const DInst& d);
    static bool hAtomic(Engine& e, const DInst& d);
    static bool hSwapArr(Engine& e, const DInst& d);
    static bool hBarrier(Engine& e, const DInst& d);
    static bool hEnq(Engine& e, const DInst& d);
    static bool hEnqCtrl(Engine& e, const DInst& d);
    static bool hEnqDist(Engine& e, const DInst& d);
    static bool hDeq(Engine& e, const DInst& d);
    static bool hPeek(Engine& e, const DInst& d);
    static bool hScalarBr(Engine& e, const DInst& d);
    static bool hScalarJmp(Engine& e, const DInst& d);
    static bool hScalarEnq(Engine& e, const DInst& d);
    static bool hLoadEnq(Engine& e, const DInst& d);

    const DecodedProgram& prog_;
    EngineEnv env_;

    int32_t pc_ = 0;
    uint64_t heartbeat_ = 0;
    /** Sink for kWork's burned mixes; keeps the burn loop observable. */
    uint64_t workSink_ = 0;
    /** Consumer-side batch buffers, indexed by absolute queue id. */
    std::vector<ConsumerBuf> bufs_;
};

} // namespace phloem::rt

#endif // PHLOEM_RUNTIME_ENGINE_H
