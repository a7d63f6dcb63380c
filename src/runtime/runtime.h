/**
 * @file
 * Native execution backend: run a compiled pipeline as tasks on a host
 * thread pool, connected by lock-free SPSC ring buffers.
 *
 * This is the "what if the paper's hardware were software" backend: one
 * resumable task per pipeline stage (per replica), one task per software
 * reference accelerator, and one bounded ring per architectural queue.
 * Tasks run on a fixed-size shared work-stealing pool (runtime/sched.h)
 * sized to the machine, so many pipelines — or one pipeline with more
 * stages than cores — share the host without thread oversubscription; a
 * task blocked on a full/empty ring parks and yields its pool worker;
 * the scheduler's all-parked monitor is the one deadlock detector.
 * Each stage is prepared once — the same sim::flatten instruction
 * stream as the simulator, decoded — and run pre-decoded
 * (runtime/engine.h) through the same functional core (sim/eval.h), so
 * its output is bit-for-bit identical to the simulator's — which the
 * differential tests enforce.
 *
 * What it measures is real: wall-clock time of the parallel region and
 * per-queue backpressure (block counts, occupancy high-water marks),
 * the native analogue of the paper's queue-sizing discussion.
 */

#ifndef PHLOEM_RUNTIME_RUNTIME_H
#define PHLOEM_RUNTIME_RUNTIME_H

#include <vector>

#include "ir/pipeline.h"
#include "runtime/decode.h"
#include "runtime/stats.h"
#include "runtime/worker.h"
#include "sim/binding.h"
#include "sim/config.h"
#include "sim/program.h"

namespace phloem::rt {

/**
 * One stage ready to run: its flattened program and the program's
 * decoded replica-independent shape. Only read while running, so one
 * prepared stage backs every replica and any number of concurrent
 * runs.
 *
 * The shape points into the program, so a prepared stage moves but is
 * never copied. The stage's ir::Function must outlive it.
 */
struct PreparedStage
{
    sim::Program program;
    DecodedProgram shape;

    PreparedStage() = default;
    PreparedStage(PreparedStage&&) = default;
    PreparedStage& operator=(PreparedStage&&) = default;
    PreparedStage(const PreparedStage&) = delete;
    PreparedStage& operator=(const PreparedStage&) = delete;
};

/** Every stage of one pipeline, prepared. */
struct PreparedPipeline
{
    /** One per pipeline stage, in stage order (replicas share them). */
    std::vector<PreparedStage> stages;
};

/** Flatten and decode one stage function. */
PreparedStage prepareStage(const ir::Function& fn);

/** prepareStage for every stage of `pipeline`. */
PreparedPipeline preparePipeline(const ir::Pipeline& pipeline);

class Runtime
{
  public:
    explicit Runtime(const sim::SysConfig& cfg = {},
                     const RuntimeOptions& opt = {})
        : cfg_(cfg), opt_(opt)
    {
    }

    /**
     * Execute a pipeline to completion on the task pool. Mutates the
     * bound arrays exactly as Machine::runPipeline would. On failure
     * (deadlock monitor, worker exception) the returned stats have
     * ok=false and the array contents are unspecified.
     *
     * `prepared` (null: prepare here, before the timed region) lets a
     * caller such as the compilation service prepare once and share
     * the result across runs; it must come from preparePipeline on
     * this pipeline and outlive the call.
     */
    NativeStats runPipeline(const ir::Pipeline& pipeline,
                            sim::Binding& binding,
                            const PreparedPipeline* prepared = nullptr);

    /** Execute a serial function on the calling thread (the baseline). */
    NativeStats runSerial(const ir::Function& fn, sim::Binding& binding);

  private:
    sim::SysConfig cfg_;
    RuntimeOptions opt_;
};

} // namespace phloem::rt

#endif // PHLOEM_RUNTIME_RUNTIME_H
