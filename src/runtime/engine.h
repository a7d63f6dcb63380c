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
 * Blocking queue ops, consumer-side batching, instruction accounting
 * and the barrier come from StageContext (runtime/worker.h), which the
 * JIT host shares; this file is only the dispatch loop and its
 * handlers.
 *
 * Semantics are bit-identical to the simulator's: both run the same
 * sim/eval.h functional core over the same flattened program, and
 * dynamic instruction counts match exactly (fused pairs count two).
 * The fuzzing oracle and the differential tests exercise engine vs
 * simulator vs serial reference.
 */

#ifndef PHLOEM_RUNTIME_ENGINE_H
#define PHLOEM_RUNTIME_ENGINE_H

#include "runtime/decode.h"
#include "runtime/worker.h"

namespace phloem::rt {

class Engine : public StageContext
{
  public:
    /** `prog` must be relocated for the env's queue window. */
    Engine(const DecodedProgram& prog, const StageEnv& env)
        : StageContext(env), prog_(prog)
    {
    }

    /**
     * Execute until halt or abort. Throws on instruction-budget
     * violations; the caller's task wrapper routes that to
     * RunControl::fail.
     */
    void run();

  private:
    using Handler = bool (*)(Engine&, const DInst&);
    static const Handler kDispatch[kNumDOps];

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
    int32_t pc_ = 0;
};

} // namespace phloem::rt

#endif // PHLOEM_RUNTIME_ENGINE_H
