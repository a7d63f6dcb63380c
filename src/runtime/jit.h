/**
 * @file
 * JIT execution tier: lower one stage's decoded program to C, compile
 * it with the host toolchain into a shared object, and run the stage
 * through the emitted entry point.
 *
 * This is the tier above the pre-decoded engine. The engine already
 * collapsed dispatch to one indirect call per DInst, but every
 * instruction still pays that call plus runtime operand decode. The
 * emitter removes both: each DInst becomes straight-line C with its
 * operands baked in as constants — scalar bodies inlined from the
 * sim/eval.h functional core (bit-identical wrap/div/NaN semantics),
 * branch targets as labels, fused superinstruction sites kept fused,
 * and queue ids baked as replica-RELATIVE constants so one compiled
 * object serves every replica and can be cached across runs by the
 * compilation service.
 *
 * Anything that must touch runtime state the compiler cannot see —
 * blocking ring ops, array loads/stores (kSwapArr retargets bindings),
 * barriers, atomics — calls back into the host through a C function
 * table (PhloemJitCtx). Host callbacks never unwind through the C
 * frame: exceptions (instruction budget, out-of-bounds) are captured at
 * the boundary, the callback returns 0, the emitted code jumps to its
 * exit, and the host rethrows — so the failure behavior is exactly the
 * engine's.
 *
 * The tier is always safe to enable: emission, compilation, or loading
 * failure of any one stage makes that stage fall back to the engine
 * (recorded in stats), and results stay bit-identical either way — the
 * differential fuzzer diffs serial/sim/engine/jit over the corpus.
 */

#ifndef PHLOEM_RUNTIME_JIT_H
#define PHLOEM_RUNTIME_JIT_H

#include <cstdint>
#include <exception>
#include <memory>
#include <string>

#include "runtime/decode.h"
#include "runtime/worker.h"
#include "sim/program.h"

namespace phloem::rt {

/**
 * 64-bit value crossing the C ABI boundary. Layout-identical to
 * ir::Value (checked by static_asserts in jit.cc) so the host passes
 * its register file pointer straight through.
 */
struct PhloemJitValue
{
    uint64_t bits;
    uint32_t ctrl;
};

/**
 * The context handed to the emitted entry point: raw pointers into the
 * worker's register file and stats counters, plus the host-callback
 * table. The emitted C file defines a structurally identical struct;
 * field order and types here are ABI and must not change without
 * changing the emitter in lockstep.
 *
 * Callbacks return 1 to continue and 0 to stop (halt, abort, or a
 * captured exception); the emitted code exits on 0.
 */
struct PhloemJitCtx
{
    PhloemJitValue* regs;
    uint64_t* instructions;
    uint64_t* branches;
    uint64_t* queueOps;
    uint64_t* opCounts;
    uint64_t* workSink;
    void* host;

    int (*slowTick)(PhloemJitCtx*);
    int (*push)(PhloemJitCtx*, int32_t rel_q, const PhloemJitValue*);
    int (*pushDist)(PhloemJitCtx*, int32_t queue_base, int64_t sel,
                    const PhloemJitValue*);
    int (*pop)(PhloemJitCtx*, int32_t rel_q, PhloemJitValue*);
    int (*peek)(PhloemJitCtx*, int32_t rel_q, PhloemJitValue*);
    int (*barrier)(PhloemJitCtx*);
    int (*load)(PhloemJitCtx*, int32_t arr, int64_t idx, PhloemJitValue*);
    int (*store)(PhloemJitCtx*, int32_t arr, int64_t idx,
                 const PhloemJitValue*);
    /** Generic memory op (kPrefetch / atomics) via the raw Inst at pc. */
    int (*memOp)(PhloemJitCtx*, int32_t pc, PhloemJitValue*);
    int (*swapArr)(PhloemJitCtx*, int32_t arr, int32_t arr2);
};

/** Signature of the emitted entry point (dlsym "phloem_jit_run"). */
using PhloemJitEntry = void (*)(PhloemJitCtx*);

/**
 * One JIT-compiled stage program: the loaded shared object and its
 * entry point, shared across replicas and (via the compilation
 * service's pipeline cache) across runs. On failure `entry` is null
 * and `error` says why — the stage then falls back to the engine.
 */
struct JitArtifact
{
    PhloemJitEntry entry = nullptr;
    /** Why compilation failed ("" when ok()). */
    std::string error;

    // Stage-lifecycle latencies, in nanoseconds.
    double emitNs = 0.0;    ///< decode shape -> C text
    double compileNs = 0.0; ///< host toolchain -> .so
    double loadNs = 0.0;    ///< dlopen + dlsym

    /** Artifact directory (emitted C, .so, compiler stderr). */
    std::string dir;
    /** Emitted C file path (CI uploads it on failure). */
    std::string cPath;
    /** Keep the artifact directory (PHLOEM_JIT_ARTIFACT_DIR set). */
    bool keep = false;

    JitArtifact() = default;
    JitArtifact(const JitArtifact&) = delete;
    JitArtifact& operator=(const JitArtifact&) = delete;
    /** dlcloses the object and removes dir unless keep. */
    ~JitArtifact();

    bool ok() const { return entry != nullptr; }

    void* dso = nullptr;
};

using JitArtifactPtr = std::shared_ptr<const JitArtifact>;

/**
 * Emit, compile, and load one stage program. Never throws and never
 * returns null: on any failure the artifact has entry == nullptr and
 * `error` set, which callers record and fall back on. `shape` must be
 * the decoded shape of `prog` (relative queue ids; relocation state is
 * ignored).
 *
 * Environment hooks:
 *  - PHLOEM_JIT_CC: host compiler command (default "cc"); tests point
 *    it at /bin/false or /bin/true to force compile / load failures.
 *  - PHLOEM_JIT_DENY_OPS: comma-separated ir opcode names the emitter
 *    pretends not to support (forces engine fallback; tests).
 *  - PHLOEM_JIT_ARTIFACT_DIR: emit artifacts under this directory and
 *    keep them (CI uploads emitted C on failure).
 */
JitArtifactPtr jitCompileStage(const sim::Program& prog,
                               const DecodedProgram& shape,
                               const std::string& stage_name);

/** Emit the C source for one stage (exposed for tests/debugging). */
std::string jitEmitC(const sim::Program& prog, const DecodedProgram& shape,
                     const std::string& stage_name, std::string* err);

/**
 * Host side of one JIT stage execution. The blocking ring ops, batch
 * buffers, budget poll and barrier are the engine's (StageContext);
 * the callbacks are ABI shims around them: value conversion, re-basing
 * the emitted code's replica-relative queue ids, and capturing
 * exceptions so none unwinds through the C frame. One host per worker
 * per run; the artifact is shared.
 */
class JitHost : public StageContext
{
  public:
    /**
     * `prog` backs the generic memOp callback (raw Inst lookup);
     * `queue_offset` re-bases the emitted code's relative queue ids.
     */
    JitHost(const sim::Program& prog, const StageEnv& env,
            int queue_offset)
        : StageContext(env), prog_(&prog), queueOffset_(queue_offset)
    {
    }

    /**
     * Run the stage through the artifact's entry point. Rethrows any
     * exception captured at the callback boundary (instruction budget,
     * out-of-bounds) after the C frame has returned, so failure
     * behavior matches the engine exactly.
     */
    void run(const JitArtifact& art);

  private:
    /** Run `op` on the host behind c: 1 on success, 0 to stop. */
    template <typename Op>
    static int shim(PhloemJitCtx* c, Op&& op);

    static int cbSlowTick(PhloemJitCtx* c);
    static int cbPush(PhloemJitCtx* c, int32_t rel_q,
                      const PhloemJitValue* v);
    static int cbPushDist(PhloemJitCtx* c, int32_t queue_base, int64_t sel,
                          const PhloemJitValue* v);
    static int cbPop(PhloemJitCtx* c, int32_t rel_q, PhloemJitValue* v);
    static int cbPeek(PhloemJitCtx* c, int32_t rel_q, PhloemJitValue* v);
    static int cbBarrier(PhloemJitCtx* c);
    static int cbLoad(PhloemJitCtx* c, int32_t arr, int64_t idx,
                      PhloemJitValue* v);
    static int cbStore(PhloemJitCtx* c, int32_t arr, int64_t idx,
                       const PhloemJitValue* v);
    static int cbMemOp(PhloemJitCtx* c, int32_t pc, PhloemJitValue* v);
    static int cbSwapArr(PhloemJitCtx* c, int32_t arr, int32_t arr2);

    const sim::Program* prog_;
    int queueOffset_;
    /** Exception captured at the callback boundary; rethrown by run(). */
    std::exception_ptr eptr_;
};

} // namespace phloem::rt

#endif // PHLOEM_RUNTIME_JIT_H
