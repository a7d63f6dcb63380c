#include "runtime/engine.h"

#include <mutex>
#include <utility>

#include "sim/eval.h"

namespace phloem::rt {

// ---------------------------------------------------------------------
// Handlers.
// ---------------------------------------------------------------------

bool
Engine::hEnd(Engine& e, const DInst&)
{
    // Fell off the end: halt without counting an instruction, exactly
    // like the simulator's pc bound check.
    (void)e;
    return false;
}

bool
Engine::hHalt(Engine& e, const DInst& d)
{
    e.tick(1);
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    return false;
}

bool
Engine::hBr(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->branches++;
    e.pc_ = d.target;
    return true;
}

bool
Engine::hBrIf(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->branches++;
    bool truth =
        e.env_.regs[static_cast<size_t>(d.src0)].asInt() != 0;
    e.pc_ = truth ? d.target : e.pc_ + 1;
    return true;
}

bool
Engine::hBrIfNot(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->branches++;
    bool truth =
        e.env_.regs[static_cast<size_t>(d.src0)].asInt() != 0;
    e.pc_ = truth ? e.pc_ + 1 : d.target;
    return true;
}

bool
Engine::hScalar(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    ir::Value out = sim::evalScalarOp(*d.raw, e.env_.regs);
    if (d.dst >= 0)
        e.env_.regs[static_cast<size_t>(d.dst)] = out;
    e.pc_++;
    return true;
}

bool
Engine::hWork(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    ir::Value out = sim::evalScalarOp(*d.raw, e.env_.regs);
    if (d.imm > 1) {
        // The simulator charges kWork as `imm` uops; natively we burn
        // the same amount of real compute. Only the first mix lands in
        // the destination register so results stay bit-identical.
        uint64_t burn = out.bits;
        for (int64_t k = 1; k < d.imm; ++k)
            burn = sim::workMix(burn);
        e.workSink_ += burn;
    }
    if (d.dst >= 0)
        e.env_.regs[static_cast<size_t>(d.dst)] = out;
    e.pc_++;
    return true;
}

bool
Engine::hLoad(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    // Array bindings are looked up per execution: kSwapArr may retarget
    // them at runtime, so decoded instructions never cache the buffer.
    sim::ArrayBuffer* buf = e.env_.arrayBind[static_cast<size_t>(d.arr)];
    int64_t idx = e.env_.regs[static_cast<size_t>(d.src0)].asInt();
    ir::Value out = buf->load(idx);
    if (d.dst >= 0)
        e.env_.regs[static_cast<size_t>(d.dst)] = out;
    e.pc_++;
    return true;
}

bool
Engine::hStore(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    sim::ArrayBuffer* buf = e.env_.arrayBind[static_cast<size_t>(d.arr)];
    int64_t idx = e.env_.regs[static_cast<size_t>(d.src0)].asInt();
    buf->store(idx, e.env_.regs[static_cast<size_t>(d.src1)]);
    if (d.dst >= 0)
        e.env_.regs[static_cast<size_t>(d.dst)] = ir::Value{};
    e.pc_++;
    return true;
}

bool
Engine::hMemOther(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    sim::ArrayBuffer* buf = e.env_.arrayBind[static_cast<size_t>(d.arr)];
    ir::Value out = sim::applyMemOp(*d.raw, *buf, e.env_.regs);
    if (d.dst >= 0)
        e.env_.regs[static_cast<size_t>(d.dst)] = out;
    e.pc_++;
    return true;
}

bool
Engine::hAtomic(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    sim::ArrayBuffer* buf = e.env_.arrayBind[static_cast<size_t>(d.arr)];
    ir::Value out;
    {
        // applyMemOp implements RMWs as load+store; serialize them
        // across stages so concurrent updates are not lost.
        std::lock_guard<std::mutex> g(e.env_.ctl->atomicsMu);
        out = sim::applyMemOp(*d.raw, *buf, e.env_.regs);
    }
    if (d.dst >= 0)
        e.env_.regs[static_cast<size_t>(d.dst)] = out;
    e.pc_++;
    return true;
}

bool
Engine::hSwapArr(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    std::swap(e.env_.arrayBind[static_cast<size_t>(d.arr)],
              e.env_.arrayBind[static_cast<size_t>(d.arr2)]);
    e.pc_++;
    return true;
}

bool
Engine::hBarrier(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    e.pc_++;
    return e.barrier();
}

bool
Engine::hEnq(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->queueOps++;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    if (!e.push(*d.q, d.absQ,
                    e.env_.regs[static_cast<size_t>(d.src0)]))
        return false;
    e.pc_++;
    return true;
}

bool
Engine::hEnqCtrl(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->queueOps++;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    if (!e.push(*d.q, d.absQ,
                    ir::Value::makeControl(static_cast<uint32_t>(d.imm))))
        return false;
    e.pc_++;
    return true;
}

bool
Engine::hEnqDist(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->queueOps++;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    int abs_q = e.distQueue(
        d.queueBase, e.env_.regs[static_cast<size_t>(d.src1)].asInt());
    SpscQueue& q = e.queue(abs_q);
    ir::Value v =
        d.src0 < 0 ? ir::Value::makeControl(static_cast<uint32_t>(d.imm))
                   : e.env_.regs[static_cast<size_t>(d.src0)];
    if (!e.push(q, abs_q, v))
        return false;
    e.pc_++;
    return true;
}

bool
Engine::hDeq(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->queueOps++;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    ir::Value v;
    if (!e.pop(*d.q, d.absQ, v))
        return false;
    e.env_.regs[static_cast<size_t>(d.dst)] = v;
    // Control-value handler: transfer when a control value is dequeued,
    // exactly as the simulated hardware does.
    if (v.isControl() && d.handlerPc >= 0)
        e.pc_ = d.handlerPc;
    else
        e.pc_++;
    return true;
}

bool
Engine::hPeek(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->queueOps++;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    ir::Value v;
    if (!e.peek(*d.q, d.absQ, v))
        return false;
    e.env_.regs[static_cast<size_t>(d.dst)] = v;
    e.pc_++;
    return true;
}

// --- Fused superinstructions (two raw instructions per dispatch). ----

bool
Engine::hScalarBr(Engine& e, const DInst& d)
{
    if (!e.tick(2))
        return false;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    e.env_.stats->branches++;
    ir::Value out = sim::evalScalarOp(*d.raw, e.env_.regs);
    e.env_.regs[static_cast<size_t>(d.dst)] = out;
    bool truth = out.asInt() != 0;
    if (d.negate)
        truth = !truth;
    e.pc_ = truth ? d.target : e.pc_ + 2;
    return true;
}

bool
Engine::hScalarJmp(Engine& e, const DInst& d)
{
    if (!e.tick(2))
        return false;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    e.env_.stats->branches++;
    e.env_.regs[static_cast<size_t>(d.dst)] =
        sim::evalScalarOp(*d.raw, e.env_.regs);
    e.pc_ = d.target;
    return true;
}

bool
Engine::hScalarEnq(Engine& e, const DInst& d)
{
    if (!e.tick(2))
        return false;
    e.env_.stats->queueOps++;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode2)]++;
    ir::Value out = sim::evalScalarOp(*d.raw, e.env_.regs);
    e.env_.regs[static_cast<size_t>(d.dst)] = out;
    if (!e.push(*d.q, d.absQ, out))
        return false;
    e.pc_ += 2;
    return true;
}

bool
Engine::hLoadEnq(Engine& e, const DInst& d)
{
    if (!e.tick(2))
        return false;
    e.env_.stats->queueOps++;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode2)]++;
    sim::ArrayBuffer* buf = e.env_.arrayBind[static_cast<size_t>(d.arr)];
    int64_t idx = e.env_.regs[static_cast<size_t>(d.src0)].asInt();
    ir::Value out = buf->load(idx);
    e.env_.regs[static_cast<size_t>(d.dst)] = out;
    if (!e.push(*d.q, d.absQ, out))
        return false;
    e.pc_ += 2;
    return true;
}

// Order must match the DOp enumerators exactly.
const Engine::Handler Engine::kDispatch[kNumDOps] = {
    &Engine::hEnd,       // kEnd
    &Engine::hHalt,      // kHalt
    &Engine::hBr,        // kBr
    &Engine::hBrIf,      // kBrIf
    &Engine::hBrIfNot,   // kBrIfNot
    &Engine::hScalar,    // kScalar
    &Engine::hWork,      // kWork
    &Engine::hLoad,      // kLoad
    &Engine::hStore,     // kStore
    &Engine::hMemOther,  // kMemOther
    &Engine::hAtomic,    // kAtomic
    &Engine::hSwapArr,   // kSwapArr
    &Engine::hBarrier,   // kBarrier
    &Engine::hEnq,       // kEnq
    &Engine::hEnqCtrl,   // kEnqCtrl
    &Engine::hEnqDist,   // kEnqDist
    &Engine::hDeq,       // kDeq
    &Engine::hPeek,      // kPeek
    &Engine::hScalarBr,  // kScalarBr
    &Engine::hScalarJmp, // kScalarJmp
    &Engine::hScalarEnq, // kScalarEnq
    &Engine::hLoadEnq,   // kLoadEnq
};

void
Engine::run()
{
    const DInst* code = prog_.code.data();
    for (;;) {
        const DInst& d = code[pc_];
        if (!kDispatch[static_cast<size_t>(d.op)](*this, d))
            return;
    }
}

} // namespace phloem::rt
