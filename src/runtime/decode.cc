#include "runtime/decode.h"

#include "base/logging.h"
#include "ir/op.h"

namespace phloem::rt {

namespace {

/**
 * Is this raw instruction a plain scalar op (evalScalarOp-eligible)?
 * Queue, memory, barrier, halt, and kWork ops all have side effects or
 * special handling and stay out of the scalar fusion patterns.
 */
bool
isPlainScalar(const sim::Inst& inst)
{
    if (inst.kind != sim::Inst::Kind::kOp)
        return false;
    if (ir::usesQueue(inst.opcode) || ir::usesArray(inst.opcode))
        return false;
    switch (inst.opcode) {
      case ir::Opcode::kBarrier:
      case ir::Opcode::kHalt:
      case ir::Opcode::kWork:
        return false;
      default:
        return true;
    }
}

/** Decode one raw instruction standalone (no fusion, no relocation). */
DInst
decodeOne(const sim::Inst& inst)
{
    DInst d;
    d.raw = &inst;
    d.opcode = inst.opcode;
    d.dst = inst.dst;
    d.src0 = inst.src0;
    d.src1 = inst.src1;
    d.imm = inst.imm;
    d.arr = inst.arr;
    d.arr2 = inst.arr2;
    d.target = inst.target;
    d.handlerPc = inst.handlerPc;

    switch (inst.kind) {
      case sim::Inst::Kind::kBr:
        d.op = DOp::kBr;
        return d;
      case sim::Inst::Kind::kBrIf:
        d.op = DOp::kBrIf;
        return d;
      case sim::Inst::Kind::kBrIfNot:
        d.op = DOp::kBrIfNot;
        return d;
      case sim::Inst::Kind::kOp:
        break;
    }

    if (ir::usesQueue(inst.opcode)) {
        switch (inst.opcode) {
          case ir::Opcode::kEnq:
            d.op = DOp::kEnq;
            d.queueRel = inst.queue;
            return d;
          case ir::Opcode::kEnqCtrl:
            d.op = DOp::kEnqCtrl;
            d.queueRel = inst.queue;
            return d;
          case ir::Opcode::kEnqDist:
            // Target replica depends on the selector value; only the
            // per-replica base id can be resolved statically.
            d.op = DOp::kEnqDist;
            d.queueBase = inst.queue;
            return d;
          case ir::Opcode::kDeq:
            d.op = DOp::kDeq;
            d.queueRel = inst.queue;
            return d;
          case ir::Opcode::kPeek:
            d.op = DOp::kPeek;
            d.queueRel = inst.queue;
            return d;
          default:
            phloem_panic("not a queue op");
        }
    }

    if (ir::usesArray(inst.opcode) &&
        inst.opcode != ir::Opcode::kSwapArr) {
        switch (inst.opcode) {
          case ir::Opcode::kLoad:
            d.op = DOp::kLoad;
            return d;
          case ir::Opcode::kStore:
            d.op = DOp::kStore;
            return d;
          case ir::Opcode::kAtomicMin:
          case ir::Opcode::kAtomicAdd:
          case ir::Opcode::kAtomicFAdd:
          case ir::Opcode::kAtomicOr:
            d.op = DOp::kAtomic;
            return d;
          default:
            d.op = DOp::kMemOther;  // kPrefetch
            return d;
        }
    }

    switch (inst.opcode) {
      case ir::Opcode::kBarrier:
        d.op = DOp::kBarrier;
        return d;
      case ir::Opcode::kHalt:
        d.op = DOp::kHalt;
        return d;
      case ir::Opcode::kSwapArr:
        d.op = DOp::kSwapArr;
        return d;
      case ir::Opcode::kWork:
        d.op = DOp::kWork;
        return d;
      default:
        d.op = DOp::kScalar;
        return d;
    }
}

} // namespace

DecodedProgram
decodeShape(const sim::Program& prog)
{
    DecodedProgram out;
    const auto& code = prog.code;
    out.code.reserve(code.size() + 1);
    for (const auto& inst : code)
        out.code.push_back(decodeOne(inst));

    // Sentinel: running off the end halts without counting an
    // instruction, exactly like the simulator's pc bound check.
    // Branch targets may legally point here (loops ending the body).
    DInst end;
    end.op = DOp::kEnd;
    out.code.push_back(end);

    // Fusion pass. A pair (i, i+1) may fuse only when i falls through
    // unconditionally — which every pattern below guarantees, since the
    // first half is always a plain scalar op or a load. Slot i+1 keeps
    // its standalone decoding so branches targeting it still work.
    for (size_t i = 0; i + 1 < code.size(); ++i) {
        const sim::Inst& a = code[i];
        const sim::Inst& b = code[i + 1];
        DInst& d = out.code[i];

        // load ; enq(dst)  →  kLoadEnq   (gather feeding a queue)
        if (a.kind == sim::Inst::Kind::kOp &&
            a.opcode == ir::Opcode::kLoad && a.dst >= 0 &&
            b.kind == sim::Inst::Kind::kOp &&
            b.opcode == ir::Opcode::kEnq && b.src0 == a.dst) {
            d.op = DOp::kLoadEnq;
            d.opcode2 = b.opcode;
            d.raw2 = &b;
            d.queueRel = b.queue;
            out.fusedSites++;
            continue;
        }

        if (!isPlainScalar(a) || a.dst < 0)
            continue;

        // scalar ; br-if(dst)  →  kScalarBr  (loop headers: cmp+brIfNot,
        // explicit control checks: is_control+brIf, const+cmp+brif tails)
        if ((b.kind == sim::Inst::Kind::kBrIf ||
             b.kind == sim::Inst::Kind::kBrIfNot) &&
            b.src0 == a.dst) {
            d.op = DOp::kScalarBr;
            d.negate = b.kind == sim::Inst::Kind::kBrIfNot;
            d.raw2 = &b;  // second half is a branch, not an opcode
            d.target = b.target;
            out.fusedSites++;
            continue;
        }

        // scalar ; br  →  kScalarJmp  (loop backedges: add+br)
        if (b.kind == sim::Inst::Kind::kBr) {
            d.op = DOp::kScalarJmp;
            d.raw2 = &b;
            d.target = b.target;
            out.fusedSites++;
            continue;
        }

        // scalar ; enq(dst)  →  kScalarEnq  (compute feeding a queue)
        if (b.kind == sim::Inst::Kind::kOp &&
            b.opcode == ir::Opcode::kEnq && b.src0 == a.dst) {
            d.op = DOp::kScalarEnq;
            d.opcode2 = b.opcode;
            d.raw2 = &b;
            d.queueRel = b.queue;
            out.fusedSites++;
            continue;
        }
    }

    // Validate control-flow targets once so the engine's dispatch loop
    // can index code[target] unchecked. A target equal to code.size()
    // lands on the kEnd sentinel (a loop whose body ends the program).
    const int32_t limit = static_cast<int32_t>(code.size());
    for (const DInst& d : out.code) {
        bool is_branch = d.op == DOp::kBr || d.op == DOp::kBrIf ||
                         d.op == DOp::kBrIfNot || d.op == DOp::kScalarBr ||
                         d.op == DOp::kScalarJmp;
        if (is_branch)
            phloem_assert(d.target >= 0 && d.target <= limit,
                          "branch target out of range");
        if (d.op == DOp::kDeq && d.handlerPc >= 0)
            phloem_assert(d.handlerPc <= limit,
                          "control handler pc out of range");
    }
    return out;
}

void
relocateProgram(DecodedProgram& dp, int queue_offset,
                const std::vector<SpscQueue*>& queues)
{
    for (DInst& d : dp.code) {
        if (d.queueRel < 0)
            continue;
        d.absQ = queue_offset + d.queueRel;
        phloem_assert(d.absQ >= 0 &&
                          d.absQ < static_cast<int>(queues.size()),
                      "decoded queue id out of range");
        d.q = queues[static_cast<size_t>(d.absQ)];
    }
}

} // namespace phloem::rt
