/**
 * @file
 * Shared functional interpreter core over the flat instruction form.
 *
 * Both execution backends — the cycle-approximate simulator
 * (sim/machine.cc) and the native multithreaded runtime (runtime/) —
 * interpret the same sim::flatten output. The functional semantics of
 * every opcode live here, in one place, so the two backends cannot
 * drift: the simulator charges timing around these helpers, and the
 * runtime wraps them in real threads and lock-free queues. Differential
 * tests (end2end_test, runtime_test) then compare the two backends
 * bit-for-bit.
 */

#ifndef PHLOEM_SIM_EVAL_H
#define PHLOEM_SIM_EVAL_H

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/logging.h"
#include "ir/op.h"
#include "sim/binding.h"
#include "sim/program.h"

namespace phloem::sim {

/** A cheap value mixer for kWork (deterministic, data-dependent). */
inline uint64_t
workMix(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return x;
}

// Integer arithmetic wraps (two's complement) rather than invoking
// signed-overflow UB: generated/fuzzed programs may overflow freely, and
// both backends must agree with the serial reference bit-for-bit even
// when they do. Division by zero and INT64_MIN / -1 are likewise given
// defined results.
inline int64_t
wrapAdd(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) +
                                static_cast<uint64_t>(b));
}

inline int64_t
wrapSub(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) -
                                static_cast<uint64_t>(b));
}

inline int64_t
wrapMul(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) *
                                static_cast<uint64_t>(b));
}

inline int64_t
wrapDiv(int64_t a, int64_t b)
{
    if (b == 0)
        return 0;
    if (b == -1 && a == std::numeric_limits<int64_t>::min())
        return a;  // the one overflowing quotient: wraps to itself
    return a / b;
}

inline int64_t
wrapRem(int64_t a, int64_t b)
{
    if (b == 0)
        return 0;
    if (b == -1)
        return 0;  // avoids the INT64_MIN % -1 trap; result is exact
    return a % b;
}

inline int64_t
wrapShl(int64_t a, int64_t sh)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a)
                                << (static_cast<uint64_t>(sh) & 63));
}

/** double -> int64 with saturation (the raw cast is UB out of range). */
inline int64_t
doubleToInt(double v)
{
    if (std::isnan(v))
        return 0;
    constexpr double kLo =
        static_cast<double>(std::numeric_limits<int64_t>::min());
    // 2^63 exactly; every double >= this is out of range.
    constexpr double kHi = 9223372036854775808.0;
    if (v < kLo)
        return std::numeric_limits<int64_t>::min();
    if (v >= kHi)
        return std::numeric_limits<int64_t>::max();
    return static_cast<int64_t>(v);
}

/**
 * Evaluate a scalar (non-memory, non-queue, non-control-flow) op over a
 * register file. Returns the value for inst.dst; panics on opcodes that
 * are not plain scalar computation.
 */
inline ir::Value
evalScalarOp(const Inst& inst, const ir::Value* regs)
{
    using ir::Opcode;

    auto sv = [&](int i) -> const ir::Value& {
        ir::RegId r = i == 0 ? inst.src0 : (i == 1 ? inst.src1 : inst.src2);
        return regs[static_cast<size_t>(r)];
    };
    auto ivv = [&](int i) { return sv(i).asInt(); };
    auto fvv = [&](int i) { return sv(i).asDouble(); };

    ir::Value out;
    switch (inst.opcode) {
      case Opcode::kConst: out.bits = static_cast<uint64_t>(inst.imm); break;
      case Opcode::kMov: out = sv(0); break;
      case Opcode::kAdd: out = ir::Value::fromInt(wrapAdd(ivv(0), ivv(1))); break;
      case Opcode::kSub: out = ir::Value::fromInt(wrapSub(ivv(0), ivv(1))); break;
      case Opcode::kMul: out = ir::Value::fromInt(wrapMul(ivv(0), ivv(1))); break;
      case Opcode::kDiv:
        out = ir::Value::fromInt(wrapDiv(ivv(0), ivv(1)));
        break;
      case Opcode::kRem:
        out = ir::Value::fromInt(wrapRem(ivv(0), ivv(1)));
        break;
      case Opcode::kAnd: out = ir::Value::fromInt(ivv(0) & ivv(1)); break;
      case Opcode::kOr: out = ir::Value::fromInt(ivv(0) | ivv(1)); break;
      case Opcode::kXor: out = ir::Value::fromInt(ivv(0) ^ ivv(1)); break;
      case Opcode::kShl:
        out = ir::Value::fromInt(wrapShl(ivv(0), ivv(1)));
        break;
      case Opcode::kShr:
        out = ir::Value::fromInt(static_cast<int64_t>(
            static_cast<uint64_t>(ivv(0)) >> (ivv(1) & 63)));
        break;
      case Opcode::kMin:
        out = ir::Value::fromInt(std::min(ivv(0), ivv(1)));
        break;
      case Opcode::kMax:
        out = ir::Value::fromInt(std::max(ivv(0), ivv(1)));
        break;
      case Opcode::kCmpEq: out = ir::Value::fromInt(ivv(0) == ivv(1)); break;
      case Opcode::kCmpNe: out = ir::Value::fromInt(ivv(0) != ivv(1)); break;
      case Opcode::kCmpLt: out = ir::Value::fromInt(ivv(0) < ivv(1)); break;
      case Opcode::kCmpLe: out = ir::Value::fromInt(ivv(0) <= ivv(1)); break;
      case Opcode::kCmpGt: out = ir::Value::fromInt(ivv(0) > ivv(1)); break;
      case Opcode::kCmpGe: out = ir::Value::fromInt(ivv(0) >= ivv(1)); break;
      case Opcode::kNot: out = ir::Value::fromInt(ivv(0) == 0); break;
      case Opcode::kSelect: out = ivv(0) != 0 ? sv(1) : sv(2); break;
      case Opcode::kFAdd:
        out = ir::Value::fromDouble(fvv(0) + fvv(1));
        break;
      case Opcode::kFSub:
        out = ir::Value::fromDouble(fvv(0) - fvv(1));
        break;
      case Opcode::kFMul:
        out = ir::Value::fromDouble(fvv(0) * fvv(1));
        break;
      case Opcode::kFDiv:
        out = ir::Value::fromDouble(fvv(0) / fvv(1));
        break;
      case Opcode::kFNeg: out = ir::Value::fromDouble(-fvv(0)); break;
      case Opcode::kFAbs:
        out = ir::Value::fromDouble(std::fabs(fvv(0)));
        break;
      case Opcode::kFMin:
        out = ir::Value::fromDouble(std::min(fvv(0), fvv(1)));
        break;
      case Opcode::kFMax:
        out = ir::Value::fromDouble(std::max(fvv(0), fvv(1)));
        break;
      case Opcode::kFCmpEq: out = ir::Value::fromInt(fvv(0) == fvv(1)); break;
      case Opcode::kFCmpNe: out = ir::Value::fromInt(fvv(0) != fvv(1)); break;
      case Opcode::kFCmpLt: out = ir::Value::fromInt(fvv(0) < fvv(1)); break;
      case Opcode::kFCmpLe: out = ir::Value::fromInt(fvv(0) <= fvv(1)); break;
      case Opcode::kFCmpGt: out = ir::Value::fromInt(fvv(0) > fvv(1)); break;
      case Opcode::kFCmpGe: out = ir::Value::fromInt(fvv(0) >= fvv(1)); break;
      case Opcode::kI2F:
        out = ir::Value::fromDouble(static_cast<double>(ivv(0)));
        break;
      case Opcode::kF2I:
        out = ir::Value::fromInt(doubleToInt(fvv(0)));
        break;
      case Opcode::kIsControl:
        out = ir::Value::fromInt(sv(0).isControl());
        break;
      case Opcode::kCtrlCode:
        out = ir::Value::fromInt(sv(0).isControl()
                                     ? static_cast<int64_t>(
                                           sv(0).controlCode())
                                     : -1);
        break;
      case Opcode::kWork:
        out = ir::Value::fromInt(static_cast<int64_t>(
            workMix(sv(0).bits)));
        break;
      default:
        phloem_panic("unhandled opcode ", ir::opcodeName(inst.opcode));
    }
    return out;
}

/**
 * Execute the functional part of a memory op against a bound buffer.
 * Returns the value for inst.dst (meaningful for loads and atomics).
 *
 * Atomic read-modify-writes are implemented as plain load+store: the
 * simulator runs cooperatively, and the native runtime serializes them
 * externally (runtime/worker.cc takes a lock around this call).
 */
inline ir::Value
applyMemOp(const Inst& inst, ArrayBuffer& buf, const ir::Value* regs)
{
    int64_t idx = regs[static_cast<size_t>(inst.src0)].asInt();

    ir::Value result;
    switch (inst.opcode) {
      case ir::Opcode::kLoad:
        result = buf.load(idx);
        break;
      case ir::Opcode::kStore:
        buf.store(idx, regs[static_cast<size_t>(inst.src1)]);
        break;
      case ir::Opcode::kPrefetch:
        buf.prefetch(idx);
        break;
      case ir::Opcode::kAtomicMin: {
        ir::Value old = buf.load(idx);
        int64_t nv = std::min(old.asInt(),
                              regs[static_cast<size_t>(inst.src1)].asInt());
        buf.store(idx, ir::Value::fromInt(nv));
        result = old;
        break;
      }
      case ir::Opcode::kAtomicAdd: {
        ir::Value old = buf.load(idx);
        int64_t nv = wrapAdd(old.asInt(),
                             regs[static_cast<size_t>(inst.src1)].asInt());
        buf.store(idx, ir::Value::fromInt(nv));
        result = old;
        break;
      }
      case ir::Opcode::kAtomicFAdd: {
        ir::Value old = buf.load(idx);
        double nv = old.asDouble() +
                    regs[static_cast<size_t>(inst.src1)].asDouble();
        buf.store(idx, ir::Value::fromDouble(nv));
        result = old;
        break;
      }
      case ir::Opcode::kAtomicOr: {
        ir::Value old = buf.load(idx);
        int64_t nv =
            old.asInt() | regs[static_cast<size_t>(inst.src1)].asInt();
        buf.store(idx, ir::Value::fromInt(nv));
        result = old;
        break;
      }
      default:
        phloem_panic("not a memory op");
    }
    return result;
}

/** Replica selected by a kEnqDist op for a given selector value. */
inline int
distTargetReplica(int64_t sel, int num_replicas)
{
    return static_cast<int>(((sel % num_replicas) + num_replicas) %
                            num_replicas);
}

} // namespace phloem::sim

#endif // PHLOEM_SIM_EVAL_H
