/**
 * @file
 * Runtime binding of IR array symbols and scalar parameters to simulated
 * memory buffers and values.
 *
 * All stages of a pipeline share one address space; array symbols are
 * resolved by name. Replicated pipelines (paper Sec. IV-C) may override
 * bindings per replica — the analogue of the paper's
 * replicate_arguments() function.
 */

#ifndef PHLOEM_SIM_BINDING_H
#define PHLOEM_SIM_BINDING_H

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/logging.h"
#include "ir/type.h"

namespace phloem::sim {

/**
 * A typed buffer in simulated memory. The data lives in host memory for
 * functional execution; baseAddr places it in the simulated physical
 * address space for cache modeling.
 */
class ArrayBuffer
{
  public:
    ArrayBuffer(std::string name, ir::ElemType elem, size_t count)
        : name_(std::move(name)), elem_(elem), count_(count),
          data_(count * static_cast<size_t>(ir::elemSize(elem)), 0)
    {
    }

    const std::string& name() const { return name_; }
    ir::ElemType elem() const { return elem_; }
    size_t size() const { return count_; }
    size_t bytes() const { return data_.size(); }

    uint64_t baseAddr() const { return baseAddr_; }
    void setBaseAddr(uint64_t addr) { baseAddr_ = addr; }

    uint64_t
    addrOf(int64_t idx) const
    {
        return baseAddr_ + static_cast<uint64_t>(idx) *
                               static_cast<uint64_t>(ir::elemSize(elem_));
    }

    /** Load element idx as an IR value (sign-extending integers). */
    ir::Value
    load(int64_t idx) const
    {
        checkIndex(idx);
        switch (elem_) {
          case ir::ElemType::kI32: {
            int32_t v;
            std::memcpy(&v, data_.data() + idx * 4, 4);
            return ir::Value::fromInt(v);
          }
          case ir::ElemType::kI64: {
            int64_t v;
            std::memcpy(&v, data_.data() + idx * 8, 8);
            return ir::Value::fromInt(v);
          }
          case ir::ElemType::kF64: {
            double v;
            std::memcpy(&v, data_.data() + idx * 8, 8);
            return ir::Value::fromDouble(v);
          }
        }
        phloem_panic("bad elem type");
    }

    /** Store an IR value to element idx (truncating to element width). */
    void
    store(int64_t idx, ir::Value v)
    {
        checkIndex(idx);
        switch (elem_) {
          case ir::ElemType::kI32: {
            int32_t x = static_cast<int32_t>(v.asInt());
            std::memcpy(data_.data() + idx * 4, &x, 4);
            return;
          }
          case ir::ElemType::kI64: {
            int64_t x = v.asInt();
            std::memcpy(data_.data() + idx * 8, &x, 8);
            return;
          }
          case ir::ElemType::kF64: {
            double x = v.asDouble();
            std::memcpy(data_.data() + idx * 8, &x, 8);
            return;
          }
        }
        phloem_panic("bad elem type");
    }

    /**
     * kPrefetch: bounds-check element idx and hint it into the host
     * cache. Reads no data, so it never races a peer's store.
     */
    void
    prefetch(int64_t idx) const
    {
        checkIndex(idx);
        __builtin_prefetch(data_.data() +
                           idx * static_cast<int64_t>(ir::elemSize(elem_)));
    }

    // Typed conveniences for workload setup and validation.
    int64_t atInt(int64_t idx) const { return load(idx).asInt(); }
    double atDouble(int64_t idx) const { return load(idx).asDouble(); }
    void setInt(int64_t idx, int64_t v) { store(idx, ir::Value::fromInt(v)); }
    void
    setDouble(int64_t idx, double v)
    {
        store(idx, ir::Value::fromDouble(v));
    }

    /** Fill every element with an integer value. */
    void
    fillInt(int64_t v)
    {
        for (size_t i = 0; i < count_; ++i)
            setInt(static_cast<int64_t>(i), v);
    }

    bool
    contentEquals(const ArrayBuffer& o) const
    {
        return elem_ == o.elem_ && data_ == o.data_;
    }

    /** Raw backing bytes (output-image hashing, snapshots). */
    const uint8_t* rawBytes() const { return data_.data(); }

  private:
    void
    checkIndex(int64_t idx) const
    {
        phloem_assert(idx >= 0 && static_cast<size_t>(idx) < count_,
                      "out-of-bounds access to ", name_, "[", idx,
                      "] (size ", count_, ")");
    }

    std::string name_;
    ir::ElemType elem_;
    size_t count_;
    std::vector<uint8_t> data_;
    uint64_t baseAddr_ = 0;
};

/**
 * The set of buffers and scalar values for one run. Buffers are owned
 * here; base addresses are assigned contiguously (with padding) when a
 * buffer is added, giving each array a distinct region of the simulated
 * address space.
 */
class Binding
{
  public:
    /** Create and own a buffer; binds it under its own name. */
    ArrayBuffer*
    makeArray(const std::string& name, ir::ElemType elem, size_t count)
    {
        auto buf = std::make_unique<ArrayBuffer>(name, elem, count);
        buf->setBaseAddr(nextAddr_);
        // Page-align and pad so arrays never share cache lines.
        uint64_t sz = (buf->bytes() + 4095) & ~uint64_t{4095};
        nextAddr_ += sz + 4096;
        ArrayBuffer* raw = buf.get();
        owned_.push_back(std::move(buf));
        bind(name, raw);
        return raw;
    }

    /** Bind a symbol name to an existing buffer (global binding). */
    void bind(const std::string& name, ArrayBuffer* buf) { global_[name] = buf; }

    /** Bind a symbol for one replica only (replicate_arguments()). */
    void
    bindReplica(int replica, const std::string& name, ArrayBuffer* buf)
    {
        perReplicaArrays_[replica][name] = buf;
    }

    /** Resolve an array symbol for a replica. */
    ArrayBuffer*
    array(const std::string& name, int replica = 0) const
    {
        auto rit = perReplicaArrays_.find(replica);
        if (rit != perReplicaArrays_.end()) {
            auto it = rit->second.find(name);
            if (it != rit->second.end())
                return it->second;
        }
        auto it = global_.find(name);
        phloem_assert(it != global_.end(), "unbound array symbol ", name);
        return it->second;
    }

    bool
    hasArray(const std::string& name, int replica = 0) const
    {
        auto rit = perReplicaArrays_.find(replica);
        if (rit != perReplicaArrays_.end() && rit->second.count(name))
            return true;
        return global_.count(name) != 0;
    }

    /** Set a scalar parameter value. */
    void
    setScalar(const std::string& name, ir::Value v)
    {
        scalars_[name] = v;
    }

    void
    setScalarInt(const std::string& name, int64_t v)
    {
        scalars_[name] = ir::Value::fromInt(v);
    }

    void
    setScalarReplica(int replica, const std::string& name, ir::Value v)
    {
        perReplicaScalars_[replica][name] = v;
    }

    /** Resolve a scalar parameter. Unbound scalars are a hard error:
     *  a silent default of 0 turns a forgotten setScalarInt into a
     *  mysteriously empty run. */
    ir::Value
    scalar(const std::string& name, int replica = 0) const
    {
        auto rit = perReplicaScalars_.find(replica);
        if (rit != perReplicaScalars_.end()) {
            auto it = rit->second.find(name);
            if (it != rit->second.end())
                return it->second;
        }
        auto it = scalars_.find(name);
        if (it == scalars_.end())
            phloem_fatal("scalar parameter '", name,
                         "' was never bound (setScalarInt)");
        return it->second;
    }

    const std::map<std::string, ArrayBuffer*>& globalArrays() const
    {
        return global_;
    }

  private:
    std::vector<std::unique_ptr<ArrayBuffer>> owned_;
    std::map<std::string, ArrayBuffer*> global_;
    std::map<int, std::map<std::string, ArrayBuffer*>> perReplicaArrays_;
    std::map<std::string, ir::Value> scalars_;
    std::map<int, std::map<std::string, ir::Value>> perReplicaScalars_;
    uint64_t nextAddr_ = 1 << 20;
};

} // namespace phloem::sim

#endif // PHLOEM_SIM_BINDING_H
