/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * Spans are recorded only in the benchmark's own code, around each call
 * into a layer of the stack (the program under test carries no hooks).
 * Each span holds its layer, name, start, end, parent span and thread;
 * service spans also carry the server's request id. Spans stay in
 * memory until the run ends, then are written as Chrome trace_event
 * JSON (the format of the repository's own traces) and reduced to a
 * per-layer self-time table: a span's duration minus its children's.
 *
 * Recording is off unless the run was started with tracing, and can be
 * paused per thread so a traced run can interleave untraced operations
 * (the trace-overhead measurement).
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** The stack's layers, as the benchmark times them. */
inline const std::vector<std::string> kLayers = {
    "workloads", "frontend", "compiler", "driver",
    "runtime",   "sim",      "service",
};

class Spans
{
  public:
    /** RAII span: ends when destroyed. Inert when recording is off. */
    class Scope
    {
      public:
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        ~Scope();

        /** Attach the server-assigned request id (service spans). */
        void setRequestId(const std::string& id);

      private:
        friend class Spans;
        Scope(Spans* owner, int index) : owner_(owner), index_(index) {}
        Spans* owner_;
        int index_;
    };

    /** Turn recording on for the whole run (the traced mode). */
    void enable() { enabled_ = true; }
    bool enabled() const { return enabled_; }

    /** Pause or resume recording on the calling thread. */
    static void setThreadRecording(bool on);

    /** Open a span of `layer` on the calling thread. */
    [[nodiscard]] Scope span(const char* layer, std::string name);

    /** Self time per layer in milliseconds; every layer in kLayers. */
    std::map<std::string, double> selfMsByLayer() const;

    /** Write every span as Chrome trace_event JSON. */
    bool writeChromeJson(const std::string& path, std::string* err) const;


  private:
    struct Span
    {
        std::string layer;
        std::string name;
        std::string requestId;
        int64_t startNs = 0;
        int64_t endNs = 0;
        int parent = -1;
        int tid = 0;
    };

    void end(int index);

    bool enabled_ = false;
    mutable std::mutex mu_;
    std::vector<Span> spans_;  ///< guarded by mu_
    int nextTid_ = 0;          ///< guarded by mu_
};

/** The process-wide recorder. */
Spans& spans();

/** Monotonic nanoseconds. */
int64_t nowNs();

/** Milliseconds elapsed since `t0` (a nowNs() reading). */
inline double
msSince(int64_t t0)
{
    return static_cast<double>(nowNs() - t0) / 1e6;
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
