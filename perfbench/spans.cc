#include "spans.h"

#include <chrono>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

thread_local std::vector<int> t_open;  ///< open span indices, innermost last
thread_local int t_tid = -1;
thread_local bool t_recording = true;

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(ch) < 0x20)
            continue;
        out.push_back(ch);
    }
    return out;
}

} // namespace

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Spans&
spans()
{
    static Spans recorder;
    return recorder;
}

void
Spans::setThreadRecording(bool on)
{
    t_recording = on;
}

Spans::Scope
Spans::span(const char* layer, std::string name)
{
    if (!enabled_ || !t_recording)
        return Scope(nullptr, -1);
    Span s;
    s.layer = layer;
    s.name = std::move(name);
    s.parent = t_open.empty() ? -1 : t_open.back();
    std::lock_guard<std::mutex> lock(mu_);
    if (t_tid < 0)
        t_tid = nextTid_++;
    s.tid = t_tid;
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    int index = static_cast<int>(spans_.size()) - 1;
    t_open.push_back(index);
    return Scope(this, index);
}

void
Spans::end(int index)
{
    int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(index)].endNs = t;
    if (!t_open.empty() && t_open.back() == index)
        t_open.pop_back();
}

Spans::Scope::~Scope()
{
    if (owner_ != nullptr)
        owner_->end(index_);
}

void
Spans::Scope::setRequestId(const std::string& id)
{
    if (owner_ == nullptr)
        return;
    std::lock_guard<std::mutex> lock(owner_->mu_);
    owner_->spans_[static_cast<size_t>(index_)].requestId = id;
}

std::map<std::string, double>
Spans::selfMsByLayer() const
{
    std::lock_guard<std::mutex> lock(mu_);
    // Children of one span run on its thread, nested and disjoint, so
    // the part of its interval they cover is the sum of their durations.
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const auto& s : spans_)
        if (s.parent >= 0)
            child_ns[static_cast<size_t>(s.parent)] += s.endNs - s.startNs;
    std::map<std::string, double> out;
    for (const auto& layer : kLayers)
        out[layer] = 0.0;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out[s.layer] +=
            static_cast<double>(s.endNs - s.startNs - child_ns[i]) / 1e6;
    }
    return out;
}

bool
Spans::writeChromeJson(const std::string& path, std::string* err) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream f(path);
    if (!f) {
        *err = "cannot open " + path;
        return false;
    }
    int64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
    f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        char times[96];
        std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f",
                      static_cast<double>(s.startNs - origin) / 1e3,
                      static_cast<double>(s.endNs - s.startNs) / 1e3);
        f << (i == 0 ? "" : ",") << "\n{\"name\":\"" << jsonEscape(s.name)
          << "\",\"cat\":\"" << s.layer << "\",\"ph\":\"X\",\"pid\":1,"
          << "\"tid\":" << s.tid << "," << times << ",\"args\":{\"id\":" << i
          << ",\"parent\":" << s.parent;
        if (!s.requestId.empty())
            f << ",\"request_id\":\"" << jsonEscape(s.requestId) << "\"";
        f << "}}";
    }
    f << "\n]}\n";
    f.close();
    if (!f) {
        *err = "write failed: " + path;
        return false;
    }
    return true;
}

} // namespace perfbench
