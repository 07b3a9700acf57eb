/**
 * @file
 * Benchmark-side span recorder: one span around each call the benchmark
 * makes into a layer's public functions, plus one per workload phase.
 *
 * Spans live in per-thread buffers and are merged when the run ends, so
 * recording never takes a lock on the hot path. A span opened on a
 * client thread names its parent explicitly (the phase span of the
 * thread that started it). Spans opened with a store also read that
 * store's device counters at both boundaries.
 *
 * Host time spent inside the engine's own background threads (the
 * pipelined archiver, the compactor) has no span here: those threads
 * are invisible from outside the library.
 */

#ifndef XPBENCH_TRACE_HPP
#define XPBENCH_TRACE_HPP

#include <chrono>
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/graph_store.hpp"

namespace xpbench {

inline uint64_t
hostNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct Span
{
    const char *name = "";
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 = root
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    bool hasCounters = false;
    uint64_t mediaReadBytes = 0;
    uint64_t mediaWriteBytes = 0;
};

/** Per-layer roll-up of the spans that share a name. */
struct LayerRow
{
    uint64_t count = 0;
    uint64_t hostNs = 0;
    uint64_t selfNs = 0;
    uint64_t mediaReadBytes = 0;
    uint64_t mediaWriteBytes = 0;
    bool hasCounters = false;
};

class Tracer
{
  public:
    Tracer(bool enabled, std::string run_id)
        : enabled_(enabled), runId_(std::move(run_id))
    {
    }

    bool enabled() const { return enabled_; }

    /** RAII span; a no-op when the tracer is off. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name, uint64_t parent,
              const xpg::GraphStore *counters = nullptr)
            : tracer_(t), store_(counters)
        {
            if (!t.enabled_)
                return;
            span_.name = name;
            span_.id = t.nextId();
            span_.parent = parent;
            if (store_ != nullptr) {
                const xpg::PcmCounters c = store_->pmemCounters();
                span_.hasCounters = true;
                span_.mediaReadBytes = c.mediaBytesRead;
                span_.mediaWriteBytes = c.mediaBytesWritten;
            }
            span_.startNs = hostNs();
        }

        ~Scope() { close(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** End the span now (idempotent); use before the store the span
         *  reads counters from is destroyed. */
        void
        close()
        {
            if (!tracer_.enabled_ || closed_)
                return;
            closed_ = true;
            span_.endNs = hostNs();
            if (store_ != nullptr) {
                const xpg::PcmCounters c = store_->pmemCounters();
                span_.mediaReadBytes = c.mediaBytesRead - span_.mediaReadBytes;
                span_.mediaWriteBytes =
                    c.mediaBytesWritten - span_.mediaWriteBytes;
            }
            tracer_.buffer().push_back(span_);
        }

        uint64_t id() const { return span_.id; }

      private:
        Tracer &tracer_;
        const xpg::GraphStore *store_;
        Span span_;
        bool closed_ = false;
    };

    /** Merge every thread's spans and roll them up by name. Self time
     *  is a span's duration minus the union of its children's
     *  intervals (children on other threads may overlap each other). */
    std::map<std::string, LayerRow>
    layerTable()
    {
        const std::vector<Span> spans = merged();
        std::map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>> kids;
        for (const Span &s : spans)
            if (s.parent != 0)
                kids[s.parent].emplace_back(s.startNs, s.endNs);
        std::map<std::string, LayerRow> rows;
        for (const Span &s : spans) {
            LayerRow &r = rows[s.name];
            const uint64_t dur = s.endNs - s.startNs;
            uint64_t covered = 0;
            auto it = kids.find(s.id);
            if (it != kids.end()) {
                auto &iv = it->second;
                std::sort(iv.begin(), iv.end());
                uint64_t lo = 0, hi = 0;
                for (auto [a, b] : iv) {
                    a = std::max(a, s.startNs);
                    b = std::min(b, s.endNs);
                    if (b <= a)
                        continue;
                    if (a > hi) {
                        covered += hi - lo;
                        lo = a;
                        hi = b;
                    } else {
                        hi = std::max(hi, b);
                    }
                }
                covered += hi - lo;
            }
            ++r.count;
            r.hostNs += dur;
            r.selfNs += dur - std::min(dur, covered);
            if (s.hasCounters) {
                r.hasCounters = true;
                r.mediaReadBytes += s.mediaReadBytes;
                r.mediaWriteBytes += s.mediaWriteBytes;
            }
        }
        return rows;
    }

    /** Write every span as JSON (name, start, end, parent, run id). */
    bool
    writeSpans(const std::string &path)
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fprintf(f, "{\"run_id\": \"%s\", \"spans\": [", runId_.c_str());
        bool first = true;
        for (const Span &s : merged()) {
            std::fprintf(f,
                         "%s\n {\"id\": %llu, \"parent\": %llu, \"name\": "
                         "\"%s\", \"start_ns\": %llu, \"end_ns\": %llu, "
                         "\"run_id\": \"%s\"}",
                         first ? "" : ",",
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent), s.name,
                         static_cast<unsigned long long>(s.startNs),
                         static_cast<unsigned long long>(s.endNs),
                         runId_.c_str());
            first = false;
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    uint64_t
    nextId()
    {
        return ids_.fetch_add(1, std::memory_order_relaxed);
    }

    /** The calling thread's span buffer, registered on first use. */
    std::vector<Span> &
    buffer()
    {
        thread_local std::vector<Span> *mine = nullptr;
        thread_local const Tracer *owner = nullptr;
        if (mine == nullptr || owner != this) {
            std::lock_guard<std::mutex> lock(mutex_);
            buffers_.push_back(std::make_unique<std::vector<Span>>());
            mine = buffers_.back().get();
            owner = this;
        }
        return *mine;
    }

    /** All spans; call only after every recording thread has joined. */
    std::vector<Span>
    merged()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<Span> all;
        for (const auto &b : buffers_)
            all.insert(all.end(), b->begin(), b->end());
        return all;
    }

    bool enabled_;
    std::string runId_;
    std::atomic<uint64_t> ids_{1};
    std::mutex mutex_; ///< guards buffers_
    std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

} // namespace xpbench

#endif // XPBENCH_TRACE_HPP
