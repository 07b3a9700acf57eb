#include "core/log_window_index.hpp"

#include <algorithm>

namespace xpg {

LogWindowIndex::LogWindowIndex(const CircularEdgeLog &log,
                               vid_t num_vertices)
    : log_(&log), numVertices_(num_vertices), capacity_(log.capacity())
{
    // Ring and heads are allocated on first real use (ensureCurrent with
    // a non-empty window), so an instance costs nothing until the first
    // log-window query.
}

void
LogWindowIndex::ensureCurrent()
{
    const uint64_t target = log_->head();
    if (indexedUpTo_.load(std::memory_order_acquire) >= target)
        return;

    std::lock_guard<std::mutex> lock(buildMutex_);
    const uint64_t indexed = indexedUpTo_.load(std::memory_order_relaxed);
    if (indexed >= target)
        return;
    // Positions below bufferedUpTo left the window unindexed: skip them.
    // A skipped position is never needed later — every open view's
    // window was fully indexed at open time (while bufferedUpTo was
    // frozen under the archive lock), so gaps only ever lie below every
    // live lower bound.
    const uint64_t from = std::max(indexed, log_->bufferedUpTo());
    if (from >= target) {
        indexedUpTo_.store(target, std::memory_order_release);
        return;
    }

    if (!built_.load(std::memory_order_relaxed)) {
        ring_ = std::make_unique<Entry[]>(capacity_);
        outHead_ =
            std::make_unique<std::atomic<uint64_t>[]>(numVertices_);
        inHead_ =
            std::make_unique<std::atomic<uint64_t>[]>(numVertices_);
        for (vid_t v = 0; v < numVertices_; ++v) {
            outHead_[v].store(kNone, std::memory_order_relaxed);
            inHead_[v].store(kNone, std::memory_order_relaxed);
        }
        built_.store(true, std::memory_order_release);
    }

    buildScratch_.clear();
    log_->readRange(from, target, buildScratch_); // device-charged read
    // DRAM cost of the index extension: a sequential stream of entry
    // writes plus two scattered head-pointer updates per edge.
    chargeDramSequential(buildScratch_.size() * sizeof(Entry));
    chargeDramScattered(2 * buildScratch_.size());
    for (uint64_t i = 0; i < buildScratch_.size(); ++i) {
        const Edge &edge = buildScratch_[i];
        const uint64_t pos = from + i;
        Entry &e = ring_[pos % capacity_];
        // Payload first, then the position (release): a concurrent
        // reader that sees pos match reads a fully written entry. The
        // slot being rewritten is never concurrently readable — its old
        // position is below the log's reclaim floor (lap safety).
        e.edge = edge;
        e.prevOut = outHead_[edge.src].load(std::memory_order_relaxed);
        const vid_t dst = rawVid(edge.dst);
        e.prevIn = inHead_[dst].load(std::memory_order_relaxed);
        e.pos.store(pos, std::memory_order_release);
        outHead_[edge.src].store(pos, std::memory_order_release);
        inHead_[dst].store(pos, std::memory_order_release);
    }
    indexedUpTo_.store(target, std::memory_order_release);
}

void
WindowSummary::build(const std::vector<Edge> &window, vid_t num_vertices,
                     bool out)
{
    XPG_ASSERT(window.size() <= kOffsetMask,
               "log window too large for a window summary");
    const auto key = [out](const Edge &e) {
        return out ? e.src : rawVid(e.dst);
    };
    // Counting sort, stable: count each vertex's records, turn the
    // counts into run ends (inclusive prefix sum), then place the
    // records back to front so each end walks down to its run's begin.
    offsets_.assign(static_cast<size_t>(num_vertices) + 1, 0);
    for (const Edge &e : window)
        ++offsets_[key(e)];
    uint32_t sum = 0;
    for (uint32_t &off : offsets_) {
        sum += off;
        off = sum;
    }
    recs_.resize(window.size());
    for (auto it = window.rbegin(); it != window.rend(); ++it) {
        const Edge &e = *it;
        const vid_t rec = out ? e.dst
                              : (isDelete(e.dst) ? asDelete(e.src) : e.src);
        // The flag never disturbs the decrement: a run's cursor stays
        // above its begin until its last (first-in-order) record.
        uint32_t &cursor = offsets_[key(e)];
        --cursor;
        recs_[cursor & kOffsetMask] = rec;
        if (isDelete(rec))
            cursor |= kDeleteBit;
    }
    chargeDramSequential(offsets_.size() * sizeof(uint32_t) +
                         recs_.size() * sizeof(vid_t));
}

} // namespace xpg
