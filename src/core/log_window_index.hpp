/**
 * @file
 * Per-vertex chained index over the non-buffered window of the circular
 * edge log, replacing the O(window) full-log scan that getNebrsLog*
 * used to pay per queried vertex.
 *
 * Layout: a DRAM ring of Entry records, one slot per log position
 * (slot = pos % capacity), plus per-vertex newest-position heads for the
 * out and in directions. Each entry chains to the previous log position
 * of the same source (prevOut) and destination (prevIn), so a vertex's
 * window records are reachable in O(degree-in-window).
 *
 * The index is maintained incrementally and lazily: ensureCurrent()
 * extends it from the last indexed position to head() (reading only the
 * new log suffix, device-charged), and advancing bufferedUpTo() costs
 * nothing — traversals simply stop at the window's lower bound. Stale
 * heads/links below the lower bound are never dereferenced: a position
 * is validated against the window before its (possibly reused) ring
 * slot is read, and the slot's stored position is checked to match.
 *
 * Concurrency: readers and the builder may overlap. Heads and slot
 * positions are atomics published with release stores after the slot's
 * payload is written, so a reader that acquires a head (or validates a
 * slot's position) sees a fully written entry. Slot reuse is safe
 * because the log's reservation bound caps reservedHead at
 * reclaim-floor + capacity: a position that any reader may still treat
 * as in-window (>= its visit's lower bound >= the log's reclaim floor)
 * is never lapped, so its ring slot is never rewritten while readable.
 *
 * Read views do not walk the chains: each view groups its own frozen
 * window into a WindowSummary, built once from one in-order range read
 * over the ring slots (forEachInRange).
 */

#ifndef XPG_CORE_LOG_WINDOW_INDEX_HPP
#define XPG_CORE_LOG_WINDOW_INDEX_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/circular_edge_log.hpp"
#include "graph/types.hpp"
#include "pmem/dram_device.hpp"
#include "util/logging.hpp"

namespace xpg {

/** Chained per-vertex index over the log's [bufferedUpTo, head) window. */
class LogWindowIndex
{
  public:
    /**
     * @param log Log to index (outlives this object).
     * @param num_vertices Vertex-id space of the graph.
     */
    LogWindowIndex(const CircularEdgeLog &log, vid_t num_vertices);

    /**
     * Extend the index to cover every edge in [bufferedUpTo, head).
     * Thread-safe; the fast path is one atomic load when up to date.
     */
    void ensureCurrent();

    /**
     * Visit the window's out-records of @p v, newest first (callers
     * wanting log order reverse the collected result). Requires a
     * preceding ensureCurrent() covering the window.
     * @return records visited.
     */
    template <typename F>
    uint32_t
    visitOut(vid_t v, F &&fn) const
    {
        return visitChain(outHead_.get(), v, true, log_->bufferedUpTo(), fn);
    }

    /** In-direction variant of visitOut(): emits the stored record
     *  (src, delete-flagged when the edge was a deletion). */
    template <typename F>
    uint32_t
    visitIn(vid_t v, F &&fn) const
    {
        return visitChain(inHead_.get(), v, false, log_->bufferedUpTo(), fn);
    }

    /**
     * Visit the logged edges at positions [@p low, @p high) in log
     * order, straight from the ring slots, charged as one sequential
     * DRAM stream over them. For point-in-time views: the caller must
     * have run ensureCurrent() to at least @p high while @p low was
     * still the log's buffered bound (openView does this under the
     * archive lock), and must pin the log's reclaim floor at or below
     * @p low for the lifetime of the read, so no slot in the range is
     * lapped.
     */
    template <typename F>
    void
    forEachInRange(uint64_t low, uint64_t high, F &&fn) const
    {
        if (high <= low)
            return;
        XPG_ASSERT(built_.load(std::memory_order_acquire),
                   "log-window range read before the index was built");
        chargeDramSequential((high - low) * sizeof(Entry));
        for (uint64_t pos = low; pos < high; ++pos) {
            const Entry &e = ring_[pos % capacity_];
            XPG_ASSERT(e.pos.load(std::memory_order_acquire) == pos,
                       "pinned log-window slot was lapped");
            fn(e.edge);
        }
    }

  private:
    static constexpr uint64_t kNone = ~0ull;

    struct Entry
    {
        Edge edge{};      ///< the logged edge (dst carries delete flag)
        std::atomic<uint64_t> pos{kNone}; ///< log position in this slot
        uint64_t prevOut = kNone; ///< previous window position of src
        uint64_t prevIn = kNone;  ///< previous window pos of rawVid(dst)
    };

    template <typename F>
    uint32_t
    visitChain(const std::atomic<uint64_t> *heads, vid_t v, bool out,
               uint64_t low, F &&fn) const
    {
        if (!built_.load(std::memory_order_acquire))
            return 0; // index never built: window was empty
        chargeDramScattered(1); // head lookup
        uint32_t n = 0;
        uint64_t pos = heads[v].load(std::memory_order_acquire);
        while (pos != kNone && pos >= low) {
            const Entry &e = ring_[pos % capacity_];
            if (e.pos.load(std::memory_order_acquire) != pos)
                break; // slot reused by a lapped position: chain stale
            chargeDramScattered(1); // random ring-slot access
            if (out)
                fn(e.edge.dst);
            else
                fn(isDelete(e.edge.dst) ? asDelete(e.edge.src)
                                        : e.edge.src);
            ++n;
            pos = out ? e.prevOut : e.prevIn;
        }
        return n;
    }

    const CircularEdgeLog *log_;
    vid_t numVertices_;
    uint64_t capacity_;

    /** Set (release) once ring_/heads are allocated; readers acquire. */
    std::atomic<bool> built_{false};
    std::unique_ptr<Entry[]> ring_; ///< slot = pos % capacity_
    std::unique_ptr<std::atomic<uint64_t>[]> outHead_; ///< newest/src
    std::unique_ptr<std::atomic<uint64_t>[]> inHead_;  ///< newest/dst
    std::atomic<uint64_t> indexedUpTo_{0};
    std::mutex buildMutex_;
    std::vector<Edge> buildScratch_;
};

/**
 * Summary of one direction of a read view's frozen log window, built
 * once and read-only afterwards: the window's records grouped by
 * vertex in a CSR layout. A
 * vertex's records keep the window's order (node-ascending, log order
 * within a node), so reading them is one offset lookup plus a
 * contiguous run instead of a chain walk per record.
 *
 * Size: one offset word per vertex id (the begin of its run, with a
 * has-a-delete-record flag in the top bit) plus one word per window
 * record.
 */
class WindowSummary
{
  public:
    /** A vertex's window records. */
    struct Run
    {
        const vid_t *recs = nullptr;
        uint32_t count = 0;
        bool deletes = false; ///< some record is delete-flagged
    };

    /**
     * Group @p window (the view's frozen window edges in window order)
     * by source (@p out) or by destination, storing the record a visit
     * yields: the delete-flagged destination for out, the source
     * (delete-flagged when the edge was a deletion) for in. Charged as
     * sequential DRAM streams over the arrays it writes.
     */
    void build(const std::vector<Edge> &window, vid_t num_vertices,
               bool out);

    /** @p v's run; uncharged (callers charge the lookup). */
    Run
    find(vid_t v) const
    {
        if (offsets_.empty())
            return {};
        const uint32_t begin = offsets_[v] & kOffsetMask;
        const uint32_t end = offsets_[v + 1] & kOffsetMask;
        return {recs_.data() + begin, end - begin,
                (offsets_[v] & kDeleteBit) != 0};
    }

  private:
    static constexpr uint32_t kDeleteBit = 1u << 31;
    static constexpr uint32_t kOffsetMask = kDeleteBit - 1;

    std::vector<uint32_t> offsets_; ///< per vid: run begin | kDeleteBit
    std::vector<vid_t> recs_;       ///< runs, vertex-ascending
};

} // namespace xpg

#endif // XPG_CORE_LOG_WINDOW_INDEX_HPP
