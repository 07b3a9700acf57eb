/**
 * @file
 * Shared harness for the systematic crash-point sweep (tests and the
 * recovery bench): an op stream (inserts / deletes / compaction points)
 * is applied to a store armed with a FaultInjector until the injector
 * trips; after powerCycle() + recover(), verifyPrefixConsistent() checks
 * the recovered graph equals the live state of SOME prefix of the op
 * stream no shorter than the acknowledged prefix — i.e. no phantom
 * records, no reordering, and nothing acknowledged lost.
 */

#ifndef XPG_TESTS_CRASH_HARNESS_HPP
#define XPG_TESTS_CRASH_HARNESS_HPP

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "graph/graph_store.hpp"
#include "graph/types.hpp"
#include "pmem/fault_plan.hpp"

namespace xpg {
namespace crash {

/** One step of the sweep workload. */
struct Op
{
    enum Kind
    {
        Insert,  ///< addEdge(e)
        Delete,  ///< delEdge(e)
        Compact, ///< store-wide compaction (no live-state change)
    };
    Kind kind = Insert;
    Edge e{0, 0};
};

inline std::vector<Op>
insertOps(const std::vector<Edge> &edges)
{
    std::vector<Op> ops;
    ops.reserve(edges.size());
    for (const Edge &e : edges)
        ops.push_back(Op{Op::Insert, e});
    return ops;
}

/**
 * Reference live adjacency (out + in) under the tombstone-cancellation
 * semantics: a delete removes one prior insert of the same record.
 */
class LiveState
{
  public:
    explicit LiveState(vid_t nv) : out_(nv), in_(nv) {}

    void
    apply(const Op &op)
    {
        if (op.kind == Op::Compact)
            return;
        const vid_t s = op.e.src;
        const vid_t d = op.e.dst;
        if (op.kind == Op::Insert) {
            out_[s].push_back(d);
            in_[d].push_back(s);
        } else {
            eraseOne(out_[s], d);
            eraseOne(in_[d], s);
        }
    }

    /** Recovered live sets must equal this state exactly (both sides). */
    bool
    matches(const GraphStore &g) const
    {
        std::vector<vid_t> got;
        std::vector<vid_t> want;
        for (vid_t v = 0; v < static_cast<vid_t>(out_.size()); ++v) {
            got.clear();
            g.getNebrsOut(v, got);
            want = out_[v];
            if (!sameMultiset(got, want))
                return false;
            got.clear();
            g.getNebrsIn(v, got);
            want = in_[v];
            if (!sameMultiset(got, want))
                return false;
        }
        return true;
    }

  private:
    static void
    eraseOne(std::vector<vid_t> &list, vid_t value)
    {
        const auto it = std::find(list.begin(), list.end(), value);
        if (it != list.end())
            list.erase(it);
    }

    static bool
    sameMultiset(std::vector<vid_t> &a, std::vector<vid_t> &b)
    {
        if (a.size() != b.size())
            return false;
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        return a == b;
    }

    std::vector<std::vector<vid_t>> out_;
    std::vector<std::vector<vid_t>> in_;
};

/**
 * The session (of @p sessions) an op's edge goes through: every op on
 * one edge key uses the same session, so deletes and duplicates stay
 * ordered within one log and the model is order-independent across
 * sessions.
 */
inline unsigned
sessionOf(const Edge &e, unsigned sessions)
{
    return (e.src + rawVid(e.dst)) % sessions;
}

/**
 * Apply @p ops to @p store until @p injector trips (or the stream ends).
 * @p compact runs the store's compaction for Op::Compact steps. With
 * @p sessions > 1, sessions 0..sessions-1 (one per node on a multi-node
 * store) share the ops by sessionOf().
 * @return {acked, submitted}: ops completed before the crash and ops
 *         started (submitted == acked + 1 when the crash hit mid-op).
 */
inline std::pair<uint64_t, uint64_t>
runUntilCrash(GraphStore &store, const std::vector<Op> &ops,
              const FaultInjector *injector,
              const std::function<void()> &compact = nullptr,
              unsigned sessions = 1)
{
    uint64_t acked = 0;
    uint64_t submitted = 0;
    std::vector<std::unique_ptr<IngestSession>> open;
    for (unsigned s = 0; s < sessions; ++s)
        open.push_back(store.session(s));
    for (const Op &op : ops) {
        if (injector && injector->crashed())
            break;
        ++submitted;
        IngestSession &session = *open[sessionOf(op.e, sessions)];
        switch (op.kind) {
          case Op::Insert:
            session.addEdge(op.e.src, op.e.dst);
            break;
          case Op::Delete:
            session.delEdge(op.e.src, op.e.dst);
            break;
          case Op::Compact:
            if (compact)
                compact();
            break;
        }
        if (injector && injector->crashed())
            break; // crashed inside this op: submitted, not acknowledged
        ++acked;
    }
    return {acked, submitted};
}

/**
 * Prefix-consistency check: find j in [acked, submitted] such that the
 * recovered store's live adjacency equals the live state of ops[0, j).
 * Acknowledged ops are durable by contract, so j < acked is a failure.
 * @return the matched j, or -1 when no prefix in the window matches
 *         (phantom records, lost acknowledged ops, or reordering).
 */
inline int64_t
verifyPrefixConsistent(const GraphStore &recovered, vid_t nv,
                       const std::vector<Op> &ops, uint64_t acked,
                       uint64_t submitted)
{
    LiveState state(nv);
    uint64_t j = 0;
    for (; j < acked; ++j)
        state.apply(ops[j]);
    for (;;) {
        if (state.matches(recovered))
            return static_cast<int64_t>(j);
        if (j == submitted)
            return -1;
        state.apply(ops[j]);
        ++j;
    }
}

} // namespace crash
} // namespace xpg

#endif // XPG_TESTS_CRASH_HARNESS_HPP
