/**
 * @file
 * Sparse-id sweeps: PageRank and CC skip the vertices whose weight
 * promises no record (GraphView::vertexWeight == 0). On an id space
 * where most ids have no edge, each kernel's per-vertex result must
 * equal, bit for bit, the same kernel on a view that never reports a
 * zero weight (so every id is swept), and must match the CsrView
 * reference of the edges the store makes visible.
 *
 * The graph mixes every place a record can live: archived chains,
 * vertex buffers, a view's frozen log window (one vertex has records
 * nowhere else), and a vertex whose only records are deletes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <vector>

#include "analytics/algorithms.hpp"
#include "baselines/graphone.hpp"
#include "core/xpgraph.hpp"
#include "graph/csr_view.hpp"
#include "graph/generators.hpp"
#include "pmem/cost_model.hpp"
#include "telemetry/op_scope.hpp"

namespace xpg {
namespace {

constexpr unsigned kScale = 9;                   // RMAT over 512 ids
constexpr vid_t kSpread = 16;                    // ... folded onto 16x
constexpr vid_t kNv = (vid_t{1} << kScale) * kSpread;
constexpr unsigned kThreads = 4;
constexpr unsigned kPrIters = 5;

/** RMAT id -> sparse id: an odd multiplier is injective mod 2^k. */
vid_t
spread(vid_t u)
{
    return (u * 40503u) & (kNv - 1);
}

/** Every view method forwarded, except that no weight is ever 0: the
 *  kernels then sweep every id, the reference for the skipping run. */
class NoSkipView final : public GraphView
{
  public:
    explicit NoSkipView(GraphView &inner) : inner_(inner) {}

    vid_t numVertices() const override { return inner_.numVertices(); }

    uint32_t
    forEachNebrOut(vid_t v, NebrVisitor fn) const override
    {
        return inner_.forEachNebrOut(v, fn);
    }

    uint32_t
    forEachNebrIn(vid_t v, NebrVisitor fn) const override
    {
        return inner_.forEachNebrIn(v, fn);
    }

    uint32_t degreeOut(vid_t v) const override { return inner_.degreeOut(v); }
    uint32_t degreeIn(vid_t v) const override { return inner_.degreeIn(v); }
    bool hasFastDegrees() const override { return inner_.hasFastDegrees(); }

    uint64_t
    vertexWeight(vid_t v) const override
    {
        return std::max(inner_.vertexWeight(v), kVertexFixedWeight);
    }

    int nodeOfOut(vid_t v) const override { return inner_.nodeOfOut(v); }
    int nodeOfIn(vid_t v) const override { return inner_.nodeOfIn(v); }
    unsigned numNodes() const override { return inner_.numNodes(); }

    bool
    queryBindingEnabled() const override
    {
        return inner_.queryBindingEnabled();
    }

    void
    declareQueryThreads(unsigned n) override
    {
        inner_.declareQueryThreads(n);
    }

    bool
    sampleQueryProbe(QueryProbe &out) const override
    {
        return inner_.sampleQueryProbe(out);
    }

    const GraphStore *
    backingStore() const override
    {
        return inner_.backingStore();
    }

  private:
    GraphView &inner_;
};

/** The sparse graph, split by where its records end up. */
struct SparseGraph
{
    std::vector<Edge> archived; ///< flushed into chains
    std::vector<Edge> buffered; ///< left in vertex buffers
    std::vector<Edge> deletes;  ///< never inserted: delete-only records
    std::vector<Edge> window;   ///< left in the log (a view's window)
    vid_t deleteOnly = 0;       ///< only delete records, both sides
    vid_t windowOnly = 0;       ///< only log-window records

    /** Edges visible to live queries (deletes cancel nothing). */
    std::vector<Edge>
    live() const
    {
        std::vector<Edge> e = archived;
        e.insert(e.end(), buffered.begin(), buffered.end());
        return e;
    }

    /** Edges visible to a view opened with the window in the log. */
    std::vector<Edge>
    viewed() const
    {
        std::vector<Edge> e = live();
        e.insert(e.end(), window.begin(), window.end());
        return e;
    }
};

SparseGraph
makeSparseGraph()
{
    SparseGraph g;
    std::vector<Edge> rmat =
        generateRmat(kScale, 4000, RmatParams{}, /*seed=*/113);
    std::vector<bool> used(kNv, false);
    for (Edge &e : rmat) {
        e.src = spread(e.src);
        e.dst = spread(e.dst);
        used[e.src] = used[e.dst] = true;
    }
    const uint64_t half = rmat.size() / 2;
    g.archived.assign(rmat.begin(), rmat.begin() + half);
    g.buffered.assign(rmat.begin() + half, rmat.end());

    // Two ids no RMAT edge touches, linked to two that one does.
    std::vector<vid_t> unused;
    for (vid_t v = 1; v < kNv && unused.size() < 2; ++v)
        if (!used[v])
            unused.push_back(v);
    const vid_t a = rmat[0].src;
    const vid_t b = rmat[1].dst;
    g.deleteOnly = unused[0];
    g.windowOnly = unused[1];
    g.deletes = {{g.deleteOnly, a}, {b, g.deleteOnly}};
    g.window = {{a, g.windowOnly}, {g.windowOnly, b}};
    return g;
}

std::unique_ptr<XPGraph>
makeXpgraph(const SparseGraph &g)
{
    XPGraphConfig c = XPGraphConfig::persistent(kNv, 0);
    c.elogCapacityEdges = 1 << 13;
    c.bufferingThresholdEdges = c.elogCapacityEdges; // manual archiving
    c.archiveThreads = 4;
    c.pmemBytesPerNode = recommendedBytesPerNode(c, 4 * g.viewed().size());
    auto store = std::make_unique<XPGraph>(c);
    auto s = store->session(0);
    s->addEdges(g.archived.data(), g.archived.size());
    store->bufferAllEdges();
    store->flushAllVbufs();
    s->addEdges(g.buffered.data(), g.buffered.size());
    s->delEdges(g.deletes.data(), g.deletes.size());
    store->bufferAllEdges();
    s->addEdges(g.window.data(), g.window.size());
    return store;
}

std::unique_ptr<GraphOne>
makeGraphone(const SparseGraph &g)
{
    GraphOneConfig c;
    c.maxVertices = kNv;
    c.archiveThreads = 4;
    c.bytesPerNode =
        graphoneRecommendedBytesPerNode(c, 4 * g.viewed().size());
    auto store = std::make_unique<GraphOne>(c);
    auto s = store->session(0);
    s->addEdges(g.archived.data(), g.archived.size());
    s->delEdges(g.deletes.data(), g.deletes.size());
    s->addEdges(g.buffered.data(), g.buffered.size());
    store->archiveAll();
    return store;
}

struct Results
{
    std::vector<double> ranks = std::vector<double>(kNv);
    std::vector<vid_t> labels = std::vector<vid_t>(kNv);
};

Results
runKernels(GraphView &view)
{
    Results r;
    runPageRank(view, kPrIters, kThreads, QueryBinding::Auto, r.ranks);
    runConnectedComponents(view, kThreads, QueryBinding::Auto, 64,
                           r.labels);
    return r;
}

/**
 * Run both kernels on @p view and on a no-skip wrapper of it and
 * compare bitwise; then compare with the CsrView of @p visible.
 * @return the results on @p view.
 */
Results
checkAgainstReferences(GraphView &view, const std::vector<Edge> &visible)
{
    const Results skipping = runKernels(view);
    NoSkipView no_skip(view);
    const Results swept = runKernels(no_skip);
    CsrView csr(kNv, visible);
    const Results ref = runKernels(csr);

    uint64_t skipped = 0;
    for (vid_t v = 0; v < kNv; ++v) {
        if (view.vertexWeight(v) == 0) {
            ++skipped;
            EXPECT_EQ(view.degreeOut(v), 0u) << "v=" << v;
            EXPECT_EQ(view.degreeIn(v), 0u) << "v=" << v;
        }
        EXPECT_EQ(std::bit_cast<uint64_t>(skipping.ranks[v]),
                  std::bit_cast<uint64_t>(swept.ranks[v]))
            << "v=" << v;
        EXPECT_EQ(skipping.labels[v], swept.labels[v]) << "v=" << v;
        EXPECT_EQ(skipping.labels[v], ref.labels[v]) << "v=" << v;
        // Summation order over in-neighbours differs from the CSR's.
        EXPECT_NEAR(skipping.ranks[v], ref.ranks[v], 1e-12) << "v=" << v;
    }
    // Most of the folded id space has no edge: the sweep must skip it.
    EXPECT_GT(skipped, uint64_t{kNv} / 2);
    return skipping;
}

TEST(SparseSweep, XPGraphLiveMatchesFullSweep)
{
    const SparseGraph g = makeSparseGraph();
    auto store = makeXpgraph(g);
    // Live queries read chains and buffers: the window-only vertex is
    // empty there, the delete-only one is not.
    EXPECT_EQ(store->vertexWeight(g.windowOnly), 0u);
    EXPECT_NE(store->vertexWeight(g.deleteOnly), 0u);
    const Results r = checkAgainstReferences(*store, g.live());
    EXPECT_EQ(r.labels[g.windowOnly], g.windowOnly);
    EXPECT_EQ(r.labels[g.deleteOnly], g.deleteOnly);
}

TEST(SparseSweep, EpochViewMatchesFullSweep)
{
    const SparseGraph g = makeSparseGraph();
    auto store = makeXpgraph(g);
    const auto view = store->openView();
    // The window-only vertex has no captured record; only the frozen
    // window's heads tell the view it must be swept.
    EXPECT_NE(view->vertexWeight(g.windowOnly), 0u);
    EXPECT_NE(view->vertexWeight(g.deleteOnly), 0u);
    const Results r = checkAgainstReferences(*view, g.viewed());
    EXPECT_LT(r.labels[g.windowOnly], g.windowOnly);
    EXPECT_GT(r.ranks[g.windowOnly], r.ranks[g.deleteOnly]);
}

TEST(SparseSweep, GraphOneMatchesFullSweep)
{
    const SparseGraph g = makeSparseGraph();
    auto store = makeGraphone(g);
    EXPECT_NE(store->vertexWeight(g.deleteOnly), 0u);
    const Results r = checkAgainstReferences(*store, g.live());
    EXPECT_EQ(r.labels[g.deleteOnly], g.deleteOnly);
}

TEST(SparseSweep, PullEstimatePricesSweptVertices)
{
    const SparseGraph g = makeSparseGraph();
    const std::vector<Edge> edges = g.live();
    CsrView csr(kNv, edges);
    uint64_t with_records = 0;
    for (vid_t v = 0; v < kNv; ++v)
        with_records += csr.vertexWeight(v) != 0;

    const AnalyticsResult r = runPageRank(csr, 2, kThreads);
    if (!telemetry::kOpScopeEnabled) {
        EXPECT_TRUE(r.rounds.empty());
        return;
    }
    // The CSR reference has no query probe (stored edges read 0), so the
    // pull estimate is exactly one DRAM line per swept vertex.
    const double per_vertex =
        static_cast<double>(globalCostParams().dramRandomLineNs);
    ASSERT_EQ(r.rounds.size(), 3u);
    for (const RoundStats &rs : r.rounds) {
        EXPECT_EQ(rs.activeVertices, with_records);
        EXPECT_DOUBLE_EQ(rs.pullCostNs,
                         static_cast<double>(with_records) * per_vertex);
    }
}

} // namespace
} // namespace xpg
