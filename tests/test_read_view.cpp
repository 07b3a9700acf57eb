/**
 * @file
 * Snapshot-isolated read views (DESIGN.md §12): a ReadView opened on a
 * live store exposes exactly the edges published before the open, stays
 * byte-identical while sessions keep ingesting, archiving, flushing and
 * compacting underneath it, and unpins its resources on close.
 *
 * The Frozen* cases double as the TSAN anchors for the lock-free
 * reader/writer interplay: they hammer a view from the main thread
 * while client sessions drive the store through inline (and pipelined)
 * archive phases.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "analytics/algorithms.hpp"
#include "baselines/graphone.hpp"
#include "core/xpgraph.hpp"
#include "graph/csr_view.hpp"
#include "graph/generators.hpp"
#include "graph/graph_store.hpp"
#include "graph/snapshot.hpp"

namespace xpg {
namespace {

XPGraphConfig
smallConfig(vid_t num_vertices, uint64_t num_edges)
{
    XPGraphConfig c = XPGraphConfig::persistent(num_vertices, 0);
    c.elogCapacityEdges = 1 << 13;
    c.bufferingThresholdEdges = 1 << 9;
    c.archiveThreads = 4;
    c.pmemBytesPerNode = recommendedBytesPerNode(c, num_edges);
    return c;
}

/** Sorted out- and in-neighbor lists of every vertex. */
struct AdjDump
{
    std::vector<std::vector<vid_t>> out;
    std::vector<std::vector<vid_t>> in;

    explicit AdjDump(const GraphView &view)
        : out(view.numVertices()), in(view.numVertices())
    {
        for (vid_t v = 0; v < view.numVertices(); ++v) {
            view.getNebrsOut(v, out[v]);
            std::sort(out[v].begin(), out[v].end());
            view.getNebrsIn(v, in[v]);
            std::sort(in[v].begin(), in[v].end());
        }
    }

    bool
    operator==(const AdjDump &o) const
    {
        return out == o.out && in == o.in;
    }
};

/** Order-insensitive digest of a sample of the view's adjacency. */
uint64_t
sampleChecksum(const GraphView &view, vid_t sample)
{
    uint64_t sum = 0;
    std::vector<vid_t> nebrs;
    const vid_t nv = std::min<vid_t>(sample, view.numVertices());
    for (vid_t v = 0; v < nv; ++v) {
        nebrs.clear();
        sum += view.getNebrsOut(v, nebrs);
        for (vid_t n : nebrs)
            sum += 0x9e3779b97f4a7c15ull * (v + 1) + n;
        sum += view.degreeIn(v);
    }
    return sum;
}

TEST(ReadView, IsolatedFromLaterUpdates)
{
    const vid_t nv = 256;
    auto edges = generateUniform(nv, 4000, /*seed=*/11);
    XPGraph graph(smallConfig(nv, edges.size() * 2));
    graph.session(0)->addEdges(edges.data(), edges.size());
    graph.bufferAllEdges();

    const auto view = graph.openView();
    const uint64_t visible = view->visibleEdges();
    EXPECT_EQ(visible, edges.size());
    const AdjDump before(*view);

    // Everything that can mutate the store underneath the view.
    auto more = generateUniform(nv, 3000, /*seed=*/12);
    graph.session(1)->addEdges(more.data(), more.size());
    graph.archiveAll();
    graph.compactAllAdjs();

    EXPECT_EQ(view->visibleEdges(), visible);
    const AdjDump after(*view);
    EXPECT_TRUE(before == after)
        << "view drifted while the store kept ingesting";

    // The live store, meanwhile, sees both batches.
    std::vector<vid_t> nebrs;
    uint64_t live = 0;
    for (vid_t v = 0; v < nv; ++v) {
        nebrs.clear();
        live += graph.getNebrsOut(v, nebrs);
    }
    EXPECT_EQ(live, edges.size() + more.size());
}

TEST(ReadView, MidIngestViewMatchesQuiescedReference)
{
    // A client pauses (fully published) after K edges; a view opened at
    // the barrier must be indistinguishable from a reference store that
    // ingested exactly those K edges and quiesced: same adjacency,
    // same degrees, same BFS result.
    const vid_t nv = 512;
    auto edges = generateUniform(nv, 6000, /*seed=*/21);
    const uint64_t k = edges.size() / 2;

    const XPGraphConfig c = smallConfig(nv, edges.size());
    XPGraph graph(c);

    std::mutex m;
    std::condition_variable cv;
    int stage = 0; // 0: ingesting prefix, 1: paused, 2: resume
    std::thread client([&] {
        auto session = graph.session(0);
        session->addEdges(edges.data(), k);
        {
            std::unique_lock<std::mutex> lock(m);
            stage = 1;
            cv.notify_all();
            cv.wait(lock, [&] { return stage == 2; });
        }
        session->addEdges(edges.data() + k, edges.size() - k);
    });

    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return stage == 1; });
    }
    const auto view = graph.openView();
    {
        std::lock_guard<std::mutex> lock(m);
        stage = 2;
        cv.notify_all();
    }

    XPGraph ref(c);
    ref.session(0)->addEdges(edges.data(), k);
    ref.bufferAllEdges();

    EXPECT_EQ(view->visibleEdges(), k);
    const AdjDump view_dump(*view);
    const AdjDump ref_dump(ref);
    EXPECT_TRUE(view_dump == ref_dump)
        << "mid-ingest view differs from the quiesced reference";

    const auto view_bfs = runBfs(*view, edges[0].src, 4);
    const auto ref_bfs = runBfs(ref, edges[0].src, 4);
    EXPECT_EQ(view_bfs.checksum, ref_bfs.checksum);
    EXPECT_EQ(view_bfs.touched, ref_bfs.touched);

    client.join();
    graph.archiveAll();
    EXPECT_EQ(view->visibleEdges(), k); // still pinned to the barrier
}

TEST(ReadView, DeletesFoldAcrossAllThreeLayers)
{
    // Tombstones against flushed chains, buffered records, and frozen
    // log-window records must cancel exactly like the live read path:
    // compare against a reference store that replayed the same ops and
    // quiesced.
    const vid_t nv = 256;
    auto first = generateUniform(nv, 2000, /*seed=*/31);
    auto second = generateUniform(nv, 1200, /*seed=*/32);

    const XPGraphConfig c = smallConfig(nv, 8000);
    const auto replay = [&](GraphStore &store, bool archive_steps) {
        auto s = store.session(0);
        s->addEdges(first.data(), first.size());
        if (archive_steps) {
            auto *xpg = dynamic_cast<XPGraph *>(&store);
            xpg->bufferAllEdges();
            xpg->flushAllVbufs(); // first batch into PMEM chains
        }
        for (uint64_t i = 0; i < first.size(); i += 10)
            s->delEdge(first[i].src, first[i].dst);
        s->addEdges(second.data(), second.size());
        if (archive_steps)
            dynamic_cast<XPGraph *>(&store)->bufferAllEdges();
        // Same-batch deletes that stay in the un-buffered log window.
        for (uint64_t i = 0; i < second.size(); i += 13)
            s->delEdge(second[i].src, second[i].dst);
    };

    XPGraph graph(c);
    replay(graph, /*archive_steps=*/true);
    const auto view = graph.openView();

    XPGraph ref(c);
    replay(ref, /*archive_steps=*/true);
    ref.archiveAll();

    const AdjDump view_dump(*view);
    const AdjDump ref_dump(ref);
    EXPECT_TRUE(view_dump == ref_dump)
        << "tombstone folding through the view diverged from the "
           "quiesced reference";
    for (vid_t v = 0; v < nv; ++v) {
        ASSERT_EQ(view->degreeOut(v), ref.degreeOut(v)) << "v=" << v;
        ASSERT_EQ(view->degreeIn(v), ref.degreeIn(v)) << "v=" << v;
    }
}

void
frozenUnderConcurrentIngest(bool pipelined)
{
    const vid_t nv = 1 << 10;
    auto edges = generateUniform(nv, 1 << 14, /*seed=*/41);
    const uint64_t quarter = edges.size() / 4;

    XPGraphConfig c = smallConfig(nv, edges.size());
    c.pipelinedArchiving = pipelined;
    XPGraph graph(c);
    graph.session(0)->addEdges(edges.data(), quarter);
    graph.bufferAllEdges();

    const auto view = graph.openView();
    const uint64_t visible = view->visibleEdges();
    const uint64_t checksum = sampleChecksum(*view, 256);

    // Four clients ingest the rest while the main thread hammers the
    // view; every observation must equal the open-time observation.
    std::atomic<unsigned> running{4};
    std::vector<std::thread> clients;
    for (unsigned t = 0; t < 4; ++t) {
        clients.emplace_back([&, t] {
            const uint64_t lo =
                quarter + t * (edges.size() - quarter) / 4;
            const uint64_t hi =
                quarter + (t + 1) * (edges.size() - quarter) / 4;
            graph.session(t)->addEdges(edges.data() + lo, hi - lo);
            running.fetch_sub(1, std::memory_order_release);
        });
    }
    while (running.load(std::memory_order_acquire) != 0) {
        ASSERT_EQ(view->visibleEdges(), visible);
        ASSERT_EQ(sampleChecksum(*view, 256), checksum)
            << "view contents changed under concurrent ingest";
    }
    for (std::thread &t : clients)
        t.join();
    graph.archiveAll();
    EXPECT_EQ(view->visibleEdges(), visible);
    EXPECT_EQ(sampleChecksum(*view, 256), checksum);
}

TEST(ReadView, FrozenUnderConcurrentInlineIngest)
{
    frozenUnderConcurrentIngest(/*pipelined=*/false);
}

TEST(ReadView, FrozenUnderConcurrentPipelinedIngest)
{
    frozenUnderConcurrentIngest(/*pipelined=*/true);
}

TEST(ReadView, PinnedLogBlocksWriterUntilClose)
{
    // A view pins each log's reclaim floor at its frozen boundary, so a
    // writer that laps the ring must stall in waitForLogSpace until the
    // view closes — and must complete normally afterwards.
    const vid_t nv = 256;
    XPGraphConfig c = smallConfig(nv, 1 << 14);
    c.elogCapacityEdges = 1 << 10; // tiny ring: writers lap quickly
    XPGraph graph(c);

    auto head = generateUniform(nv, 100, /*seed=*/51);
    graph.session(0)->addEdges(head.data(), head.size());
    graph.bufferAllEdges();
    auto view = graph.openView();
    const uint64_t visible = view->visibleEdges();

    auto tail = generateUniform(nv, 1 << 12, /*seed=*/52);
    std::atomic<bool> done{false};
    std::thread writer([&] {
        graph.session(0)->addEdges(tail.data(), tail.size());
        done.store(true, std::memory_order_release);
    });

    // Give the writer time to fill the pinned ring and stall; the view
    // must stay intact the whole time.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(view->visibleEdges(), visible);
    EXPECT_FALSE(done.load(std::memory_order_acquire))
        << "writer lapped a pinned log ring";

    view.reset(); // closeView: floor lifted, stalled writer notified
    writer.join();
    graph.archiveAll();
    EXPECT_EQ(graph.stats().edgesLogged, head.size() + tail.size());
}

TEST(ReadView, EpochAdvancesAcrossArchivePhases)
{
    const vid_t nv = 128;
    auto edges = generateUniform(nv, 2000, /*seed=*/61);
    XPGraph graph(smallConfig(nv, edges.size() * 2));
    graph.session(0)->addEdges(edges.data(), edges.size());
    graph.bufferAllEdges();

    const auto v1 = graph.openView();
    const auto v2 = graph.openView();
    EXPECT_EQ(v1->epoch(), v2->epoch())
        << "same quiescent epoch must yield the same pin";
    EXPECT_EQ(v1->visibleEdges(), v2->visibleEdges());

    auto more = generateUniform(nv, 1000, /*seed=*/62);
    graph.session(0)->addEdges(more.data(), more.size());
    graph.archiveAll();

    const auto v3 = graph.openView();
    EXPECT_GT(v3->epoch(), v1->epoch());
    EXPECT_EQ(v3->visibleEdges(), edges.size() + more.size());
    EXPECT_EQ(v1->visibleEdges(), edges.size());
}

TEST(ReadView, FrozenWindowBoundsAreExposed)
{
    const vid_t nv = 128;
    XPGraphConfig c = smallConfig(nv, 4000);
    c.bufferingThresholdEdges = c.elogCapacityEdges; // manual archiving
    XPGraph graph(c);

    auto edges = generateUniform(nv, 500, /*seed=*/71);
    graph.session(0)->addEdges(edges.data(), edges.size());
    graph.bufferAllEdges(); // boundary == head on every node
    auto logged = generateUniform(nv, 300, /*seed=*/72);
    graph.session(0)->addEdges(logged.data(), logged.size());

    const auto view = graph.openView();
    uint64_t window = 0;
    for (unsigned node = 0; node < graph.numNodes(); ++node) {
        EXPECT_GE(view->frozenHead(node), view->frozenBoundary(node));
        window += view->frozenHead(node) - view->frozenBoundary(node);
    }
    EXPECT_EQ(window, logged.size())
        << "frozen window must cover exactly the un-archived records";
    EXPECT_EQ(view->visibleEdges(), edges.size() + logged.size());
}

TEST(ReadView, SnapshotInheritsViewEpoch)
{
    const vid_t nv = 128;
    auto edges = generateUniform(nv, 1500, /*seed=*/81);
    XPGraph graph(smallConfig(nv, edges.size() * 2));
    graph.session(0)->addEdges(edges.data(), edges.size());
    graph.bufferAllEdges();

    const auto view = graph.openView();
    const auto snap = takeSnapshot(graph, 2);
    EXPECT_EQ(snap->epoch(), view->epoch());
    EXPECT_EQ(snap->numVertices(), view->numVertices());

    const AdjDump from_view(*view);
    const AdjDump from_snap(*snap);
    EXPECT_TRUE(from_view == from_snap);
}

TEST(ReadView, EmptyViewSnapshotReportsZeroVertices)
{
    // Regression: Snapshot::numVertices() on a snapshot built from a
    // vertex-less view must report 0, not underflow size()-1.
    struct EmptyView final : GraphView
    {
        vid_t numVertices() const override { return 0; }
        uint32_t
        forEachNebrOut(vid_t, NebrVisitor) const override
        {
            return 0;
        }
        uint32_t
        forEachNebrIn(vid_t, NebrVisitor) const override
        {
            return 0;
        }
    } empty;

    const auto snap = takeSnapshot(empty, 2);
    EXPECT_EQ(snap->numVertices(), 0u);
    EXPECT_EQ(snap->numEdges(), 0u);
    EXPECT_EQ(snap->visibleEdges(), 0u);
}

TEST(ReadView, GraphOneFallbackMaterializesConsistentView)
{
    // The baseline has no epoch-tracked internals: openView()
    // materializes the archived state under the archive lock. The
    // result must match the store at open time and stay isolated.
    const vid_t nv = 256;
    auto edges = generateUniform(nv, 3000, /*seed=*/91);
    GraphOneConfig c;
    c.maxVertices = nv;
    c.variant = GraphOneVariant::Pmem;
    c.archiveThreads = 4;
    c.bytesPerNode = graphoneRecommendedBytesPerNode(c, edges.size() * 2);
    GraphOne graph(c);
    graph.session(0)->addEdges(edges.data(), edges.size());
    graph.archiveAll();

    const auto view = graph.openView();
    EXPECT_EQ(view->visibleEdges(), edges.size());
    const AdjDump at_open(*view);
    const AdjDump live(graph);
    EXPECT_TRUE(at_open == live);

    auto more = generateUniform(nv, 1000, /*seed=*/92);
    graph.session(0)->addEdges(more.data(), more.size());
    graph.archiveAll();
    EXPECT_EQ(view->visibleEdges(), edges.size());
    const AdjDump after(*view);
    EXPECT_TRUE(at_open == after);
    EXPECT_LT(view->epoch(), graph.openView()->epoch());
}

// --- ViewCaptureReuse: the epoch capture across the last close ---------

TEST(ViewCaptureReuse, AppendsAfterLastCloseShowAtTheSameEpoch)
{
    // Closing the last view keeps the capture while no phase runs; the
    // next view reuses it and still serves every record appended in
    // between, through its own frozen log window.
    const vid_t nv = 128;
    XPGraphConfig c = smallConfig(nv, 4000);
    c.bufferingThresholdEdges = c.elogCapacityEdges; // manual archiving
    XPGraph graph(c);
    auto edges = generateUniform(nv, 500, /*seed=*/81);
    graph.session(0)->addEdges(edges.data(), edges.size());
    graph.bufferAllEdges();

    uint64_t epoch = 0;
    {
        const auto first = graph.openView();
        epoch = first->epoch();
        EXPECT_EQ(first->visibleEdges(), edges.size());
    }

    auto more = generateUniform(nv, 300, /*seed=*/82);
    graph.session(0)->addEdges(more.data(), more.size());
    const auto view = graph.openView();
    EXPECT_EQ(view->epoch(), epoch) << "a session append runs no phase";
    EXPECT_EQ(view->visibleEdges(), edges.size() + more.size());

    edges.insert(edges.end(), more.begin(), more.end());
    const CsrView ref(nv, edges);
    EXPECT_TRUE(AdjDump(*view) == AdjDump(ref));
    for (vid_t v = 0; v < nv; ++v) {
        ASSERT_EQ(view->degreeOut(v), ref.degreeOut(v)) << "v=" << v;
        ASSERT_EQ(view->degreeIn(v), ref.degreeIn(v)) << "v=" << v;
    }
}

TEST(ViewCaptureReuse, CompactionAfterLastCloseForcesRecapture)
{
    // With no view open, a compaction pass drains the tombstoned hub's
    // buffer by resetting it in place and rewrites its chain. It bumps
    // the epoch, so the next view must recapture rather than reuse the
    // capture the closed view left behind (which still counts the
    // cancelled records).
    const vid_t nv = 128;
    const vid_t hub = 0;
    XPGraphConfig c = smallConfig(nv, 4000);
    c.bufferingThresholdEdges = c.elogCapacityEdges; // manual archiving
    XPGraph graph(c);

    std::vector<Edge> inserts;
    for (vid_t v = 1; v <= 100; ++v)
        inserts.push_back({hub, v});
    for (const Edge &e : generateUniform(nv, 400, /*seed=*/83))
        if (e.src != hub)
            inserts.push_back(e);
    std::vector<Edge> deletes;
    for (vid_t v = 1; v <= 40; ++v)
        deletes.push_back({hub, v});

    auto session = graph.session(0);
    session->addEdges(inserts.data(), inserts.size());
    graph.bufferAllEdges();
    graph.flushAllVbufs();
    session->delEdges(deletes.data(), deletes.size());
    graph.bufferAllEdges(); // the hub's deletes sit in its buffer

    uint64_t epoch = 0;
    {
        const auto first = graph.openView();
        epoch = first->epoch();
        EXPECT_EQ(first->visibleEdges(), inserts.size() + deletes.size());
    }
    EXPECT_GE(graph.runCompactionPass(), 1u);

    std::vector<Edge> live;
    for (const Edge &e : inserts)
        if (e.src != hub || e.dst > 40)
            live.push_back(e);
    const auto view = graph.openView();
    EXPECT_GT(view->epoch(), epoch);
    EXPECT_EQ(view->visibleEdges(), live.size())
        << "the view reused a capture older than the compaction";
    const CsrView ref(nv, live);
    EXPECT_TRUE(AdjDump(*view) == AdjDump(ref));
    EXPECT_EQ(view->degreeOut(hub), 60u);
}

// --- ViewWindow: the view's vertex-grouped log-window summary ----------

/** The records a visit of @p v yields, in visit order. */
std::vector<vid_t>
visitSeq(const GraphView &g, vid_t v, bool out)
{
    std::vector<vid_t> seq;
    const auto push = [&seq](vid_t n) { seq.push_back(n); };
    if (out)
        g.forEachNebrOut(v, push);
    else
        g.forEachNebrIn(v, push);
    return seq;
}

/** Per-vertex visit sequences, degrees and weights of a view. */
struct OrderedDump
{
    std::vector<std::vector<vid_t>> out, in;
    std::vector<uint32_t> degOut, degIn;
    std::vector<uint64_t> weight;

    explicit OrderedDump(const GraphView &g)
    {
        const vid_t nv = g.numVertices();
        for (vid_t v = 0; v < nv; ++v) {
            out.push_back(visitSeq(g, v, true));
            in.push_back(visitSeq(g, v, false));
            degOut.push_back(g.degreeOut(v));
            degIn.push_back(g.degreeIn(v));
            weight.push_back(g.vertexWeight(v));
        }
    }

    bool
    operator==(const OrderedDump &o) const
    {
        return out == o.out && in == o.in && degOut == o.degOut &&
               degIn == o.degIn && weight == o.weight;
    }
};

/**
 * Reference window runs assembled straight from the store's un-buffered
 * log records (node-ascending, log order within a node): the out-run
 * of v is every window record with source v, the in-run every record
 * with destination v, carrying the source delete-flagged for a delete.
 * Taken with no archive phase or append since the view opened, the log
 * window is exactly the view's frozen window.
 */
struct WindowRef
{
    std::vector<std::vector<vid_t>> out, in;

    WindowRef(const XPGraph &g, vid_t nv) : out(nv), in(nv)
    {
        std::vector<Edge> logged;
        g.getLoggedEdges(logged);
        for (const Edge &e : logged) {
            out[e.src].push_back(e.dst);
            in[rawVid(e.dst)].push_back(isDelete(e.dst) ? asDelete(e.src)
                                                        : e.src);
        }
    }
};

/** Manual-archiving config: the log window stays until bufferAllEdges. */
XPGraphConfig
windowConfig(vid_t nv)
{
    XPGraphConfig c = smallConfig(nv, 1 << 14);
    c.bufferingThresholdEdges = c.elogCapacityEdges;
    return c;
}

/** Edges among [lo, lo + span) only. */
std::vector<Edge>
edgesAmong(vid_t lo, vid_t span, uint64_t n, uint64_t seed)
{
    auto edges = generateUniform(span, n, seed);
    for (Edge &e : edges) {
        e.src += lo;
        e.dst += lo;
    }
    return edges;
}

TEST(ViewWindow, RunsMatchTheLogWindowInOrder)
{
    // Sealed chains, vertex buffers and a window on both nodes, with
    // duplicate edges in every layer. Vertices [128, 160) have records
    // only in the window; [160, 256) have none at all.
    const vid_t nv = 256;
    XPGraph graph(windowConfig(nv));
    auto sealed = edgesAmong(0, 128, 1500, /*seed=*/101);
    sealed.insert(sealed.end(), sealed.begin(), sealed.begin() + 200);
    graph.session(0)->addEdges(sealed.data(), sealed.size());
    graph.bufferAllEdges();
    graph.flushAllVbufs();
    auto buffered = edgesAmong(0, 128, 800, /*seed=*/102);
    graph.session(1)->addEdges(buffered.data(), buffered.size());
    graph.bufferAllEdges();
    auto window0 = edgesAmong(0, 160, 700, /*seed=*/103);
    window0.insert(window0.end(), sealed.begin(), sealed.begin() + 50);
    auto window1 = edgesAmong(64, 96, 600, /*seed=*/104);
    window1.insert(window1.end(), window1.begin(), window1.begin() + 80);
    graph.session(0)->addEdges(window0.data(), window0.size());
    graph.session(1)->addEdges(window1.data(), window1.size());

    // The reference, taken while the log window is what the view will
    // freeze: captured chain + buffer (what the live store visits while
    // nothing archives), then the window run; no deletes anywhere.
    const WindowRef ref(graph, nv);
    std::vector<std::vector<vid_t>> want_out(nv), want_in(nv);
    std::vector<bool> has_record(nv);
    for (vid_t v = 0; v < nv; ++v) {
        for (const bool out : {true, false}) {
            auto &want = out ? want_out[v] : want_in[v];
            want = visitSeq(graph, v, out);
            const auto &run = out ? ref.out[v] : ref.in[v];
            want.insert(want.end(), run.begin(), run.end());

            // The live store's chained window walk agrees with it.
            std::vector<vid_t> live;
            if (out)
                graph.getNebrsLogOut(v, live);
            else
                graph.getNebrsLogIn(v, live);
            ASSERT_EQ(live, run) << "v=" << v;
        }
        has_record[v] = !want_out[v].empty() || !want_in[v].empty();
    }

    const auto view = graph.openView();
    for (unsigned node = 0; node < 2; ++node)
        ASSERT_GT(view->frozenHead(node), view->frozenBoundary(node))
            << "node " << node << " must hold a window";

    // Appends between the open and the view's first read (which builds
    // its summary) stay invisible, even once the live index covers them.
    auto later = edgesAmong(0, 256, 900, /*seed=*/105);
    graph.session(0)->addEdges(later.data(), 450);
    graph.session(1)->addEdges(later.data() + 450, 450);
    std::vector<vid_t> scratch;
    graph.getNebrsLogOut(later[0].src, scratch);

    for (vid_t v = 0; v < nv; ++v) {
        for (const bool out : {true, false}) {
            const auto &want = out ? want_out[v] : want_in[v];
            ASSERT_EQ(visitSeq(*view, v, out), want)
                << "v=" << v << (out ? " out" : " in");
            ASSERT_EQ(out ? view->degreeOut(v) : view->degreeIn(v),
                      want.size())
                << "v=" << v << (out ? " out" : " in");
        }
        EXPECT_EQ(view->vertexWeight(v) != 0, has_record[v]) << "v=" << v;
    }
    EXPECT_GT(view->vertexWeight(140), 0u) << "window-only vertex";
    EXPECT_EQ(view->vertexWeight(200), 0u) << "vertex with no record";

    // Buffering and flushing after the open stay invisible too.
    const OrderedDump before(*view);
    graph.bufferAllEdges();
    graph.flushAllVbufs();
    EXPECT_TRUE(OrderedDump(*view) == before);
}

TEST(ViewWindow, DeleteInWindowFallsBackToFullVisit)
{
    // Deletes of sealed and buffered records sit in the window, next to
    // inserts of the same vertices: their degree falls back to the
    // folded visit, which must match the multiset oracle.
    const vid_t nv = 128;
    const vid_t hub = 3;
    XPGraph graph(windowConfig(nv));
    std::vector<Edge> inserts;
    for (vid_t v = 0; v < 60; ++v)
        inserts.push_back({hub, v % 40}); // duplicates of 20 targets
    const auto rest = generateUniform(nv, 1200, /*seed=*/111);
    inserts.insert(inserts.end(), rest.begin(), rest.end());
    auto s0 = graph.session(0);
    auto s1 = graph.session(1);
    s0->addEdges(inserts.data(), inserts.size() / 2);
    graph.bufferAllEdges();
    graph.flushAllVbufs();
    s1->addEdges(inserts.data() + inserts.size() / 2,
                 inserts.size() - inserts.size() / 2);
    graph.bufferAllEdges();

    std::vector<Edge> window = generateUniform(nv, 300, /*seed=*/112);
    std::vector<Edge> deletes;
    for (vid_t v = 0; v < 30; ++v)
        deletes.push_back({hub, v}); // one copy each of 30 targets
    for (uint64_t i = 0; i < rest.size(); i += 17)
        deletes.push_back(rest[i]);
    deletes.push_back(window[0]); // an insert and its delete, both window
    s0->addEdges(window.data(), window.size() / 2);
    s0->delEdges(deletes.data(), deletes.size() / 2);
    s1->addEdges(window.data() + window.size() / 2,
                 window.size() - window.size() / 2);
    s1->delEdges(deletes.data() + deletes.size() / 2,
                 deletes.size() - deletes.size() / 2);

    std::vector<Edge> live = inserts;
    live.insert(live.end(), window.begin(), window.end());
    for (const Edge &d : deletes) {
        const auto it = std::find(live.begin(), live.end(), d);
        ASSERT_NE(it, live.end());
        live.erase(it);
    }
    const CsrView oracle(nv, live);

    const auto view = graph.openView();
    const WindowRef ref(graph, nv);
    const auto has_delete = [](const std::vector<vid_t> &run) {
        return std::any_of(run.begin(), run.end(),
                           [](vid_t r) { return isDelete(r); });
    };
    ASSERT_TRUE(has_delete(ref.out[hub]));
    ASSERT_TRUE(has_delete(ref.in[0]));
    for (vid_t v = 0; v < nv; ++v) {
        for (const bool out : {true, false}) {
            std::vector<vid_t> got = visitSeq(*view, v, out);
            std::vector<vid_t> want = visitSeq(oracle, v, out);
            std::sort(got.begin(), got.end());
            std::sort(want.begin(), want.end());
            ASSERT_EQ(got, want) << "v=" << v << (out ? " out" : " in");
            ASSERT_EQ(out ? view->degreeOut(v) : view->degreeIn(v),
                      want.size())
                << "v=" << v << (out ? " out" : " in");
        }
    }
}

TEST(ViewWindow, ConcurrentFirstUseBuildsOneSummary)
{
    // Four query threads hit a fresh view at once, so they race on the
    // lazy summary build; each must see what a second view of the same
    // state shows a single reader.
    const vid_t nv = 512;
    XPGraph graph(windowConfig(nv));
    auto archived = generateUniform(nv, 3000, /*seed=*/121);
    graph.session(0)->addEdges(archived.data(), archived.size());
    graph.bufferAllEdges();
    auto window = generateUniform(nv, 2000, /*seed=*/122);
    graph.session(0)->addEdges(window.data(), 1000);
    graph.session(1)->addEdges(window.data() + 1000, 1000);

    const auto raced = graph.openView();
    const auto calm = graph.openView();
    ASSERT_EQ(raced->epoch(), calm->epoch());

    constexpr unsigned kThreads = 4;
    std::atomic<unsigned> ready{0};
    std::vector<std::unique_ptr<OrderedDump>> dumps(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            ready.fetch_add(1, std::memory_order_acq_rel);
            while (ready.load(std::memory_order_acquire) < kThreads) {
            }
            dumps[t] = std::make_unique<OrderedDump>(*raced);
        });
    for (std::thread &th : threads)
        th.join();

    const OrderedDump want(*calm);
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_TRUE(*dumps[t] == want) << "thread " << t;
}

} // namespace
} // namespace xpg
