/**
 * @file
 * Crash/recovery integration: a file-backed XPGraph is destroyed at
 * various points of its lifecycle (all DRAM state lost) and recovered
 * from the device images; the recovered graph must equal the pre-crash
 * graph (paper S III-B / S V-D).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/xpgraph.hpp"
#include "crash_harness.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"

namespace xpg {
namespace {

class RecoveryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = ::testing::TempDir() + "/xpg_recovery_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        std::filesystem::create_directories(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    XPGraphConfig
    config(vid_t nv, uint64_t ne)
    {
        XPGraphConfig c = XPGraphConfig::persistent(nv, 0);
        c.backingDir = dir_;
        c.elogCapacityEdges = 1 << 13;
        c.bufferingThresholdEdges = 1 << 9;
        c.archiveThreads = 4;
        c.pmemBytesPerNode = recommendedBytesPerNode(c, ne);
        return c;
    }

    std::string dir_;
};

void
expectSameNeighbors(XPGraph &graph, const Csr &out_csr, const Csr &in_csr)
{
    std::vector<vid_t> nebrs;
    for (vid_t v = 0; v < graph.numVertices(); ++v) {
        nebrs.clear();
        graph.getNebrsOut(v, nebrs);
        std::sort(nebrs.begin(), nebrs.end());
        const auto expect = out_csr.neighbors(v);
        ASSERT_EQ(nebrs.size(), expect.size()) << "out-degree of " << v;
        EXPECT_TRUE(std::equal(nebrs.begin(), nebrs.end(), expect.begin()));

        nebrs.clear();
        graph.getNebrsIn(v, nebrs);
        std::sort(nebrs.begin(), nebrs.end());
        const auto expect_in = in_csr.neighbors(v);
        ASSERT_EQ(nebrs.size(), expect_in.size()) << "in-degree of " << v;
        EXPECT_TRUE(
            std::equal(nebrs.begin(), nebrs.end(), expect_in.begin()));

        // The recovered store must also rebuild the live-degree cache
        // and serve the zero-copy visitor path consistently.
        EXPECT_EQ(graph.degreeOut(v), expect.size())
            << "recovered degree cache (out) of " << v;
        EXPECT_EQ(graph.degreeIn(v), expect_in.size())
            << "recovered degree cache (in) of " << v;
        uint32_t visited = 0;
        graph.forEachNebrOut(v, [&](vid_t) { ++visited; });
        EXPECT_EQ(visited, expect.size())
            << "recovered visitor (out) of " << v;
    }
}

TEST_F(RecoveryTest, RecoverAfterFullFlush)
{
    const vid_t nv = 300;
    auto edges = generateRmat(9, 12000, RmatParams{}, 5);
    foldVertices(edges, nv);
    const XPGraphConfig c = config(nv, edges.size());
    {
        XPGraph graph(c);
        graph.session(0)->addEdges(edges.data(), edges.size());
        graph.bufferAllEdges();
        graph.flushAllVbufs();
        graph.syncBackings();
        // destructor: "crash" — all DRAM state gone
    }
    auto recovered = XPGraph::recover(c);
    recovered->bufferAllEdges();
    expectSameNeighbors(*recovered, Csr(nv, edges, false),
                        Csr(nv, edges, true));
    EXPECT_GT(recovered->stats().recoveryNs, 0u);
}

/** Distinct edges: these tests are about which layer an edge sits in at
 *  the crash, so every edge is told apart by its endpoints (duplicates
 *  survive recovery too; see RecoverKeepsDuplicateOfFlushedEdge). */
std::vector<Edge>
distinctEdges(vid_t nv, uint64_t n, uint64_t seed)
{
    auto edges = generateUniform(nv, n * 2, seed);
    std::sort(edges.begin(), edges.end(), [](const Edge &a, const Edge &b) {
        return a.src != b.src ? a.src < b.src : a.dst < b.dst;
    });
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    if (edges.size() > n)
        edges.resize(n);
    return edges;
}

TEST_F(RecoveryTest, RecoverWithUnflushedBuffers)
{
    // Crash with edges sitting in (lost) DRAM vertex buffers: they must
    // be replayed from the log window [flushedUpTo, bufferedUpTo).
    const vid_t nv = 200;
    auto edges = distinctEdges(nv, 6000, 77);
    const XPGraphConfig c = config(nv, edges.size());
    {
        XPGraph graph(c);
        graph.session(0)->addEdges(edges.data(), edges.size());
        graph.bufferAllEdges(); // buffered, NOT flushed
        graph.syncBackings();
    }
    auto recovered = XPGraph::recover(c);
    recovered->bufferAllEdges();
    expectSameNeighbors(*recovered, Csr(nv, edges, false),
                        Csr(nv, edges, true));
}

TEST_F(RecoveryTest, RecoverWithNonBufferedLogEdges)
{
    // Crash with edges only in the log: they stay pending and are
    // archived by the next buffering phase after recovery.
    const vid_t nv = 100;
    auto edges = generateUniform(nv, 3000, 31);
    const XPGraphConfig c = config(nv, edges.size());
    {
        XPGraph graph(c);
        // Log without triggering archiving for the tail edges.
        graph.session(0)->addEdges(edges.data(), edges.size());
        graph.syncBackings();
    }
    auto recovered = XPGraph::recover(c);
    recovered->bufferAllEdges();
    expectSameNeighbors(*recovered, Csr(nv, edges, false),
                        Csr(nv, edges, true));
}

TEST_F(RecoveryTest, RecoveredGraphAcceptsNewEdges)
{
    const vid_t nv = 100;
    auto edges = generateUniform(nv, 3000, 41);
    const XPGraphConfig c = config(nv, edges.size() * 2);
    {
        XPGraph graph(c);
        graph.session(0)->addEdges(edges.data(), edges.size());
        graph.bufferAllEdges();
        graph.flushAllVbufs();
        graph.syncBackings();
    }
    auto recovered = XPGraph::recover(c);
    auto more = generateUniform(nv, 3000, 42);
    recovered->session(0)->addEdges(more.data(), more.size());
    recovered->bufferAllEdges();

    std::vector<Edge> all = edges;
    all.insert(all.end(), more.begin(), more.end());
    expectSameNeighbors(*recovered, Csr(nv, all, false),
                        Csr(nv, all, true));
}

TEST_F(RecoveryTest, RecoverPreservesDeletes)
{
    const vid_t nv = 50;
    const XPGraphConfig c = config(nv, 1000);
    {
        XPGraph graph(c);
        {
            auto s = graph.session(0);
            s->addEdge(1, 2);
            s->addEdge(1, 3);
            s->delEdge(1, 2);
        }
        graph.bufferAllEdges();
        graph.flushAllVbufs();
        graph.syncBackings();
    }
    auto recovered = XPGraph::recover(c);
    std::vector<vid_t> nebrs;
    EXPECT_EQ(recovered->getNebrsOut(1, nebrs), 1u);
    EXPECT_EQ(nebrs[0], 3u);
}

TEST_F(RecoveryTest, RecoverKeepsDuplicateOfFlushedEdge)
{
    // The store is a multigraph: a duplicate ingested after its twin
    // reached PMEM is a second edge, and a crash that catches it in a
    // DRAM vertex buffer must replay it. Replay skips window records by
    // position (the chain's window watermark), never by content.
    const vid_t nv = 10;
    const XPGraphConfig c = config(nv, 1000);
    {
        XPGraph graph(c);
        graph.session(0)->addEdge(1, 2);
        graph.archiveAll(); // first copy reaches PMEM
        graph.session(0)->addEdge(1, 2); // duplicate
        graph.bufferAllEdges(); // duplicate buffered, not flushed
        graph.syncBackings();
    }
    RecoveryReport report;
    auto recovered = XPGraph::recover(c, &report);
    ASSERT_NE(recovered, nullptr) << report.error;
    std::vector<vid_t> nebrs;
    EXPECT_EQ(recovered->getNebrsOut(1, nebrs), 2u);
    EXPECT_EQ(recovered->degreeOut(1), 2u);
    nebrs.clear();
    EXPECT_EQ(recovered->getNebrsIn(2, nebrs), 2u);
    EXPECT_EQ(report.edgesReplayed, 1u);
    EXPECT_EQ(report.edgesDeduped, 0u);
}

TEST_F(RecoveryTest, RecoverKeepsReinsertAfterFlushedDelete)
{
    // Delete then re-insert: the reinsert is a new live edge even
    // though an identical record (the first insert) is already durable.
    const vid_t nv = 10;
    const XPGraphConfig c = config(nv, 1000);
    {
        XPGraph graph(c);
        {
            auto s = graph.session(0);
            s->addEdge(1, 2);
            s->delEdge(1, 2);
        }
        graph.archiveAll();
        graph.session(0)->addEdge(1, 2); // reinsert
        graph.bufferAllEdges();
        graph.syncBackings();
    }
    auto recovered = XPGraph::recover(c);
    std::vector<vid_t> nebrs;
    EXPECT_EQ(recovered->getNebrsOut(1, nebrs), 1u);
    EXPECT_EQ(recovered->degreeOut(1), 1u);
    nebrs.clear();
    EXPECT_EQ(recovered->getNebrsIn(2, nebrs), 1u);
}

/** Apply @p ops to the matching live-state model. */
crash::LiveState
modelOf(vid_t nv, const std::vector<crash::Op> &ops)
{
    crash::LiveState state(nv);
    for (const auto &op : ops)
        state.apply(op);
    return state;
}

TEST_F(RecoveryTest, RecoverWindowFedByBothLogs)
{
    // Two sessions on the two nodes feed the same vertices, so every
    // vertex buffer interleaves records of both logs phase by phase;
    // tiny vertex buffers flush mid-phase, making a prefix of each
    // vertex's window durable. Replay must walk the window in that same
    // order to skip exactly the durable prefix. Edge keys are split
    // between the sessions (deletes and duplicates stay in the session
    // that inserted), so the model is order-independent across logs.
    const vid_t nv = 16;
    XPGraphConfig c = config(nv, 4000);
    c.bufferingThresholdEdges = 8;
    c.maxVertexBufBytes = 32;
    c.archiveThreads = 1;
    std::vector<crash::Op> ops;
    for (uint32_t i = 0; i < 900; ++i) {
        const vid_t src = 1 + i % 3;
        const vid_t dst = 2 * ((i / 3) % 5) + (i % 2) + 4;
        const bool del = i % 7 == 6;
        ops.push_back(crash::Op{del ? crash::Op::Delete : crash::Op::Insert,
                                Edge{src, dst}});
        if (i == 300)
            ops.push_back(crash::Op{crash::Op::Compact, Edge{0, 0}});
    }
    RecoveryReport report;
    {
        XPGraph graph(c);
        auto a = graph.session(0);
        auto b = graph.session(1);
        for (const auto &op : ops) {
            auto &s = (op.e.src + op.e.dst) % 2 ? *b : *a;
            if (op.kind == crash::Op::Insert)
                s.addEdge(op.e.src, op.e.dst);
            else if (op.kind == crash::Op::Delete)
                s.delEdge(op.e.src, op.e.dst);
            else
                graph.archiveAll();
        }
        graph.bufferAllEdges();
        EXPECT_TRUE(modelOf(nv, ops).matches(graph));
        graph.syncBackings();
    }
    auto recovered = XPGraph::recover(c, &report);
    ASSERT_NE(recovered, nullptr) << report.error;
    EXPECT_GT(report.edgesDeduped, 0u)
        << "no mid-phase flush: the watermark was never exercised";
    EXPECT_GT(report.edgesReplayed, 0u);
    EXPECT_TRUE(modelOf(nv, ops).matches(*recovered));
    recovered->archiveAll();
    EXPECT_TRUE(modelOf(nv, ops).matches(*recovered));
}

TEST_F(RecoveryTest, RecoverAfterCompactingWindowRecords)
{
    // Compaction folds window records (inserts, a delete, a reinsert,
    // a duplicate) into the rewritten chain; the index entry carries
    // the watermark forward, so replay still skips exactly those.
    const vid_t nv = 10;
    const XPGraphConfig c = config(nv, 1000);
    using crash::Op;
    const std::vector<Op> before{{Op::Insert, {1, 2}}, {Op::Insert, {1, 3}},
                                 {Op::Insert, {1, 4}}};
    const std::vector<Op> window{{Op::Insert, {1, 5}}, {Op::Delete, {1, 3}},
                                 {Op::Insert, {1, 3}}, {Op::Insert, {1, 2}}};
    const std::vector<Op> after{{Op::Insert, {1, 6}}, {Op::Delete, {1, 2}},
                                {Op::Insert, {1, 5}}};
    std::vector<Op> all = before;
    all.insert(all.end(), window.begin(), window.end());
    all.insert(all.end(), after.begin(), after.end());
    const auto apply = [](XPGraph &g, const std::vector<Op> &ops) {
        auto s = g.session(0);
        for (const auto &op : ops) {
            if (op.kind == Op::Insert)
                s->addEdge(op.e.src, op.e.dst);
            else
                s->delEdge(op.e.src, op.e.dst);
        }
    };
    RecoveryReport report;
    {
        XPGraph graph(c);
        apply(graph, before);
        graph.archiveAll();
        apply(graph, window);
        graph.bufferAllEdges();
        graph.compactAdjs(1); // flushes vertex 1, rewrites its chain
        apply(graph, after);
        graph.bufferAllEdges();
        graph.syncBackings();
    }
    auto recovered = XPGraph::recover(c, &report);
    ASSERT_NE(recovered, nullptr) << report.error;
    EXPECT_EQ(report.edgesDeduped, window.size());
    EXPECT_EQ(report.edgesReplayed, after.size());
    EXPECT_TRUE(modelOf(nv, all).matches(*recovered));
    EXPECT_EQ(recovered->degreeOut(1), 6u);
}

TEST_F(RecoveryTest, RecoverAgainBeforeTheWindowIsFlushed)
{
    // Recovery re-buffers the window (here: records of both logs that no
    // phase had buffered yet) without flushing it, and tiny vertex
    // buffers flush part of it on the way. One more phase follows, on
    // node 0 alone. A second crash before the next flush-all must replay
    // the window in the order the buffers saw it: recovery's own range
    // of both logs first, then the new phase — walking the new node-0
    // records before recovery's node-1 range would skip the wrong ones.
    const vid_t nv = 16;
    XPGraphConfig c = config(nv, 4000);
    c.bufferingThresholdEdges = 8;
    c.maxVertexBufBytes = 32;
    XPGraphConfig no_phases = c;
    no_phases.bufferingThresholdEdges = 1 << 12;
    std::vector<Edge> edges;
    for (uint32_t i = 0; i < 600; ++i)
        edges.push_back(Edge{1 + i % 4, 5 + (i / 4) % 6});
    {
        XPGraph graph(no_phases);
        auto a = graph.session(0);
        auto b = graph.session(1);
        for (size_t i = 0; i < edges.size(); ++i) {
            (i % 2 ? b : a)->addEdge(edges[i].src, edges[i].dst);
            if (i == 200)
                graph.archiveAll();
        }
        graph.syncBackings();
    }
    RecoveryReport report;
    {
        auto first = XPGraph::recover(c, &report);
        ASSERT_NE(first, nullptr) << report.error;
        auto s = first->session(0);
        for (vid_t src = 1; src <= 4; ++src) {
            edges.push_back(Edge{src, 15});
            s->addEdge(src, 15);
        }
        s.reset();
        first->bufferAllEdges();
        first->syncBackings();
    }
    auto second = XPGraph::recover(c, &report);
    ASSERT_NE(second, nullptr) << report.error;
    EXPECT_GT(report.edgesDeduped, 0u);
    expectSameNeighbors(*second, Csr(nv, edges, false), Csr(nv, edges, true));
}

TEST_F(RecoveryTest, RecoveryTimeSplitsIntoRebuildAndReplay)
{
    const vid_t nv = 200;
    auto edges = distinctEdges(nv, 6000, 97);
    const XPGraphConfig c = config(nv, edges.size());
    {
        XPGraph graph(c);
        graph.session(0)->addEdges(edges.data(), edges.size());
        graph.bufferAllEdges(); // buffered, not flushed: replay expected
        graph.syncBackings();
    }
    RecoveryReport report;
    auto recovered = XPGraph::recover(c, &report);
    ASSERT_NE(recovered, nullptr) << report.error;
    EXPECT_GT(report.rebuildNs, 0u);
    EXPECT_GT(report.replayNs, 0u);
    EXPECT_EQ(report.rebuildNs + report.replayNs, report.recoveryNs);
    EXPECT_EQ(report.recoveryNs, recovered->stats().recoveryNs);
    const std::string json = report.toJson().dump();
    EXPECT_NE(json.find("\"rebuild_ns\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"replay_ns\""), std::string::npos) << json;
}

TEST_F(RecoveryTest, RecoverRequiresBackingFiles)
{
    XPGraphConfig c = config(10, 100);
    EXPECT_EXIT(XPGraph::recover(c), ::testing::ExitedWithCode(1),
                "missing backing file");
}

TEST_F(RecoveryTest, RecoverRejectsMismatchedConfig)
{
    const vid_t nv = 100;
    XPGraphConfig c = config(nv, 1000);
    {
        XPGraph graph(c);
        graph.session(0)->addEdge(1, 2);
        graph.syncBackings();
    }
    XPGraphConfig wrong = c;
    wrong.maxVertices = nv * 2;
    EXPECT_EXIT(XPGraph::recover(wrong), ::testing::ExitedWithCode(1),
                "does not match");
}

// --- typed RecoveryReport (structured, non-fatal recovery outcomes) ---

TEST_F(RecoveryTest, TypedReportMissingBacking)
{
    XPGraphConfig c = config(10, 100);
    RecoveryReport report;
    auto recovered = XPGraph::recover(c, &report);
    EXPECT_EQ(recovered, nullptr);
    EXPECT_EQ(report.status, RecoveryStatus::MissingBacking);
    EXPECT_NE(report.error.find("missing backing file"),
              std::string::npos)
        << report.error;
    EXPECT_STREQ(recoveryStatusName(report.status), "MissingBacking");
}

TEST_F(RecoveryTest, TypedReportConfigMismatch)
{
    const vid_t nv = 100;
    XPGraphConfig c = config(nv, 1000);
    {
        XPGraph graph(c);
        graph.session(0)->addEdge(1, 2);
        graph.syncBackings();
    }
    XPGraphConfig wrong = c;
    wrong.elogCapacityEdges *= 2;
    wrong.pmemBytesPerNode = recommendedBytesPerNode(wrong, 1000);
    RecoveryReport report;
    auto recovered = XPGraph::recover(wrong, &report);
    EXPECT_EQ(recovered, nullptr);
    EXPECT_EQ(report.status, RecoveryStatus::ConfigMismatch);
    EXPECT_NE(report.error.find("does not match"), std::string::npos)
        << report.error;
}

TEST_F(RecoveryTest, TypedReportCorruptSuperblock)
{
    const vid_t nv = 100;
    XPGraphConfig c = config(nv, 1000);
    {
        XPGraph graph(c);
        graph.session(0)->addEdge(1, 2);
        graph.syncBackings();
    }
    // Scribble over the superblock magic of node 0's backing file.
    const std::string path = dir_ + "/xpgraph_node0.pmem";
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr) << path;
    const uint64_t garbage = 0x6261646d61676963ull;
    std::fwrite(&garbage, sizeof(garbage), 1, f);
    std::fclose(f);

    RecoveryReport report;
    auto recovered = XPGraph::recover(c, &report);
    EXPECT_EQ(recovered, nullptr);
    EXPECT_EQ(report.status, RecoveryStatus::SuperblockCorrupt);
    EXPECT_NE(report.error.find("superblock"), std::string::npos)
        << report.error;
}

TEST_F(RecoveryTest, TypedReportOlderFormatVersion)
{
    // An image of the previous on-media format (superblock version 3,
    // before window-stamped commit words) must be refused, not misread.
    const vid_t nv = 100;
    XPGraphConfig c = config(nv, 1000);
    {
        XPGraph graph(c);
        graph.session(0)->addEdge(1, 2);
        graph.syncBackings();
    }
    const std::string path = dir_ + "/xpgraph_node0.pmem";
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr) << path;
    const uint32_t old_version = 3;
    std::fseek(f, 8, SEEK_SET); // right after the 8-byte magic
    std::fwrite(&old_version, sizeof(old_version), 1, f);
    std::fclose(f);

    RecoveryReport report;
    auto recovered = XPGraph::recover(c, &report);
    EXPECT_EQ(recovered, nullptr);
    EXPECT_EQ(report.status, RecoveryStatus::SuperblockCorrupt);
}

TEST_F(RecoveryTest, TypedReportFlippedSuperblockBitFailsChecksum)
{
    const vid_t nv = 100;
    XPGraphConfig c = config(nv, 1000);
    {
        XPGraph graph(c);
        graph.session(0)->addEdge(1, 2);
        graph.syncBackings();
    }
    // Flip one byte inside the superblock body (past magic + version):
    // only the checksum catches this.
    const std::string path = dir_ + "/xpgraph_node0.pmem";
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr) << path;
    std::fseek(f, 40, SEEK_SET);
    uint8_t b = 0;
    ASSERT_EQ(std::fread(&b, 1, 1, f), 1u);
    b ^= 0x40;
    std::fseek(f, 40, SEEK_SET);
    std::fwrite(&b, 1, 1, f);
    std::fclose(f);

    RecoveryReport report;
    auto recovered = XPGraph::recover(c, &report);
    EXPECT_EQ(recovered, nullptr);
    EXPECT_EQ(report.status, RecoveryStatus::SuperblockCorrupt);
    EXPECT_NE(report.error.find("checksum"), std::string::npos)
        << report.error;
}

TEST_F(RecoveryTest, CleanRecoveryReportCounts)
{
    const vid_t nv = 200;
    auto edges = distinctEdges(nv, 6000, 91);
    const XPGraphConfig c = config(nv, edges.size());
    {
        XPGraph graph(c);
        graph.session(0)->addEdges(edges.data(), edges.size());
        graph.bufferAllEdges(); // buffered, not flushed: replay expected
        graph.syncBackings();
    }
    RecoveryReport report;
    auto recovered = XPGraph::recover(c, &report);
    ASSERT_NE(recovered, nullptr) << report.error;
    EXPECT_TRUE(report.ok());
    EXPECT_GT(report.edgesReplayed, 0u);
    EXPECT_FALSE(report.repaired()) << "clean shutdown needed repairs";
    EXPECT_GT(report.recoveryNs, 0u);
    recovered->bufferAllEdges();
    expectSameNeighbors(*recovered, Csr(nv, edges, false),
                        Csr(nv, edges, true));
}

TEST_F(RecoveryTest, TuningKnobsMayChangeAcrossRecovery)
{
    // Only geometry is fingerprinted: buffering/archiving knobs may be
    // retuned across a restart without invalidating the store.
    const vid_t nv = 100;
    auto edges = distinctEdges(nv, 2000, 93);
    const XPGraphConfig c = config(nv, edges.size());
    {
        XPGraph graph(c);
        graph.session(0)->addEdges(edges.data(), edges.size());
        graph.bufferAllEdges();
        graph.syncBackings();
    }
    XPGraphConfig retuned = c;
    retuned.bufferingThresholdEdges *= 4;
    retuned.archiveThreads = 2;
    RecoveryReport report;
    auto recovered = XPGraph::recover(retuned, &report);
    ASSERT_NE(recovered, nullptr) << report.error;
    EXPECT_TRUE(report.ok());
    recovered->bufferAllEdges();
    expectSameNeighbors(*recovered, Csr(nv, edges, false),
                        Csr(nv, edges, true));
}

TEST_F(RecoveryTest, RecoverTwiceIsStable)
{
    const vid_t nv = 100;
    auto edges = distinctEdges(nv, 2000, 95);
    const XPGraphConfig c = config(nv, edges.size());
    {
        XPGraph graph(c);
        graph.session(0)->addEdges(edges.data(), edges.size());
        graph.bufferAllEdges();
        graph.flushAllVbufs();
        graph.syncBackings();
    }
    {
        auto first = XPGraph::recover(c);
        first->syncBackings();
    }
    RecoveryReport report;
    auto second = XPGraph::recover(c, &report);
    ASSERT_NE(second, nullptr) << report.error;
    EXPECT_TRUE(report.ok());
    second->bufferAllEdges();
    expectSameNeighbors(*second, Csr(nv, edges, false),
                        Csr(nv, edges, true));
}

TEST_F(RecoveryTest, FreshInstanceDiscardsStaleFiles)
{
    const vid_t nv = 50;
    const XPGraphConfig c = config(nv, 1000);
    {
        XPGraph graph(c);
        graph.session(0)->addEdge(1, 2);
        graph.bufferAllEdges();
        graph.flushAllVbufs();
        graph.syncBackings();
    }
    // A *fresh* instance over the same directory starts empty.
    XPGraph fresh(c);
    std::vector<vid_t> nebrs;
    EXPECT_EQ(fresh.getNebrsOut(1, nebrs), 0u);
}

} // namespace
} // namespace xpg
