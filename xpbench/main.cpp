/**
 * @file
 * One repetition of one benchmark workload against the public
 * XPGraph / GraphStore API; run.py drives repetitions and takes medians.
 *
 * Every workload runs the same five phases on one file-backed store, so
 * every end-to-end metric is measured on every workload; the workloads
 * differ in dataset and in how much work each phase gets:
 *
 *   setup   generate the seeded stream and client plans, build the store
 *   ingest  closed-loop sessions append insert batches (pipelined
 *           archiving), then archiveAll()
 *   churn   one closed-loop client runs a seeded interleave of bursts
 *           of one-hop reads (one view per burst) and 64-edge write
 *           batches: inserts of the next stream edges and deletes of
 *           the client's own live edges; closing archiveAll()
 *   query   append an un-archived tail (half buffered, half left in the
 *           log), openView(), run the kernel suite on the view
 *   crash   compactAllAdjs() if the compactor is on, append a crash
 *           tail from the churn generator, then bufferAllEdges() +
 *           syncBackings() and destroy the store; XPGraph::recover(),
 *           archiveAll(), verify
 *
 * The store receives only the generated edges. Correctness: every
 * kernel is re-run on a CsrView of the client's model; after churn the
 * live-edge checksum and all degrees are compared with the model; after
 * recovery the live multiset is compared with the model (edges lost or
 * resurrected are failed ops, not a fatal error). Exact-sum self-checks
 * on the device counters and the simulated-time records fail the run.
 *
 * Usage: xpbench --workload NAME --seed N --run-dir DIR [--trace 0|1]
 *                [--scale-delta K]
 * Prints "PLAN <ops>" once the plan is built, then one JSON line.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "analytics/algorithms.hpp"
#include "bench_common.hpp"
#include "core/xpgraph.hpp"
#include "graph/csr_view.hpp"
#include "graph/datasets.hpp"
#include "telemetry/telemetry.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

using namespace xpg;
using xpbench::hostNs;
using xpbench::Tracer;
using Scope = xpbench::Tracer::Scope;

namespace {

constexpr uint64_t kBatch = 64;          ///< churn write batch (edges)
constexpr uint64_t kIngestBatch = 4096;   ///< edges per ingest addEdges call
constexpr uint64_t kReadBurst = 256;      ///< one-hop reads per view
/** Archive workers (capped at the cores): the clients need the other
 *  cores, and an oversubscribed phase turns the host's bursts of CPU
 *  steal into swings of a third in host time. */
constexpr unsigned kArchiveThreads = 2;
constexpr unsigned kBfsRoots = 8;         ///< seeded BFS roots per query
constexpr uint64_t kOneHops = 1u << 14;   ///< one-hop queries per query

/**
 * What one workload runs; see the file comment for the phases. The
 * churn mixes are the repo's own: reads per write batch from
 * bench/fig_serving (19 = its 95/5 read/write mix, 1 = its 50/50) and
 * the delete share from bench/fig_churn (every (100/deletePct)-th batch
 * deletes; 50 = its 50/50 insert/delete mix, 0 = insert-only).
 */
struct Spec
{
    const char *name;
    const char *dataset;       ///< Table II stand-in
    unsigned shift;            ///< scale: 1/2^shift of the paper's sizes
    double loadFrac;           ///< share of the stream ingested up front
    unsigned ingestSessions;   ///< closed-loop ingest clients
    uint64_t writeBatches;     ///< churn write batches
    unsigned readsPerWrite;    ///< one-hop reads per write batch
    unsigned deletePct;        ///< share of write batches that delete
    bool compaction;           ///< background compactor on
    unsigned prIters;          ///< 0 = no PageRank
    bool cc;
    uint64_t crashBatches;     ///< crash-tail write batches
};

// analytics: a sparse hub-heavy web graph and the full kernel suite on a
//   view spanning sealed chunks, vertex buffers and the log window; its
//   churn probe is fig_serving's insert-only 95/5 read/write mix.
// churn_recover: fig_churn's 50/50 insert/delete mix over its quarter-
//   stream preload, fig_serving's 50/50 read/write mix, the compactor,
//   and a crash whose replay window is fixed by construction; its
//   preload keeps two sessions per node.
const Spec kSpecs[] = {
    {"analytics", "YW", 12, 0.88, 2, 1024, 19, 0, false, 10, true, 64},
    {"churn_recover", "TT", 11, 0.25, 4, 15360, 1, 50, true, 0, false, 128},
};

uint64_t
edgeKey(const Edge &e)
{
    return (uint64_t{e.src} << 32) | e.dst;
}

enum class OpKind : uint8_t
{
    Read,
    Insert,
    Delete
};

struct Op
{
    OpKind kind;
    uint32_t arg; ///< Read: vertex; writes: batch index into the arena
};

/** The client's planned ops; write batches live in one edge arena. */
struct ClientPlan
{
    std::vector<Op> ops;
    std::vector<Edge> arena;
    uint64_t reads = 0;
    uint64_t writeEdges = 0;
    uint64_t reinserted = 0; ///< inserted edges the client had deleted
};

/**
 * The client's seeded churn generator. It owns the client's model: the
 * edges it has inserted and not deleted. Deletes sample that live set
 * (as in bench/fig_churn); inserts take the next edges of the stream,
 * so a deleted edge comes back whenever the stream repeats it.
 */
class ChurnGen
{
  public:
    ChurnGen(uint64_t seed, const Spec &spec, std::vector<Edge> live)
        : live(std::move(live)), rng_(seed), spec_(spec)
    {
    }

    void setFresh(std::span<const Edge> fresh)
    {
        fresh_ = fresh;
        next_ = 0;
    }

    /**
     * Plan @p batches write batches and @p reads one-hop reads
     * (vertices drawn from @p pool) in bursts of kReadBurst, one view
     * per burst, with the write batches split over the gaps at seeded
     * cut points. The client never holds a view while it writes: an
     * open view floors log reclamation, so a writer blocked on a full
     * log while holding one could wait forever.
     */
    void
    plan(ClientPlan &p, uint64_t batches, uint64_t reads,
         std::span<const Edge> pool)
    {
        const uint64_t bursts = (reads + kReadBurst - 1) / kReadBurst;
        std::vector<uint64_t> cuts;
        for (uint64_t b = 0; b < bursts; ++b)
            cuts.push_back(rng_.nextBounded(batches + 1));
        std::sort(cuts.begin(), cuts.end());
        cuts.push_back(batches);
        uint64_t written = 0, read = 0;
        for (uint64_t cut : cuts) {
            for (; written < cut; ++written)
                writeBatch(p);
            for (uint64_t i = 0; i < kReadBurst && read < reads;
                 ++i, ++read) {
                const vid_t v = pool[rng_.nextBounded(pool.size())].src;
                p.ops.push_back({OpKind::Read, v});
                ++p.reads;
            }
        }
    }

    std::vector<Edge> live;

  private:
    void
    writeBatch(ClientPlan &p)
    {
        const uint64_t every = spec_.deletePct ? 100 / spec_.deletePct : 0;
        const bool del = every != 0 && batch_++ % every == every - 1 &&
                         live.size() >= kBatch;
        if (!del && fresh_.size() - next_ < kBatch)
            return; // stream exhausted
        const uint32_t idx = static_cast<uint32_t>(p.arena.size() / kBatch);
        for (uint64_t i = 0; i < kBatch; ++i) {
            if (del) {
                const uint64_t j = rng_.nextBounded(live.size());
                p.arena.push_back(live[j]);
                deleted_.insert(edgeKey(live[j]));
                live[j] = live.back();
                live.pop_back();
            } else {
                const Edge e = fresh_[next_++];
                p.reinserted += deleted_.count(edgeKey(e));
                p.arena.push_back(e);
                live.push_back(e);
            }
        }
        p.ops.push_back({del ? OpKind::Delete : OpKind::Insert, idx});
        p.writeEdges += kBatch;
    }

    Rng rng_;
    const Spec &spec_;
    std::span<const Edge> fresh_;
    uint64_t next_ = 0;
    uint64_t batch_ = 0;
    std::unordered_set<uint64_t> deleted_;
};

/** Order-insensitive digest of one live edge. */
uint64_t
edgeHash(vid_t v, vid_t n)
{
    return (0x9e3779b97f4a7c15ull * (v + 1)) ^
           (0xc2b2ae3d27d4eb4full * (n + 1));
}

double
quantile(std::vector<uint64_t> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return static_cast<double>(
        v[static_cast<size_t>(q * static_cast<double>(v.size() - 1))]);
}

/** Ordered output: name -> (value, unit). */
struct Metrics
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>> kv;
    void
    put(const std::string &name, double value, const char *unit)
    {
        kv.push_back({name, {value, unit}});
    }
    std::string
    json() const
    {
        std::string s = "{";
        char buf[96];
        for (size_t i = 0; i < kv.size(); ++i) {
            std::snprintf(buf, sizeof buf, "%.17g", kv[i].second.first);
            s += (i ? ", \"" : "\"") + kv[i].first + "\": [" + buf +
                 ", \"" + kv[i].second.second + "\"]";
        }
        return s + "}";
    }
};

/** Sorted keys of every live out-edge visible through a fresh view. */
std::vector<uint64_t>
dumpLive(GraphStore &g, vid_t nv)
{
    auto view = g.openView();
    std::vector<uint64_t> keys;
    for (vid_t v = 0; v < nv; ++v)
        view->forEachNebrOut(v, [&](vid_t n) {
            keys.push_back((uint64_t{v} << 32) | n);
        });
    std::sort(keys.begin(), keys.end());
    return keys;
}

/** |a - b| and |b - a| of two sorted multisets. */
std::pair<uint64_t, uint64_t>
multisetDiff(const std::vector<uint64_t> &a, const std::vector<uint64_t> &b)
{
    uint64_t only_a = 0, only_b = 0;
    size_t i = 0, j = 0;
    while (i < a.size() || j < b.size()) {
        if (j == b.size() || (i < a.size() && a[i] < b[j])) {
            ++only_a;
            ++i;
        } else if (i == a.size() || b[j] < a[i]) {
            ++only_b;
            ++j;
        } else {
            ++i;
            ++j;
        }
    }
    return {only_a, only_b};
}

bool
samePcm(const PcmCounters &a, const PcmCounters &b)
{
    return a.appBytesRead == b.appBytesRead &&
           a.appBytesWritten == b.appBytesWritten &&
           a.mediaBytesRead == b.mediaBytesRead &&
           a.mediaBytesWritten == b.mediaBytesWritten &&
           a.mediaReadOps == b.mediaReadOps &&
           a.mediaWriteOps == b.mediaWriteOps &&
           a.bufferHits == b.bufferHits &&
           a.remoteAccesses == b.remoteAccesses;
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    std::string runDir;
    bool trace = false;
    unsigned scaleDelta = 0;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--run-dir")
            a.runDir = v;
        else if (k == "--trace")
            a.trace = std::strcmp(v, "0") != 0;
        else if (k == "--scale-delta")
            a.scaleDelta = static_cast<unsigned>(std::atoi(v));
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && !a.runDir.empty();
}

/** One repetition; see the file comment. */
class Rep
{
  public:
    Rep(const Spec &spec, const Args &args)
        : spec_(spec), args_(args),
          tracer_(args.trace, spec.name + std::string("-") +
                                  std::to_string(args.seed))
    {
    }

    int run();

  private:
    void setup();
    void ingest();
    void churn();
    void query();
    void crashRecover();
    void checkAttribution(const char *where);
    void fail(const std::string &why)
    {
        std::fprintf(stderr, "xpbench: CHECK FAILED: %s\n", why.c_str());
        correct_ = false;
    }

    const Spec &spec_;
    Args args_;
    Tracer tracer_;
    uint64_t rootSpan_ = 0;
    unsigned threads_ = 1;

    Dataset ds_;
    XPGraphConfig config_;
    std::unique_ptr<XPGraph> g_;
    std::span<const Edge> load_, queryTail_;
    ClientPlan plan_;
    std::optional<ChurnGen> gen_;
    ClientPlan crashPlan_;
    std::vector<Edge> crashFresh_;
    std::vector<vid_t> roots_, onehopQs_;
    std::vector<uint64_t> churnModel_; ///< sorted live keys after churn

    uint64_t attempted_ = 0, failed_ = 0;
    bool correct_ = true;
    uint64_t timedNs_ = 0; ///< host ns of the measured phases

    // samples (host ns)
    std::vector<uint64_t> logCallNs_, writeNs_, readNs_, viewOpenNs_;
    uint64_t archiveSyncNs_ = 0;

    // archive phase ledger at store construction: the store's counters
    // and the per-phase histograms the engine records them into
    IngestStats stats0_;
    uint64_t bufferingHist0_ = 0, flushingHist0_ = 0;
    uint64_t bufferingHist_ = 0, flushingHist_ = 0; ///< at the crash

    // pre-crash snapshots of the first store
    IngestStats stats_;
    PcmCounters pcm_;
    telemetry::AttributionSnapshot attr_;
    CompressionStats codec_;
    MemoryUsage mem_;

    Metrics e2e_, layer_;
};

void
Rep::checkAttribution(const char *where)
{
    const PcmCounters pcm = g_->pmemCounters();
    const PcmCounters sum = g_->pmemAttribution().total();
    if (!samePcm(pcm, sum))
        fail(std::string("attribution rows != device counters after ") +
             where);
}

/** Sum of every sample the engine recorded into a histogram. */
uint64_t
histogramSum(const char *name, const telemetry::Labels &labels)
{
    return telemetry::Telemetry::instance()
        .histogram(name, labels)
        .snapshot()
        .sum;
}

/** Sum of one archive phase's histogram (buffering or flushing). */
uint64_t
archivePhaseSum(const char *name, const char *phase)
{
    return histogramSum(name, {.store = "xpgraph", .phase = phase});
}

void
Rep::setup()
{
    const uint64_t t0 = hostNs();
    Scope phase(tracer_, "phase.setup", rootSpan_);
    DatasetSpec dspec = datasetByAbbrev(spec_.dataset);
    dspec.seed ^= args_.seed * 0x9e3779b97f4a7c15ull;
    const unsigned shift = spec_.shift + args_.scaleDelta;
    ds_ = generateDataset(dspec, shift);
    const std::vector<Edge> &edges = ds_.edges;
    const uint64_t n = edges.size();

    // Scaled testbed of bench/bench_common.cpp at this workload's scale,
    // with worker pools capped at the host's cores.
    const bench::ScaledTestbed tb = bench::ScaledTestbed::at(shift);
    config_ = XPGraphConfig::persistent(ds_.numVertices, 0);
    config_.archiveThreads = std::min(kArchiveThreads, threads_);
    config_.elogCapacityEdges = tb.elogCapacityEdges;
    config_.bufferingThresholdEdges =
        bench::ScaledTestbed::thresholdFor(ds_.activeVertices());
    config_.memoryModeCacheBytes = tb.memoryModeCacheBytes / 2;
    config_.pipelinedArchiving = true;
    config_.backgroundCompaction = spec_.compaction;
    config_.backingDir = args_.runDir;
    config_.pmemBytesPerNode = recommendedBytesPerNode(config_, 2 * n);

    // Stream layout: [load | query tail | crash fresh | churn fresh].
    const uint64_t n_load = static_cast<uint64_t>(spec_.loadFrac * n);
    const uint64_t n_tail = std::min<uint64_t>(
        config_.bufferingThresholdEdges, (n - n_load) / 4);
    const uint64_t n_crash = std::min<uint64_t>(spec_.crashBatches * kBatch,
                                                (n - n_load) / 4);
    load_ = {edges.data(), n_load};
    queryTail_ = {edges.data() + n_load, n_tail};
    crashFresh_.assign(edges.begin() + n_load + n_tail,
                       edges.begin() + n_load + n_tail + n_crash);
    const uint64_t churn_lo = n_load + n_tail + n_crash;

    // The churn client owns every loaded edge and the rest of the stream.
    gen_.emplace(args_.seed * 1000003, spec_,
                 std::vector<Edge>(edges.begin(), edges.begin() + n_load));
    gen_->setFresh({edges.data() + churn_lo, n - churn_lo});
    gen_->plan(plan_, spec_.writeBatches,
               spec_.writeBatches * spec_.readsPerWrite,
               {edges.data(), n_load});
    for (const Edge &e : gen_->live)
        churnModel_.push_back(edgeKey(e));
    std::sort(churnModel_.begin(), churnModel_.end());
    gen_->setFresh(crashFresh_);
    gen_->plan(crashPlan_, spec_.crashBatches, 0, {edges.data(), n_load});

    // Queries start at sources of edges live after the churn, so none
    // starts at a vertex the deletes left without out-edges.
    Rng rng(args_.seed ^ 0x51ED);
    auto live_src = [&] {
        return static_cast<vid_t>(
            churnModel_[rng.nextBounded(churnModel_.size())] >> 32);
    };
    for (unsigned i = 0; i < kBfsRoots; ++i)
        roots_.push_back(live_src());
    for (uint64_t i = 0; i < kOneHops; ++i)
        onehopQs_.push_back(live_src());

    // Edges written and read, plus the recover call and each kernel run.
    attempted_ = n_load + queryTail_.size() + crashPlan_.writeEdges +
                 plan_.writeEdges + plan_.reads + 1 + roots_.size() +
                 (spec_.prIters ? 1 : 0) + (spec_.cc ? 1 : 0) + 1;

    std::filesystem::create_directories(args_.runDir);
    g_ = std::make_unique<XPGraph>(config_);
    stats0_ = g_->snapshotStats();
    bufferingHist0_ =
        archivePhaseSum("archive.buffering_phase_ns", "buffering");
    flushingHist0_ = archivePhaseSum("archive.flush_phase_ns", "flushing");
    phase.close();
    e2e_.put("setup_s", static_cast<double>(hostNs() - t0) / 1e9, "s");
}

void
Rep::ingest()
{
    Scope phase(tracer_, "phase.ingest", rootSpan_, g_.get());
    const PcmCounters before = g_->pmemCounters();
    const uint64_t phase_id = phase.id();
    const uint64_t n = load_.size();
    const unsigned S = std::min(spec_.ingestSessions, threads_);
    const uint64_t t0 = hostNs();
    std::vector<std::vector<uint64_t>> lat(S);
    std::vector<std::thread> clients;
    for (unsigned t = 0; t < S; ++t) {
        const uint64_t lo = n * t / S, hi = n * (t + 1) / S;
        clients.emplace_back([this, lo, hi, t, phase_id, &lat] {
            auto session = g_->session(t);
            for (uint64_t i = lo; i < hi; i += kIngestBatch) {
                const uint64_t k = std::min(kIngestBatch, hi - i);
                Scope s(tracer_, "core.log:addEdges", phase_id);
                const uint64_t c0 = hostNs();
                session->addEdges(load_.data() + i, k);
                lat[t].push_back(hostNs() - c0);
            }
        });
    }
    for (std::thread &c : clients)
        c.join();
    for (const std::vector<uint64_t> &l : lat)
        logCallNs_.insert(logCallNs_.end(), l.begin(), l.end());
    {
        Scope s(tracer_, "core.archive:archiveAll", phase_id, g_.get());
        const uint64_t a0 = hostNs();
        g_->archiveAll();
        archiveSyncNs_ += hostNs() - a0;
    }
    const uint64_t dt = hostNs() - t0;
    timedNs_ += dt;
    phase.close();

    const IngestStats st = g_->snapshotStats();
    const PcmCounters d = g_->pmemCounters() - before;
    const MemoryUsage mem = g_->memoryUsage();
    const double edges = static_cast<double>(n);
    layer_.put("ingest_host_eps", edges * 1e9 / static_cast<double>(dt),
               "edges/s");
    e2e_.put("ingest_sim_eps",
             edges * 1e9 / static_cast<double>(st.ingestNs()), "edges/s");
    e2e_.put("ingest_media_write_bytes_per_edge",
             static_cast<double>(d.mediaBytesWritten) / edges, "B/edge");
    e2e_.put("ingest_dram_bytes_per_edge",
             static_cast<double>(mem.metaBytes + mem.vbufBytes) / edges,
             "B/edge");
    checkAttribution("ingest");
}

void
Rep::churn()
{
    Scope phase(tracer_, "phase.churn", rootSpan_, g_.get());
    const uint64_t phase_id = phase.id();
    const uint64_t t0 = hostNs();
    auto session = g_->session(0);
    std::unique_ptr<ReadView> view;
    auto close_view = [&] {
        Scope s(tracer_, "graph.read_view:closeView", phase_id);
        view.reset();
    };
    uint64_t since_open = 0;
    uint64_t sink = 0;
    for (const Op &op : plan_.ops) {
        if (op.kind == OpKind::Read) {
            if (!view || since_open == kReadBurst) {
                if (view)
                    close_view();
                Scope s(tracer_, "graph.read_view:openView", phase_id);
                const uint64_t o0 = hostNs();
                view = g_->openView();
                viewOpenNs_.push_back(hostNs() - o0);
                since_open = 0;
            }
            ++since_open;
            Scope s(tracer_, "graph.read_view:forEachNebrOut", phase_id);
            const uint64_t r0 = hostNs();
            view->forEachNebrOut(op.arg, [&](vid_t n) { sink += n; });
            readNs_.push_back(hostNs() - r0);
            continue;
        }
        if (view)
            close_view(); // see ChurnGen::plan
        const Edge *batch = plan_.arena.data() + op.arg * kBatch;
        const bool del = op.kind == OpKind::Delete;
        Scope s(tracer_, del ? "core.log:delEdges" : "core.log:addEdges",
                phase_id);
        const uint64_t c0 = hostNs();
        if (del)
            session->delEdges(batch, kBatch);
        else
            session->addEdges(batch, kBatch);
        writeNs_.push_back(hostNs() - c0);
    }
    if (view)
        close_view();
    (void)sink;
    session.reset();
    logCallNs_.insert(logCallNs_.end(), writeNs_.begin(), writeNs_.end());
    {
        Scope s(tracer_, "core.archive:archiveAll", phase_id, g_.get());
        const uint64_t a0 = hostNs();
        g_->archiveAll();
        archiveSyncNs_ += hostNs() - a0;
    }
    const uint64_t dt = hostNs() - t0;
    timedNs_ += dt;
    if (spec_.compaction) {
        // Closing reclaim: every candidate chain is rewritten before the
        // store is read, whatever the background pass got to.
        Scope s(tracer_, "core.compaction:runCompactionPass", phase_id,
                g_.get());
        g_->runCompactionPass();
    }
    phase.close();

    const uint64_t ops = plan_.writeEdges + plan_.reads;
    const std::vector<uint64_t> &model = churnModel_;

    const MemoryUsage mem = g_->memoryUsage();
    layer_.put("churn_host_ops_per_s",
               static_cast<double>(ops) * 1e9 / static_cast<double>(dt),
               "ops/s");
    e2e_.put("write_p50_us", quantile(writeNs_, 0.50) / 1e3, "us");
    layer_.put("write_p99_us", quantile(writeNs_, 0.99) / 1e3, "us");
    e2e_.put("read_p50_us", quantile(readNs_, 0.50) / 1e3, "us");
    layer_.put("read_p99_us", quantile(readNs_, 0.99) / 1e3, "us");
    e2e_.put("churn_space_bytes_per_live_edge",
             static_cast<double>(mem.pblkBytes) /
                 static_cast<double>(std::max<uint64_t>(1, model.size())),
             "B/edge");
    layer_.put("churn.write_samples", static_cast<double>(writeNs_.size()),
               "count");
    layer_.put("churn.read_samples", static_cast<double>(readNs_.size()),
               "count");
    layer_.put("churn.reinserted_edges", static_cast<double>(plan_.reinserted),
               "count");
    checkAttribution("churn");

    // Oracle: commutative live-edge checksum and every degree.
    Scope v(tracer_, "bench.verify", rootSpan_);
    const vid_t nv = ds_.numVertices;
    std::vector<uint32_t> out(nv, 0), in(nv, 0);
    uint64_t want = 0;
    for (uint64_t k : model) {
        const vid_t s = static_cast<vid_t>(k >> 32);
        const vid_t d = static_cast<vid_t>(k);
        ++out[s];
        ++in[d];
        want += edgeHash(s, d);
    }
    view = g_->openView();
    uint64_t got = 0, bad = 0;
    for (vid_t u = 0; u < nv; ++u) {
        view->forEachNebrOut(u, [&](vid_t n) { got += edgeHash(u, n); });
        bad += view->degreeOut(u) != out[u];
        bad += view->degreeIn(u) != in[u];
    }
    view.reset();
    bad += got != want;
    if (bad != 0)
        std::fprintf(stderr,
                     "xpbench: churn model mismatch: %" PRIu64
                     " degree/checksum differences\n",
                     bad);
    failed_ += bad;
}

void
Rep::query()
{
    Scope phase(tracer_, "phase.query", rootSpan_, g_.get());
    const uint64_t phase_id = phase.id();
    // Half the tail is buffered into vertex buffers, half stays in the
    // log, so the view reads sealed chunks, buffers and the log window.
    const uint64_t half = queryTail_.size() / 2;
    {
        auto session = g_->session(0);
        {
            Scope s(tracer_, "core.log:addEdges", phase_id);
            session->addEdges(queryTail_.data(), half);
        }
        {
            Scope s(tracer_, "core.archive:bufferAllEdges", phase_id,
                    g_.get());
            const uint64_t a0 = hostNs();
            g_->bufferAllEdges();
            archiveSyncNs_ += hostNs() - a0;
        }
        if (spec_.compaction) {
            Scope s(tracer_, "core.compaction:runCompactionPass", phase_id,
                    g_.get());
            g_->runCompactionPass();
        }
        Scope s(tracer_, "core.log:addEdges", phase_id);
        session->addEdges(queryTail_.data() + half,
                          queryTail_.size() - half);
    }

    std::unique_ptr<ReadView> view;
    {
        Scope s(tracer_, "graph.read_view:openView", phase_id);
        const uint64_t o0 = hostNs();
        view = g_->openView();
        viewOpenNs_.push_back(hostNs() - o0);
    }

    struct Kernel
    {
        uint64_t hostNs = 0, simNs = 0, rounds = 0, edges = 0, reads = 0;
        uint64_t sealed = 0, vbuf = 0, window = 0;
    };
    std::map<std::string, Kernel> kernels = {
        {"bfs", {}}, {"cc", {}}, {"onehop", {}}, {"pagerank", {}}};

    struct Step
    {
        const char *kernel;
        const char *span;
        std::function<AnalyticsResult(GraphView &)> run;
    };
    std::vector<Step> suite;
    for (vid_t root : roots_)
        suite.push_back({"bfs", "analytics:runBfs",
                         [root, this](GraphView &v) {
                             return runBfs(v, root, threads_);
                         }});
    if (spec_.prIters)
        suite.push_back({"pagerank", "analytics:runPageRank",
                         [this](GraphView &v) {
                             return runPageRank(v, spec_.prIters, threads_);
                         }});
    if (spec_.cc)
        suite.push_back({"cc", "analytics:runConnectedComponents",
                         [this](GraphView &v) {
                             return runConnectedComponents(v, threads_);
                         }});
    suite.push_back({"onehop", "analytics:runOneHop", [this](GraphView &v) {
                         return runOneHop(v, onehopQs_, threads_);
                     }});

    // Each kernel also records its simulated time into the engine's
    // per-kernel histogram; the oracle re-runs below record there too,
    // so the sums are taken around the suite.
    auto kernel_hist = [](const std::string &name) {
        return histogramSum("query.kernel_ns", {.phase = name.c_str()});
    };
    std::map<std::string, uint64_t> hist0;
    for (const auto &[name, k] : kernels)
        hist0[name] = kernel_hist(name);
    const PcmCounters before = g_->pmemCounters();
    uint64_t suite_host = 0, suite_sim = 0;
    std::vector<AnalyticsResult> results;
    for (const Step &step : suite) {
        Scope s(tracer_, step.span, phase_id, g_.get());
        const uint64_t k0 = hostNs();
        AnalyticsResult r = step.run(*view);
        const uint64_t dk = hostNs() - k0;
        suite_host += dk;
        suite_sim += r.simNs;
        Kernel &k = kernels[step.kernel];
        k.hostNs += dk;
        k.simNs += r.simNs;
        k.rounds += r.rounds.size();
        k.reads += r.op.pcm.mediaBytesRead;
        uint64_t round_reads = 0;
        for (const RoundStats &rs : r.rounds) {
            k.edges += rs.edgesScanned;
            k.sealed += rs.sealedRecords;
            k.vbuf += rs.bufferRecords;
            k.window += rs.logWindowRecords;
            round_reads += rs.mediaReadBytes;
        }
        if (round_reads != r.op.pcm.mediaBytesRead)
            fail(std::string(step.kernel) + ": round media reads " +
                 std::to_string(round_reads) + " != op delta " +
                 std::to_string(r.op.pcm.mediaBytesRead));
        results.push_back(std::move(r));
    }
    const PcmCounters delta = g_->pmemCounters() - before;
    timedNs_ += suite_host;
    view.reset();
    phase.close();

    layer_.put("query_host_s", static_cast<double>(suite_host) / 1e9, "s");
    e2e_.put("query_sim_s", static_cast<double>(suite_sim) / 1e9, "s");
    e2e_.put("query_media_read_bytes",
             static_cast<double>(delta.mediaBytesRead), "B");

    // Exact sums: each kernel's simulated time equals what the engine
    // recorded for it, and the kernels' op deltas partition the suite's
    // media reads on the quiesced store.
    uint64_t sum_reads = 0, edges = 0, sealed = 0, vbuf = 0, window = 0,
             khost = 0;
    for (const auto &[name, k] : kernels) {
        const uint64_t recorded = kernel_hist(name) - hist0[name];
        if (recorded != k.simNs)
            fail(name + ": engine-recorded sim ns " +
                 std::to_string(recorded) + " != kernel results' " +
                 std::to_string(k.simNs));
        sum_reads += k.reads;
        edges += k.edges;
        sealed += k.sealed;
        vbuf += k.vbuf;
        window += k.window;
        khost += k.hostNs;
        const std::string p = "analytics." + name;
        layer_.put(p + ".host_s", static_cast<double>(k.hostNs) / 1e9, "s");
        layer_.put(p + ".sim_s", static_cast<double>(k.simNs) / 1e9, "s");
        layer_.put(p + ".rounds", static_cast<double>(k.rounds), "count");
        layer_.put(p + ".edges_scanned", static_cast<double>(k.edges),
                   "count");
        layer_.put(p + ".media_read_bytes", static_cast<double>(k.reads),
                   "B");
    }
    if (sum_reads != delta.mediaBytesRead)
        fail("per-kernel media reads " + std::to_string(sum_reads) +
             " != suite delta " + std::to_string(delta.mediaBytesRead));
    layer_.put("analytics.sealed_records", static_cast<double>(sealed),
               "count");
    layer_.put("analytics.vbuf_records", static_cast<double>(vbuf), "count");
    layer_.put("analytics.log_window_records", static_cast<double>(window),
               "count");
    layer_.put("analytics.host_ns_per_edge_scanned",
               edges ? static_cast<double>(khost) /
                           static_cast<double>(edges)
                     : 0.0,
               "ns/edge");
    checkAttribution("query");

    // Oracle: the same kernels on a CSR of the model (base + tail).
    Scope v(tracer_, "bench.verify", rootSpan_);
    std::vector<Edge> model;
    model.reserve(churnModel_.size() + queryTail_.size());
    for (uint64_t k : churnModel_)
        model.push_back({static_cast<vid_t>(k >> 32), static_cast<vid_t>(k)});
    model.insert(model.end(), queryTail_.begin(), queryTail_.end());
    CsrView csr(ds_.numVertices, model);
    for (size_t i = 0; i < suite.size(); ++i) {
        const AnalyticsResult want = suite[i].run(csr);
        const AnalyticsResult &got = results[i];
        // CC propagates labels in place, so its round count depends on
        // the neighbour visit order, which legitimately differs between
        // the store and the CSR; its labels (checksum) do not.
        const bool rounds_fixed = std::strcmp(suite[i].kernel, "cc") != 0;
        if (want.checksum != got.checksum || want.touched != got.touched ||
            (rounds_fixed && want.iterations != got.iterations)) {
            std::fprintf(stderr,
                         "xpbench: %s oracle mismatch: checksum %" PRIu64
                         "/%" PRIu64 " touched %" PRIu64 "/%" PRIu64
                         " iterations %" PRIu64 "/%" PRIu64 "\n",
                         suite[i].kernel, got.checksum, want.checksum,
                         got.touched, want.touched, got.iterations,
                         want.iterations);
            ++failed_;
        }
    }
}

void
Rep::crashRecover()
{
    Scope phase(tracer_, "phase.crash", rootSpan_, g_.get());
    const uint64_t phase_id = phase.id();
    if (spec_.compaction) {
        // Which chains the background compactor rewrote, and when,
        // depends on host timing, and recovery's replay dedup reads
        // those chains; a full compaction first makes the crash state
        // the same on every run.
        Scope s(tracer_, "core.compaction:compactAllAdjs", phase_id,
                g_.get());
        g_->compactAllAdjs();
    }
    {
        auto session = g_->session(0);
        for (const Op &op : crashPlan_.ops) {
            const Edge *b = crashPlan_.arena.data() + op.arg * kBatch;
            const bool del = op.kind == OpKind::Delete;
            Scope s(tracer_, del ? "core.log:delEdges" : "core.log:addEdges",
                    phase_id);
            if (del)
                session->delEdges(b, kBatch);
            else
                session->addEdges(b, kBatch);
        }
    }
    {
        Scope s(tracer_, "core.archive:bufferAllEdges", phase_id, g_.get());
        const uint64_t a0 = hostNs();
        g_->bufferAllEdges();
        archiveSyncNs_ += hostNs() - a0;
    }
    if (spec_.compaction) {
        Scope s(tracer_, "core.compaction:runCompactionPass", phase_id,
                g_.get());
        g_->runCompactionPass();
    }
    checkAttribution("crash tail");
    stats_ = g_->snapshotStats();
    bufferingHist_ =
        archivePhaseSum("archive.buffering_phase_ns", "buffering");
    flushingHist_ = archivePhaseSum("archive.flush_phase_ns", "flushing");
    pcm_ = g_->pmemCounters();
    attr_ = g_->pmemAttribution();
    codec_ = g_->compressionStats();
    mem_ = g_->memoryUsage();
    {
        Scope s(tracer_, "core.recovery:syncBackings", phase_id);
        g_->syncBackings();
    }
    phase.close();
    g_.reset(); // the crash: every DRAM structure is gone

    Scope rec(tracer_, "phase.recover", rootSpan_);
    RecoveryReport report;
    uint64_t dt = 0;
    {
        Scope s(tracer_, "core.recovery:recover", rec.id());
        const uint64_t r0 = hostNs();
        g_ = XPGraph::recover(config_, &report);
        dt = hostNs() - r0;
    }
    timedNs_ += dt;
    const uint64_t window = queryTail_.size() + crashPlan_.writeEdges;
    PcmCounters rec_pcm;
    uint64_t post = 0, wrong = 0;
    if (!g_ || !report.ok()) {
        // Nothing of the crash tail or the replay window is verified:
        // the recover call and every edge of the window count as failed.
        fail("recover() failed: " + report.error);
        failed_ += 1 + window;
        g_.reset();
    } else {
        rec_pcm = g_->pmemCounters();
        {
            Scope s(tracer_, "core.archive:archiveAll", rec.id(), g_.get());
            const uint64_t a0 = hostNs();
            g_->archiveAll();
            post = hostNs() - a0;
        }
        if (spec_.compaction) {
            Scope s(tracer_, "core.compaction:runCompactionPass", rec.id(),
                    g_.get());
            g_->runCompactionPass();
        }
        rec.close();
        checkAttribution("recovery");

        // Durability: the recovered live multiset against the model.
        Scope v(tracer_, "bench.verify", rootSpan_);
        std::vector<uint64_t> model;
        for (const Edge &e : gen_->live)
            model.push_back(edgeKey(e));
        for (const Edge &e : queryTail_)
            model.push_back(edgeKey(e));
        std::sort(model.begin(), model.end());
        const auto [lost, back] =
            multisetDiff(model, dumpLive(*g_, ds_.numVertices));
        wrong = lost + back;
        if (wrong != 0)
            std::fprintf(stderr,
                         "xpbench: recovery lost %" PRIu64
                         " and resurrected %" PRIu64 " edges\n",
                         lost, back);
        failed_ += wrong;
        pcm_ += g_->pmemCounters();
    }

    layer_.put("recovery_host_s", static_cast<double>(dt) / 1e9, "s");
    e2e_.put("recovery_sim_s", static_cast<double>(report.recoveryNs) / 1e9,
             "s");
    layer_.put("recovery.replay_window_edges", static_cast<double>(window),
               "count");
    layer_.put("recovery.edges_replayed",
               static_cast<double>(report.edgesReplayed), "count");
    layer_.put("recovery.edges_deduped",
               static_cast<double>(report.edgesDeduped), "count");
    layer_.put("recovery.sim_ns_per_replayed_edge",
               report.edgesReplayed
                   ? static_cast<double>(report.recoveryNs) /
                         static_cast<double>(report.edgesReplayed)
                   : 0.0,
               "ns/edge");
    layer_.put("recovery.media_read_bytes",
               static_cast<double>(rec_pcm.mediaBytesRead), "B");
    layer_.put("recovery.post_sync_host_s", static_cast<double>(post) / 1e9,
               "s");
    layer_.put("recovery.wrong_edges", static_cast<double>(wrong), "count");
}

int
Rep::run()
{
    threads_ = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    Scope root(tracer_, "run", 0);
    rootSpan_ = root.id();
    setup();
    std::printf("PLAN %" PRIu64 "\n", attempted_);
    std::fflush(stdout);
    ingest();
    churn();
    query();
    crashRecover();
    root.close();

    // The engine adds each archive phase's simulated time to its
    // counters and records it, separately, into a per-phase histogram;
    // over the first store's life the two must agree exactly.
    const uint64_t buffering_ns = stats_.bufferingNs - stats0_.bufferingNs;
    const uint64_t flushing_ns = stats_.flushingNs - stats0_.flushingNs;
    if (buffering_ns != bufferingHist_ - bufferingHist0_)
        fail("buffering phase histogram " +
             std::to_string(bufferingHist_ - bufferingHist0_) +
             " != bufferingNs delta " + std::to_string(buffering_ns));
    if (flushing_ns != flushingHist_ - flushingHist0_)
        fail("flush phase histogram " +
             std::to_string(flushingHist_ - flushingHist0_) +
             " != flushingNs delta " + std::to_string(flushing_ns));

    auto put = [&](const char *name, double v, const char *unit) {
        layer_.put(name, v, unit);
    };
    auto row = [&](telemetry::AccessCategory c) -> const PcmCounters & {
        return attr_[c].pcm;
    };
    using AC = telemetry::AccessCategory;
    std::vector<uint64_t> logv = logCallNs_;
    uint64_t log_total = 0;
    for (uint64_t x : logCallNs_)
        log_total += x;
    put("log.calls", static_cast<double>(logCallNs_.size()), "count");
    put("log.host_ns_p50", quantile(logv, 0.50), "ns");
    put("log.host_ns_p99", quantile(logv, 0.99), "ns");
    put("log.host_s", static_cast<double>(log_total) / 1e9, "s");
    put("log.sim_ns", static_cast<double>(stats_.loggingNs), "ns");
    put("log.media_write_bytes",
        static_cast<double>(row(AC::EdgeLogAppend).mediaBytesWritten), "B");
    put("archive.sync_host_s", static_cast<double>(archiveSyncNs_) / 1e9,
        "s");
    put("archive.buffering_sim_ns", static_cast<double>(buffering_ns), "ns");
    put("archive.flushing_sim_ns", static_cast<double>(flushing_ns), "ns");
    put("archive.buffering_phases",
        static_cast<double>(stats_.bufferingPhases), "count");
    put("archive.flush_all_phases", static_cast<double>(stats_.flushAllPhases),
        "count");
    put("archive.vbuf_flushes", static_cast<double>(stats_.vbufFlushes),
        "count");
    put("archive.media_write_bytes",
        static_cast<double>(row(AC::AdjacencyArchive).mediaBytesWritten), "B");
    put("archive.rmw_reads",
        static_cast<double>(attr_[AC::AdjacencyArchive].rmwReads), "count");
    put("meta.media_write_bytes",
        static_cast<double>(row(AC::VertexMeta).mediaBytesWritten +
                            row(AC::AllocatorMeta).mediaBytesWritten +
                            row(AC::Superblock).mediaBytesWritten),
        "B");
    put("codec.chunks_compressed", static_cast<double>(codec_.chunksCompressed),
        "count");
    put("codec.ratio", codec_.compressionRatio(), "x");
    put("codec.encoded_bytes", static_cast<double>(codec_.encodedBytes), "B");
    put("codec.decode_calls", static_cast<double>(codec_.decodeCalls),
        "count");
    put("codec.decoded_bytes",
        static_cast<double>(codec_.decodedRecords * sizeof(vid_t)), "B");
    put("codec.media_bytes",
        static_cast<double>(row(AC::AdjacencyCodec).mediaBytesRead +
                            row(AC::AdjacencyCodec).mediaBytesWritten),
        "B");
    put("mempool.vbuf_peak_bytes", static_cast<double>(mem_.vbufBytes), "B");
    put("mempool.meta_bytes", static_cast<double>(mem_.metaBytes), "B");
    put("pmem.media_read_ops", static_cast<double>(pcm_.mediaReadOps),
        "count");
    put("pmem.media_write_ops", static_cast<double>(pcm_.mediaWriteOps),
        "count");
    put("pmem.media_read_bytes", static_cast<double>(pcm_.mediaBytesRead), "B");
    put("pmem.media_write_bytes", static_cast<double>(pcm_.mediaBytesWritten),
        "B");
    put("pmem.xpbuffer_hit_ratio",
        static_cast<double>(pcm_.bufferHits) /
            static_cast<double>(std::max<uint64_t>(
                1, pcm_.bufferHits + pcm_.mediaReadOps + pcm_.mediaWriteOps)),
        "ratio");
    put("pmem.remote_accesses", static_cast<double>(pcm_.remoteAccesses),
        "count");
    std::vector<uint64_t> vo = viewOpenNs_;
    put("view.opens", static_cast<double>(viewOpenNs_.size()), "count");
    put("view.open_host_ns_p50", quantile(vo, 0.50), "ns");
    put("view.open_host_ns_p99", quantile(vo, 0.99), "ns");
    put("compaction.passes", static_cast<double>(stats_.compactionPasses),
        "count");
    put("compaction.slots", static_cast<double>(stats_.compactionSlots),
        "count");
    put("compaction.bytes_reclaimed",
        static_cast<double>(stats_.compactionBytesReclaimed), "B");
    put("compaction.records_dropped",
        static_cast<double>(stats_.compactionRecordsDropped), "count");
    put("compaction.media_write_bytes",
        static_cast<double>(row(AC::Compaction).mediaBytesWritten), "B");

    if (tracer_.enabled()) {
        std::printf("per-layer spans (%s, seed %" PRIu64 "):\n", spec_.name,
                    args_.seed);
        std::printf("  %-36s %8s %10s %10s %14s %14s\n", "span", "count",
                    "host_s", "self_s", "media_rd_B", "media_wr_B");
        for (const auto &[name, r] : tracer_.layerTable()) {
            if (r.hasCounters)
                std::printf("  %-36s %8" PRIu64 " %10.4f %10.4f %14" PRIu64
                            " %14" PRIu64 "\n",
                            name.c_str(), r.count, r.hostNs / 1e9,
                            r.selfNs / 1e9, r.mediaReadBytes,
                            r.mediaWriteBytes);
            else
                std::printf("  %-36s %8" PRIu64 " %10.4f %10.4f %14s %14s\n",
                            name.c_str(), r.count, r.hostNs / 1e9,
                            r.selfNs / 1e9, "-", "-");
        }
        std::printf("  (host time inside the engine's background archiver "
                    "and compactor threads is not visible from outside the "
                    "library; concurrent client spans carry no counter "
                    "deltas)\n");
        if (!tracer_.writeSpans(args_.runDir + "/spans.json"))
            std::fprintf(stderr, "xpbench: cannot write spans\n");
    }

    std::printf("{\"workload\": \"%s\", \"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"timed_host_s\": %.9f, "
                "\"e2e\": %s, \"layer\": %s}\n",
                spec_.name, correct_ ? "true" : "false", attempted_, failed_,
                static_cast<double>(timedNs_) / 1e9, e2e_.json().c_str(),
                layer_.json().c_str());
    std::fflush(stdout);
    return correct_ ? 0 : 3;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr, "usage: xpbench --workload NAME --seed N "
                             "--run-dir DIR [--trace 0|1] "
                             "[--scale-delta K]\n");
        return 2;
    }
    for (const Spec &spec : kSpecs)
        if (args.workload == spec.name)
            return Rep(spec, args).run();
    std::fprintf(stderr, "xpbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
}
