#include "telemetry/attribution.hpp"

#include <algorithm>
#include <mutex>

namespace xpg::telemetry {

const char *
accessCategoryName(AccessCategory c)
{
    switch (c) {
    case AccessCategory::EdgeLogAppend:
        return "edge_log_append";
    case AccessCategory::AdjacencyArchive:
        return "adjacency_archive";
    case AccessCategory::VertexMeta:
        return "vertex_meta";
    case AccessCategory::AllocatorMeta:
        return "allocator_meta";
    case AccessCategory::Superblock:
        return "superblock";
    case AccessCategory::QueryRead:
        return "query_read";
    case AccessCategory::RecoveryReplay:
        return "recovery_replay";
    case AccessCategory::AdjacencyCodec:
        return "adjacency_codec";
    case AccessCategory::Compaction:
        return "compaction";
    case AccessCategory::Other:
        return "other";
    }
    return "other";
}

const std::array<AccessCategory, kAccessCategoryCount> &
allAccessCategories()
{
    static const std::array<AccessCategory, kAccessCategoryCount> cats = {
        AccessCategory::EdgeLogAppend,    AccessCategory::AdjacencyArchive,
        AccessCategory::VertexMeta,       AccessCategory::AllocatorMeta,
        AccessCategory::Superblock,       AccessCategory::QueryRead,
        AccessCategory::RecoveryReplay,   AccessCategory::AdjacencyCodec,
        AccessCategory::Compaction,       AccessCategory::Other,
    };
    return cats;
}

json::JsonValue
AttributionRow::toJson() const
{
    json::JsonValue v = pcm.toJson();
    v.set("rmw_reads", rmwReads);
    v.set("sub_line_stores", subLineStores);
    return v;
}

PcmCounters
AttributionSnapshot::total() const
{
    PcmCounters t;
    for (const AttributionRow &row : rows)
        t += row.pcm;
    return t;
}

json::JsonValue
AttributionSnapshot::toJson() const
{
    json::JsonValue v = json::JsonValue::object();
    for (const AccessCategory c : allAccessCategories()) {
        const AttributionRow &row = (*this)[c];
        if (row.empty())
            continue;
        v.set(accessCategoryName(c), row.toJson());
    }
    return v;
}

AttributionSnapshot
AttributionTable::snapshot() const
{
    AttributionSnapshot s;
    for (unsigned c = 0; c < kAccessCategoryCount; ++c) {
        AttributionRow &row = s.rows[c];
        const auto field = [&](AttrField f) {
            return cells_[c][static_cast<unsigned>(f)].load(
                std::memory_order_relaxed);
        };
        row.pcm.appBytesRead = field(AttrField::AppBytesRead);
        row.pcm.appBytesWritten = field(AttrField::AppBytesWritten);
        row.pcm.mediaBytesRead = field(AttrField::MediaBytesRead);
        row.pcm.mediaBytesWritten = field(AttrField::MediaBytesWritten);
        row.pcm.mediaReadOps = field(AttrField::MediaReadOps);
        row.pcm.mediaWriteOps = field(AttrField::MediaWriteOps);
        row.pcm.bufferHits = field(AttrField::BufferHits);
        row.pcm.remoteAccesses = field(AttrField::RemoteAccesses);
        row.rmwReads = field(AttrField::RmwReads);
        row.subLineStores = field(AttrField::SubLineStores);
    }
    return s;
}

void
AttributionTable::reset()
{
    for (auto &row : cells_)
        for (auto &cell : row)
            cell.store(0, std::memory_order_relaxed);
}

LineHeatTable::LineHeatTable(unsigned capacity)
    : perShardCapacity_(std::max(1u, capacity / kShards))
{
}

void
LineHeatTable::touchSlow(uint64_t line, AccessCategory cat, bool is_write)
{
    Shard &shard = shards_[line % kShards];
    std::lock_guard<SpinLock> guard(shard.lock);
    auto it = shard.map.find(line);
    if (it == shard.map.end()) {
        if (shard.map.size() >= perShardCapacity_) {
            untracked_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        it = shard.map.emplace(line, Slot{}).first;
    }
    Slot &slot = it->second;
    if (is_write)
        ++slot.writes;
    else
        ++slot.reads;
    ++slot.byCat[static_cast<unsigned>(cat)];
}

std::vector<LineHeatTable::HotLine>
LineHeatTable::top(unsigned n) const
{
    std::vector<HotLine> all;
    for (const Shard &shard : shards_) {
        std::lock_guard<SpinLock> guard(shard.lock);
        for (const auto &[line, slot] : shard.map) {
            HotLine h;
            h.line = line;
            h.reads = slot.reads;
            h.writes = slot.writes;
            unsigned best = static_cast<unsigned>(AccessCategory::Other);
            uint32_t best_hits = 0;
            for (unsigned c = 0; c < kAccessCategoryCount; ++c) {
                if (slot.byCat[c] > best_hits) {
                    best_hits = slot.byCat[c];
                    best = c;
                }
            }
            h.owner = static_cast<AccessCategory>(best);
            all.push_back(h);
        }
    }
    std::sort(all.begin(), all.end(),
              [](const HotLine &a, const HotLine &b) {
                  const uint64_t ta = a.reads + a.writes;
                  const uint64_t tb = b.reads + b.writes;
                  if (ta != tb)
                      return ta > tb;
                  return a.line < b.line;
              });
    if (all.size() > n)
        all.resize(n);
    return all;
}

uint64_t
LineHeatTable::trackedLines() const
{
    uint64_t tracked = 0;
    for (const Shard &shard : shards_) {
        std::lock_guard<SpinLock> guard(shard.lock);
        tracked += shard.map.size();
    }
    return tracked;
}

uint64_t
LineHeatTable::untrackedTouches() const
{
    return untracked_.load(std::memory_order_relaxed);
}

void
LineHeatTable::reset()
{
    for (Shard &shard : shards_) {
        std::lock_guard<SpinLock> guard(shard.lock);
        shard.map.clear();
    }
    untracked_.store(0, std::memory_order_relaxed);
}

json::JsonValue
LineHeatTable::topJson(unsigned n) const
{
    json::JsonValue arr = json::JsonValue::array();
    for (const HotLine &h : top(n)) {
        json::JsonValue e = json::JsonValue::object();
        e.set("line", h.line);
        e.set("reads", h.reads);
        e.set("writes", h.writes);
        e.set("owner", accessCategoryName(h.owner));
        arr.push(std::move(e));
    }
    return arr;
}

} // namespace xpg::telemetry
