/**
 * @file
 * Structured recovery outcome: typed status plus what recovery actually
 * found, repaired, truncated and leaked, instead of best-effort silence.
 *
 * The contract recovery guarantees is *prefix consistency*: the recovered
 * graph equals the acknowledged ingest stream with some suffix removed —
 * never a phantom edge, never a duplicated edge, never garbage replayed
 * into an adjacency list. The report quantifies the removed suffix and the
 * repairs that enforced it.
 */

#ifndef XPG_CORE_RECOVERY_HPP
#define XPG_CORE_RECOVERY_HPP

#include <cstdint>
#include <string>

#include "util/json_writer.hpp"

namespace xpg {

/** Why recover() refused (or how it succeeded). */
enum class RecoveryStatus
{
    Ok = 0,
    MissingBacking,    ///< no backing file for a partition device
    SuperblockCorrupt, ///< bad magic/version/checksum in the superblock
    ConfigMismatch,    ///< config fingerprint/geometry differs
    AllocatorCorrupt,  ///< persisted bump tail out of region
    LogCorrupt,        ///< no valid edge-log header copy
    CompactionTorn,    ///< crash mid-compaction; journal repaired it
                       ///  (a *success* status: ok() stays true)
};

const char *recoveryStatusName(RecoveryStatus status);

/** What recovery did; returned by XPGraph::recover(). */
struct RecoveryReport
{
    RecoveryStatus status = RecoveryStatus::Ok;
    /** Human-readable diagnostic when status != Ok. */
    std::string error;

    // --- replay (edges moved from the durable log window back into
    //     vertex buffers) ---
    uint64_t edgesReplayed = 0;   ///< re-inserted from [flushed, head)
    /** Window records already durable by position (the chains' window
     *  watermarks covered them); skipped, not re-inserted. */
    uint64_t edgesDeduped = 0;
    uint64_t logEdgesTruncated = 0; ///< published window cut at garbage
    uint64_t logEdgesSkipped = 0;   ///< invalid edges skipped in replay
    /** Torn/garbage log-header copies rejected for the other copy. */
    uint64_t logHeaderCopiesRejected = 0;

    // --- adjacency/index validation ---
    uint64_t blocksDropped = 0;     ///< torn/garbage blocks unlinked
    uint64_t recordsTruncated = 0;  ///< records rolled back to older commit
    uint64_t invalidIndexEntries = 0; ///< index heads reset to null
    uint64_t bytesLeaked = 0; ///< allocated-but-unreachable bytes (bump
                              ///  tail space abandoned by the crash)

    // --- compaction journal (DESIGN.md §13) ---
    /** Journal entries found armed: compactions the crash interrupted.
     *  Each was resolved to whichever chain (old or new) the index
     *  already points at — never a mix. */
    uint64_t compactionsInFlight = 0;
    /** Old-chain chunks a *committed* interrupted compaction had made
     *  unreachable (their bytes show up in bytesLeaked). */
    uint64_t chunksReclaimed = 0;

    uint64_t recoveryNs = 0; ///< simulated recovery time
    /** recoveryNs split by phase: rebuildNs + replayNs == recoveryNs. */
    uint64_t rebuildNs = 0; ///< chain validation + DRAM index rebuild
    uint64_t replayNs = 0;  ///< log-window replay into vertex buffers

    bool
    ok() const
    {
        return status == RecoveryStatus::Ok ||
               status == RecoveryStatus::CompactionTorn;
    }
    /** True when any repair (truncation/unlink/reset) was needed. */
    bool
    repaired() const
    {
        return logEdgesTruncated || logEdgesSkipped ||
               logHeaderCopiesRejected || blocksDropped ||
               recordsTruncated || invalidIndexEntries ||
               compactionsInFlight;
    }

    /**
     * Machine-readable form: every counter above plus status/ok/
     * repaired, schema "xpgraph-recovery-v1". Emitted by
     * `xpgraph_cli recover --json` and embedded in crash flight
     * records.
     */
    json::JsonValue toJson() const;
};

} // namespace xpg

#endif // XPG_CORE_RECOVERY_HPP
