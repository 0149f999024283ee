/**
 * @file
 * The per-cell result cache's entry codec and content digest.
 *
 * Every grid cell is a pure function of (benchmark, config provenance,
 * seed, instruction scale), so its merged MetricsRecord can be cached
 * on disk and replayed byte-identically instead of re-simulated. The
 * cache key is a digest over exactly the provenance subset results_io
 * embeds in every exported record (seed included, execution-only knobs
 * excluded) plus the global instruction scale and the cache format
 * version. Naming, reading, verifying, counting and writing entries is
 * the shared content-addressed store's job (sim/store.hh, resultStore());
 * this file only codes the entries.
 *
 * An entry is a binary record (VPRZ kind "result", written
 * uncompressed: about 14 KB for a paper cell, see sim/store.hh for
 * why). Format 2:
 *
 *   varint format version, u64 digest, varint length + benchmark
 *   varint length + schema section:
 *     varint description count, per description: varint length + text
 *     varint metric count, per metric: varint length shared with the
 *       previous name, varint length + rest of the name, u8 kind
 *       (0 counter, 1 real), varint description index
 *   one little-endian u64 per metric: counters as is, reals as raw
 *   IEEE-754 bits (so a replayed record renders byte-identically to a
 *   cold run in every exporter)
 *
 * A process keeps a small bounded, thread-safe memo of the schemas its
 * loads have decoded, keyed by the schema bytes: after the first entry
 * of a schema, a load interns nothing: it copies the schema's prototype
 * record and writes each value into it by position. Every
 * load re-verifies the entry structure, digest and benchmark; any
 * damage is corrupt + miss — the cell is re-simulated and the file
 * repaired, never a wrong row. The format version is part of the
 * digest, so entries of an older format are never opened: they are
 * plain misses under a different file name, and cache_gc ages them
 * out. The VPRZ container version is not in the digest: format-2
 * entries that earlier builds saved in deflated version-1 containers
 * keep their names and still hit.
 *
 * The cache is wired into the parallel experiment engine: any grid run
 * — bench binaries and vpr_sim sweeps — with sim.result_cache.dir set
 * serves previously computed cells from disk.
 * Cells with a custom stream factory are never cached (their workload
 * is not covered by the provenance digest).
 */

#ifndef VPR_SIM_RESULT_CACHE_HH
#define VPR_SIM_RESULT_CACHE_HH

#include <cstdint>
#include <string>

#include "sim/parallel_engine.hh"
#include "sim/store.hh"

namespace vpr
{

/** Bump to invalidate every cached result at the name level (the
 *  digest covers it) when the entry format changes. */
constexpr std::uint32_t kResultCacheFormatVersion = 2;

/** The result cache's traffic counters (resultStore().counters()). */
using ResultCacheCounters = StoreCounters;

ResultCacheCounters &resultCacheCounters();

/** The content digest of @p cell: provenance subset + benchmark +
 *  instruction scale + format version. Stable across processes. */
std::uint64_t resultCacheDigest(const GridCell &cell);

/**
 * Look up @p cell in the cache under @p dir. True and fills @p out on
 * a verified hit; false on a miss. A present-but-damaged entry (bad
 * container, checksum, digest or benchmark) counts as corrupt + miss —
 * the caller re-simulates and the re-save repairs the file.
 */
bool loadCachedResult(const std::string &dir, const GridCell &cell,
                      SimResults &out);

/** Publish @p results for @p cell (atomic write; racing same-digest
 *  writers are benign — identical content, last writer wins). Failures
 *  only warn: the cache is an optimization, never a correctness
 *  dependency. */
void storeCachedResult(const std::string &dir, const GridCell &cell,
                       const SimResults &results);

} // namespace vpr

#endif // VPR_SIM_RESULT_CACHE_HH
