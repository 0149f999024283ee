/**
 * @file
 * The content-addressed on-disk stores: warm-state checkpoints
 * (sim.ckpt.dir, the functionally warmed state after a sampled run's
 * initial fast-forward) and the per-cell result cache
 * (sim.result_cache.dir, whole-cell records).
 *
 * An entry of either store is a pure function of a content digest. The
 * owner of a store computes the digest and codes the entry (the
 * simulator's warm key and checkpoint framing, result_cache.hh's
 * provenance key and record codec); this module does the rest, once
 * for both:
 *
 *  - naming: `<dir>/<benchmark>-<hex16 digest><extension>`;
 *  - reading: the file, read once into a buffer that is never
 *    zero-filled, then its VPRZ container of the store's kind, whose
 *    checksum is verified over the payload in place (no copy);
 *  - verifying: the owner's decoder throws CkptError on any damage. A
 *    damaged entry warns, counts as corrupt + miss, and the owner
 *    recomputes it; the re-save repairs the file;
 *  - counting: hits, misses, corrupt entries and stores, per store;
 *  - writing: a VPRZ container published by an atomic rename. A
 *    missing directory is created; a failed write warns once per
 *    process per store;
 *  - single flight: a Claim makes concurrent cells that want the same
 *    entry compute it once;
 *  - collecting: cache_gc's LRU walk over both stores' file extensions.
 *
 * Store directories hold only entry files: writes go through a temp
 * file renamed into place.
 *
 * Entries are written uncompressed (the VPRZ store codec), so a hit
 * costs one file read and one word-wise checksum pass: inflating and
 * byte-wise checksumming were most of a warm-cache regeneration's CPU.
 * The price is disk — a paper cell's result entry is about 14 KB
 * instead of 2-3 KB deflated (~5x), a checkpoint about 19 KB instead of
 * 2.4 KB (~8x) — so a cache_gc byte budget holds about a fifth as many
 * entries. Entries written deflated (and version-1 containers) by
 * earlier builds are still read.
 */

#ifndef VPR_SIM_STORE_HH
#define VPR_SIM_STORE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/io/zio.hh"
#include "common/state.hh"
#include "sim/config.hh"

namespace vpr
{

/**
 * One store's traffic counters (monotonic, thread-safe): grid workers
 * update them from any thread; the batch binaries print them at exit
 * (StoreReport) and the tests read them as before/after deltas.
 */
struct StoreCounters
{
    std::atomic<std::uint64_t> hits{0};     ///< entries served from disk
    std::atomic<std::uint64_t> misses{0};   ///< recomputed (no entry)
    std::atomic<std::uint64_t> corrupt{0};  ///< damaged entries discarded
    std::atomic<std::uint64_t> stores{0};   ///< entries written
};

/** One content-addressed store; see the file comment. */
class ContentStore
{
  public:
    /** What tells the stores apart: their names and file formats. */
    struct Kind
    {
        const char *label;      ///< exit-line prefix ("result cache")
        const char *entry;      ///< one entry in messages
        const char *extension;  ///< file extension (".vprr")
        const char *vprzKind;   ///< VPRZ payload kind ("result")
        const char *fallback;   ///< what a damaged entry costs
    };

    explicit ContentStore(const Kind &kind) : kind(kind) {}
    ContentStore(const ContentStore &) = delete;
    ContentStore &operator=(const ContentStore &) = delete;

    /** `<dir>/<benchmark>-<hex16 digest><extension>`. */
    std::string path(const std::string &dir, const std::string &benchmark,
                     std::uint64_t digest) const;

    /**
     * Look the entry up and hand its verified payload to
     * @p decode(std::string_view), which throws CkptError on damage. The
     * view points into the file's bytes as read (no copy) and is valid
     * only during the call. True on a decoded hit; false on a miss,
     * counting a damaged entry as corrupt + miss after one warning.
     */
    template <typename Decode>
    bool
    load(const std::string &dir, const std::string &benchmark,
         std::uint64_t digest, Decode &&decode)
    {
        const std::string file = path(dir, benchmark, digest);
        Fetched entry;
        if (!fetch(file, entry))
            return false;
        try {
            decode(entry.payload);
        } catch (const CkptError &e) {
            return damaged(file, e);
        }
        count.hits.fetch_add(1);
        return true;
    }

    /** Publish @p payload as the entry for (@p benchmark, @p digest).
     *  Racing same-digest writers are benign: identical content, last
     *  writer wins. A failure only warns: a store is an optimisation,
     *  never a correctness dependency. */
    void save(const std::string &dir, const std::string &benchmark,
              std::uint64_t digest, const std::string &payload);

    /**
     * Single flight for one entry: while a Claim is held, another Claim
     * on the same entry waits. A cell that would look an entry up and,
     * on a miss, compute and save it holds one over all three, so cells
     * that want the same entry at once compute it once — the others
     * then load what the first saved. Released on destruction, also
     * when the holder throws: the next waiter misses and takes over.
     * (In a directory that cannot be written, same-entry cells thus
     * compute one after another; the first failed save warns.)
     */
    class Claim
    {
      public:
        Claim(ContentStore &store, const std::string &dir,
              const std::string &benchmark, std::uint64_t digest);
        ~Claim();
        Claim(const Claim &) = delete;
        Claim &operator=(const Claim &) = delete;

      private:
        ContentStore &store;
        const std::string file;
    };

    StoreCounters &counters() { return count; }
    const char *extension() const { return kind.extension; }

    /** One line: "<label>: H hits, M misses, C corrupt, S stores". */
    std::string countersLine() const;

  private:
    /** One entry as read: its file bytes, an inflate buffer for
     *  containers written deflated, and the payload viewing either. */
    struct Fetched
    {
        FileBuffer raw;
        std::string inflated;
        std::string_view payload;
    };

    /** Read @p file and verify its container into @p entry; false
     *  (counted) on a miss or a damaged container. */
    bool fetch(const std::string &file, Fetched &entry);

    /** Warn about a damaged @p file; count corrupt + miss. False. */
    bool damaged(const std::string &file, const CkptError &e);

    const Kind kind;
    StoreCounters count;
    std::atomic<bool> writeWarned{false};
    /** Paths of the entries under a Claim, guarded by claimLock; a
     *  handful at most (one per worker), so a vector scan is the set. */
    std::vector<std::string> claimed;
    std::mutex claimLock;
    std::condition_variable claimReleased;
};

/** The warm-state checkpoint store (`*.vprck`). */
ContentStore &checkpointStore();

/** The per-cell result cache (`*.vprr`). */
ContentStore &resultStore();

/**
 * Prints the counters line of every store @p cfg enables to stderr when
 * it goes out of scope: "result cache: …" with sim.result_cache.dir
 * set, then "checkpoints: …" with sim.ckpt.dir set. A batch binary
 * holds one over its run; exits that skip destructors (fatal errors)
 * print nothing.
 */
class StoreReport
{
  public:
    explicit StoreReport(const SimConfig &cfg)
        : resultCache(!cfg.resultCache.dir.empty()),
          checkpoints(!cfg.ckpt.dir.empty())
    {}
    StoreReport(const StoreReport &) = delete;
    StoreReport &operator=(const StoreReport &) = delete;
    ~StoreReport();

  private:
    bool resultCache;
    bool checkpoints;
};

/** @name Store garbage collection (LRU on file mtime)
 *  Used by tools/cache_gc: enforce a byte budget over the entry files of
 *  both stores, evicting least-recently-touched files first. @{ */

/** One store file considered by the collector. */
struct CacheFileInfo
{
    std::string path;
    std::uint64_t sizeBytes = 0;
    /** Seconds-resolution modification time, Unix epoch (LRU key). */
    std::int64_t mtime = 0;
};

/** The collector's decision over a set of directories. */
struct CacheGcPlan
{
    std::vector<CacheFileInfo> evict;  ///< oldest-first eviction list
    std::uint64_t totalBytes = 0;      ///< store size before eviction
    std::uint64_t evictBytes = 0;      ///< bytes the plan frees
    std::size_t keptFiles = 0;         ///< files surviving the budget
};

/** Enumerate the entry files of either store in @p dirs. Missing or
 *  unreadable directories are skipped with a warning. */
std::vector<CacheFileInfo>
listCacheFiles(const std::vector<std::string> &dirs);

/** Plan evictions so the surviving files fit @p budgetBytes, evicting
 *  by ascending mtime (ties broken by path for determinism). */
CacheGcPlan planCacheGc(const std::vector<std::string> &dirs,
                        std::uint64_t budgetBytes);

/** Delete the planned files; returns how many were removed (a file
 *  vanishing concurrently is not an error). */
std::size_t applyCacheGc(const CacheGcPlan &plan);

/** Human-readable plan listing (one line per eviction + a summary),
 *  printed by cache_gc. */
void printCacheGcPlan(std::ostream &os, const CacheGcPlan &plan,
                      std::uint64_t budgetBytes, bool dryRun);

/** Strictly parse a byte-size budget: a non-negative integer with an
 *  optional K/M/G/T suffix (powers of 1024, case-insensitive), e.g.
 *  "500M". False on malformed input or overflow. */
bool parseByteSize(const std::string &text, std::uint64_t &bytes);

/** @} */

} // namespace vpr

#endif // VPR_SIM_STORE_HH
