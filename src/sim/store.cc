#include "sim/store.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <limits>
#include <ostream>

#include "common/io/zio.hh"
#include "common/logging.hh"
#include "sim/params.hh"

namespace vpr
{

namespace
{

/** Is @p ext the file extension of either store's entries? */
bool
isStoreEntry(const std::string &ext)
{
    for (const ContentStore *s : {&checkpointStore(), &resultStore()})
        if (ext == s->extension())
            return true;
    return false;
}

} // namespace

ContentStore &
checkpointStore()
{
    static ContentStore store({"checkpoints", "checkpoint", ".vprck", "ckpt",
                               "fast-forwarding cold"});
    return store;
}

ContentStore &
resultStore()
{
    static ContentStore store({"result cache", "result-cache entry", ".vprr",
                               "result", "re-simulating the cell"});
    return store;
}

std::string
ContentStore::path(const std::string &dir, const std::string &benchmark,
                   std::uint64_t digest) const
{
    static const char *hex = "0123456789abcdef";
    std::string out;
    out.reserve(dir.size() + benchmark.size() + 18 +
                std::char_traits<char>::length(kind.extension));
    out.append(dir).append("/").append(benchmark).append("-");
    for (int shift = 60; shift >= 0; shift -= 4)
        out += hex[(digest >> shift) & 0xf];
    return out.append(kind.extension);
}

bool
ContentStore::fetch(const std::string &file, Fetched &entry)
{
    if (!entry.raw.read(file)) {
        count.misses.fetch_add(1);
        return false;
    }
    try {
        entry.payload =
            vprzPayload(entry.raw.view(), kind.vprzKind, entry.inflated);
    } catch (const CkptError &e) {
        return damaged(file, e);
    }
    return true;
}

bool
ContentStore::damaged(const std::string &file, const CkptError &e)
{
    VPR_WARN("discarding damaged ", kind.entry, " '", file, "': ", e.what(),
             " (", kind.fallback, ")");
    count.corrupt.fetch_add(1);
    count.misses.fetch_add(1);
    return false;
}

void
ContentStore::save(const std::string &dir, const std::string &benchmark,
                   std::uint64_t digest, const std::string &payload)
{
    const std::string file = path(dir, benchmark, digest);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);  // the write reports
    // Stored, not deflated: a hit is then one read and one checksum
    // pass. Entries are about 5x larger (see the file comment).
    if (writeFileAtomic(file,
                        vprzPack(payload, kind.vprzKind, /*compress=*/false))) {
        count.stores.fetch_add(1);
        return;
    }
    // Every cell of a grid would otherwise print the same line.
    if (!writeWarned.exchange(true))
        VPR_WARN("cannot write ", kind.entry, " '", file,
                 "'; continuing without saving (further ", kind.entry,
                 " write failures in this process are not reported)");
}

ContentStore::Claim::Claim(ContentStore &store, const std::string &dir,
                           const std::string &benchmark,
                           std::uint64_t digest)
    : store(store), file(store.path(dir, benchmark, digest))
{
    std::unique_lock<std::mutex> lock(store.claimLock);
    store.claimReleased.wait(lock, [&] {
        return std::find(store.claimed.begin(), store.claimed.end(),
                         file) == store.claimed.end();
    });
    store.claimed.push_back(file);
}

ContentStore::Claim::~Claim()
{
    {
        std::lock_guard<std::mutex> lock(store.claimLock);
        store.claimed.erase(
            std::find(store.claimed.begin(), store.claimed.end(), file));
    }
    store.claimReleased.notify_all();
}

std::string
ContentStore::countersLine() const
{
    return std::string(kind.label) + ": " +
           std::to_string(count.hits.load()) + " hits, " +
           std::to_string(count.misses.load()) + " misses, " +
           std::to_string(count.corrupt.load()) + " corrupt, " +
           std::to_string(count.stores.load()) + " stores\n";
}

StoreReport::~StoreReport()
{
    if (resultCache)
        std::cerr << resultStore().countersLine();
    if (checkpoints)
        std::cerr << checkpointStore().countersLine();
}

std::vector<CacheFileInfo>
listCacheFiles(const std::vector<std::string> &dirs)
{
    namespace fs = std::filesystem;
    // file_clock's epoch is implementation-defined (not 1970 on
    // libstdc++); rebase through "now" on both clocks so mtime reads
    // as Unix seconds. One shared offset keeps the LRU order exact.
    const auto fileNow = fs::file_time_type::clock::now();
    const auto sysNow = std::chrono::system_clock::now();
    std::vector<CacheFileInfo> files;
    for (const std::string &dir : dirs) {
        if (dir.empty())
            continue;
        std::error_code ec;
        fs::directory_iterator it(dir, ec);
        if (ec) {
            VPR_WARN("cache GC: cannot list '", dir, "': ",
                     ec.message());
            continue;
        }
        for (const fs::directory_entry &entry : it) {
            if (!isStoreEntry(entry.path().extension().string()))
                continue;
            if (!entry.is_regular_file(ec) || ec)
                continue;
            CacheFileInfo info;
            info.path = entry.path().string();
            info.sizeBytes = entry.file_size(ec);
            if (ec)
                continue;
            const auto mtime = entry.last_write_time(ec);
            if (ec)
                continue;
            info.mtime =
                std::chrono::duration_cast<std::chrono::seconds>(
                    (mtime - fileNow) + sysNow.time_since_epoch())
                    .count();
            files.push_back(std::move(info));
        }
    }
    return files;
}

CacheGcPlan
planCacheGc(const std::vector<std::string> &dirs,
            std::uint64_t budgetBytes)
{
    std::vector<CacheFileInfo> files = listCacheFiles(dirs);
    // Oldest first; path tiebreak keeps the plan deterministic when a
    // burst of grid cells lands inside one mtime granule.
    std::sort(files.begin(), files.end(),
              [](const CacheFileInfo &a, const CacheFileInfo &b) {
                  return a.mtime != b.mtime ? a.mtime < b.mtime
                                            : a.path < b.path;
              });
    CacheGcPlan plan;
    for (const CacheFileInfo &f : files)
        plan.totalBytes += f.sizeBytes;

    std::uint64_t remaining = plan.totalBytes;
    for (const CacheFileInfo &f : files) {
        if (remaining <= budgetBytes) {
            ++plan.keptFiles;
            continue;
        }
        remaining -= f.sizeBytes;
        plan.evictBytes += f.sizeBytes;
        plan.evict.push_back(f);
    }
    return plan;
}

std::size_t
applyCacheGc(const CacheGcPlan &plan)
{
    std::size_t removed = 0;
    for (const CacheFileInfo &f : plan.evict) {
        std::error_code ec;
        if (std::filesystem::remove(f.path, ec) && !ec)
            ++removed;
    }
    return removed;
}

bool
parseByteSize(const std::string &text, std::uint64_t &bytes)
{
    if (text.empty())
        return false;
    std::uint64_t shift = 0;
    std::string digits = text;
    switch (text.back()) {
      case 'k': case 'K': shift = 10; break;
      case 'm': case 'M': shift = 20; break;
      case 'g': case 'G': shift = 30; break;
      case 't': case 'T': shift = 40; break;
      default: break;
    }
    if (shift)
        digits.pop_back();
    std::uint64_t value = 0;
    if (!parseParamU64(digits, value))
        return false;
    if (shift && value > (std::numeric_limits<std::uint64_t>::max() >>
                          shift))
        return false;
    bytes = value << shift;
    return true;
}

void
printCacheGcPlan(std::ostream &os, const CacheGcPlan &plan,
                 std::uint64_t budgetBytes, bool dryRun)
{
    for (const CacheFileInfo &f : plan.evict)
        os << (dryRun ? "would evict " : "evict ") << f.path << " ("
           << f.sizeBytes << " bytes, mtime " << f.mtime << ")\n";
    os << "cache GC: " << plan.totalBytes << " bytes in "
       << (plan.keptFiles + plan.evict.size()) << " files, budget "
       << budgetBytes << " bytes: "
       << (dryRun ? "would evict " : "evicting ") << plan.evict.size()
       << " files (" << plan.evictBytes << " bytes), keeping "
       << plan.keptFiles << "\n";
}

} // namespace vpr
