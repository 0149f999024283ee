/**
 * @file
 * The content-addressed result cache end to end: digests must share
 * exactly when results are shareable (and never across configurations),
 * a cached sweep must be byte-identical to the cold run that populated
 * it for any worker count, and every damaged cache entry must fall back
 * to re-simulation with the same results — a bad cache file may cost
 * time, never a wrong row.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "../support/vprz_v1.hh"
#include "common/io/zio.hh"
#include "common/state.hh"
#include "sim/experiment.hh"
#include "sim/params.hh"
#include "sim/result_cache.hh"
#include "sim/results_io.hh"
#include "sim/sweep.hh"

namespace vpr
{
namespace
{

namespace fs = std::filesystem;

SimConfig
quick()
{
    SimConfig c = paperConfig();
    c.skipInsts = 2000;
    c.measureInsts = 20000;
    c.core.fetch.wrongPath = WrongPathMode::Stall;
    return c;
}

/** A fresh, empty cache directory under the test temp root. */
std::string
freshDir(const std::string &tag)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("vpr_rc_" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

std::size_t
countEntries(const std::string &dir)
{
    std::size_t n = 0;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".vprr")
            ++n;
    return n;
}

/** Snapshot of the process-wide counters (they are monotonic, so tests
 *  assert on deltas). */
struct CounterSnap
{
    std::uint64_t hits, misses, corrupt, stores;

    static CounterSnap
    now()
    {
        const ResultCacheCounters &c = resultCacheCounters();
        return {c.hits.load(), c.misses.load(), c.corrupt.load(),
                c.stores.load()};
    }
};

/** The sweep grid both the byte-identity and corruption tests run:
 *  one benchmark, three register-file sizes. */
std::vector<GridCell>
testGrid(const SimConfig &base)
{
    return buildSweepGrid(
        {"compress"}, base,
        {SweepAxis{"core.rename.regfile_size", {"48", "64", "96"}}});
}

std::string
renderCsv(const std::vector<GridCell> &cells,
          const std::vector<SimResults> &results)
{
    std::vector<std::size_t> indices(cells.size());
    for (std::size_t i = 0; i < indices.size(); ++i)
        indices[i] = i;
    std::ostringstream os;
    writeResultsCsv(os, "result-cache-test", ShardSpec{}, indices, cells,
                    results);
    return os.str();
}

TEST(ResultCacheDigest, StableAndDiscriminating)
{
    const GridCell cell{"go", quick()};
    EXPECT_EQ(resultCacheDigest(cell), resultCacheDigest(cell));

    // Any provenance parameter or the benchmark changes the key...
    GridCell otherBench = cell;
    otherBench.benchmark = "compress";
    EXPECT_NE(resultCacheDigest(cell), resultCacheDigest(otherBench));

    GridCell otherSeed = cell;
    otherSeed.config.seed = 7;
    EXPECT_NE(resultCacheDigest(cell), resultCacheDigest(otherSeed));

    GridCell otherRegs = cell;
    otherRegs.config.setPhysRegs(96, -1);
    EXPECT_NE(resultCacheDigest(cell), resultCacheDigest(otherRegs));

    // ...while execution-only knobs must not: how a grid is run (or
    // where its caches live) is not part of what was computed.
    GridCell otherJobs = cell;
    otherJobs.config.jobs = 8;
    EXPECT_EQ(resultCacheDigest(cell), resultCacheDigest(otherJobs));

    GridCell otherCacheCfg = cell;
    otherCacheCfg.config.resultCache.dir = "/somewhere/else";
    otherCacheCfg.config.resultCache.save = false;
    EXPECT_EQ(resultCacheDigest(cell), resultCacheDigest(otherCacheCfg));
}

TEST(ResultCache, MissThenHitRoundTrip)
{
    const std::string dir = freshDir("roundtrip");
    SimConfig config = quick();
    config.resultCache.dir = dir;
    const GridCell cell{"go", config};

    const CounterSnap before = CounterSnap::now();
    SimResults out;
    EXPECT_FALSE(loadCachedResult(dir, cell, out));
    EXPECT_EQ(CounterSnap::now().misses, before.misses + 1);

    const SimResults cold = runOne(cell.benchmark, cell.config);
    storeCachedResult(dir, cell, cold);
    EXPECT_EQ(CounterSnap::now().stores, before.stores + 1);
    EXPECT_TRUE(fs::exists(
        resultStore().path(dir, cell.benchmark, resultCacheDigest(cell))));

    ASSERT_TRUE(loadCachedResult(dir, cell, out));
    EXPECT_EQ(CounterSnap::now().hits, before.hits + 1);
    ASSERT_TRUE(cold.metrics.sameSchema(out.metrics));
    for (std::size_t i = 0; i < cold.metrics.all().size(); ++i)
        EXPECT_EQ(cold.metrics.all()[i].text(),
                  out.metrics.all()[i].text())
            << cold.metrics.all()[i].name();

    // A different cell must not see this entry.
    GridCell other = cell;
    other.config.seed = 3;
    EXPECT_FALSE(loadCachedResult(dir, other, out));
}

TEST(ResultCache, CachedSweepIsByteIdenticalForAnyJobs)
{
    const std::string dir = freshDir("sweep");

    // Cold, uncached reference run.
    const std::vector<GridCell> plain = testGrid(quick());
    const std::string reference = renderCsv(plain, runGrid(plain, 1));

    // Cold run that populates the cache: identical bytes already.
    SimConfig cached = quick();
    cached.resultCache.dir = dir;
    const std::vector<GridCell> cells = testGrid(cached);
    const CounterSnap before = CounterSnap::now();
    EXPECT_EQ(renderCsv(cells, runGrid(cells, 1)), reference);
    EXPECT_EQ(CounterSnap::now().misses, before.misses + cells.size());
    EXPECT_EQ(CounterSnap::now().stores, before.stores + cells.size());
    EXPECT_EQ(countEntries(dir), cells.size());

    // Warm runs: every cell served from disk, for any worker count.
    for (unsigned jobs : {1u, 2u, 3u}) {
        const CounterSnap warm = CounterSnap::now();
        EXPECT_EQ(renderCsv(cells, runGrid(cells, jobs)), reference)
            << "jobs=" << jobs;
        EXPECT_EQ(CounterSnap::now().hits, warm.hits + cells.size());
        EXPECT_EQ(CounterSnap::now().misses, warm.misses);
    }
}

TEST(ResultCache, CorruptEntriesFallBackAndRepair)
{
    const std::string dir = freshDir("corrupt");
    SimConfig config = quick();
    config.resultCache.dir = dir;
    const std::vector<GridCell> cells = buildSweepGrid(
        {"compress", "go"}, config,
        {SweepAxis{"core.rename.regfile_size", {"48", "64", "96"}}});
    const std::vector<SimResults> cold = runGrid(cells, 1);
    const std::string reference = renderCsv(cells, cold);
    ASSERT_EQ(countEntries(dir), cells.size());

    // Damage every entry a different way: truncation, garbage, and a
    // flipped payload byte (caught by the container checksum).
    std::vector<std::string> paths;
    for (const GridCell &cell : cells)
        paths.push_back(resultStore().path(dir, cell.benchmark,
                                        resultCacheDigest(cell)));
    std::string bytes;
    ASSERT_TRUE(readFileBytes(paths[0], bytes));
    ASSERT_TRUE(
        writeFileAtomic(paths[0], bytes.substr(0, bytes.size() / 2)));
    ASSERT_TRUE(writeFileAtomic(paths[1], "not a container at all"));
    ASSERT_TRUE(readFileBytes(paths[2], bytes));
    bytes[bytes.size() - 3] ^= 0x20;
    ASSERT_TRUE(writeFileAtomic(paths[2], bytes));

    // A byte dropped inside the schema section (a description's text),
    // re-packed under a valid checksum: the entry's own structure must
    // reject it.
    ASSERT_TRUE(readFileBytes(paths[3], bytes));
    std::string payload = vprzUnpack(bytes, "result");
    const std::string desc = cold[3].metrics.all().front().desc();
    ASSERT_FALSE(desc.empty());
    const std::size_t at = payload.find(desc);
    ASSERT_NE(at, std::string::npos);
    payload.erase(at + desc.size() / 2, 1);
    ASSERT_TRUE(writeFileAtomic(paths[3], vprzPack(payload, "result")));

    // A flipped byte inside the value section (the payload's tail) under
    // the original checksum: bit rot only the checksum can see.
    ASSERT_TRUE(readFileBytes(paths[4], bytes));
    payload = vprzUnpack(bytes, "result");
    payload[payload.size() - 4] ^= 0x01;
    std::string rotten = vprzPack(payload, "result");
    rotten.replace(rotten.size() - 8, 8, bytes.substr(bytes.size() - 8));
    ASSERT_TRUE(writeFileAtomic(paths[4], rotten));

    // A flipped high byte of the container's raw-size field: must be a
    // miss, not an allocation of ~2^62 bytes.
    ASSERT_TRUE(readFileBytes(paths[5], bytes));
    bytes[4 + 1 + 1 + 2 + std::string("result").size() + 7] ^= 0x40;
    ASSERT_TRUE(writeFileAtomic(paths[5], bytes));

    // The damaged entries cost a re-simulation, never a wrong row, and
    // the re-save repairs them in place.
    const CounterSnap before = CounterSnap::now();
    EXPECT_EQ(renderCsv(cells, runGrid(cells, 1)), reference);
    EXPECT_EQ(CounterSnap::now().corrupt, before.corrupt + cells.size());
    EXPECT_EQ(CounterSnap::now().misses, before.misses + cells.size());
    EXPECT_EQ(CounterSnap::now().stores, before.stores + cells.size());

    const CounterSnap after = CounterSnap::now();
    EXPECT_EQ(renderCsv(cells, runGrid(cells, 1)), reference);
    EXPECT_EQ(CounterSnap::now().hits, after.hits + cells.size());
    EXPECT_EQ(CounterSnap::now().corrupt, after.corrupt);
}

TEST(ResultCache, Version1EntriesServeEveryCell)
{
    // A cache filled before containers moved to version 2 holds
    // deflated entries checksummed with FNV-1a. They keep their names
    // (the entry format and digest did not change) and must serve every
    // cell: no miss, no corrupt entry, byte-identical records.
    const std::string dir = freshDir("v1_container");
    SimConfig config = quick();
    config.resultCache.dir = dir;
    const std::vector<GridCell> cells = buildSweepGrid(
        {"compress", "go"}, config,
        {SweepAxis{"core.rename.regfile_size", {"48", "64", "96"}}});
    const std::string reference = renderCsv(cells, runGrid(cells, 1));
    for (const GridCell &cell : cells) {
        const std::string path =
            resultStore().path(dir, cell.benchmark, resultCacheDigest(cell));
        std::string bytes;
        ASSERT_TRUE(readFileBytes(path, bytes));
        ASSERT_TRUE(writeFileAtomic(
            path, testsupport::packVprzVersion1(vprzUnpack(bytes, "result"),
                                                "result")));
    }

    const CounterSnap before = CounterSnap::now();
    EXPECT_EQ(renderCsv(cells, runGrid(cells, 2)), reference);
    const CounterSnap after = CounterSnap::now();
    EXPECT_EQ(after.hits - before.hits, cells.size());
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.corrupt, before.corrupt);
    EXPECT_EQ(after.stores, before.stores);
    fs::remove_all(dir);
}

TEST(ResultCache, AllSchemesDetailedAndSampledReplayByteIdentically)
{
    // Detailed and sampled records have different metric schemas; both
    // kinds share one directory and, at four workers, are decoded
    // concurrently through the process-wide schema memo.
    const std::string dir = freshDir("schemes");
    std::vector<GridCell> cells;
    for (RenameScheme scheme :
         {RenameScheme::Conventional, RenameScheme::ConventionalEarlyRelease,
          RenameScheme::VPAllocAtWriteback, RenameScheme::VPAllocAtIssue})
        for (bool sampled : {false, true}) {
            SimConfig c = quick();
            c.setScheme(scheme);
            c.sampling.enable = sampled;
            c.sampling.periodInsts = 5000;
            c.sampling.warmupInsts = 500;
            c.sampling.detailedInsts = 1000;
            cells.push_back(GridCell{"compress", c});
        }
    // One CSV per schema (the writer requires a shared schema).
    auto render = [&cells](const std::vector<SimResults> &results) {
        std::vector<std::string> csv;
        for (bool sampled : {false, true}) {
            std::vector<GridCell> part;
            std::vector<SimResults> partResults;
            for (std::size_t i = 0; i < cells.size(); ++i)
                if (cells[i].config.sampling.enable == sampled) {
                    part.push_back(cells[i]);
                    partResults.push_back(results[i]);
                }
            csv.push_back(renderCsv(part, partResults));
        }
        return csv;
    };

    const std::vector<SimResults> plain = runGrid(cells, 1);
    ASSERT_FALSE(plain[0].metrics.sameSchema(plain[1].metrics))
        << "detailed and sampled records should differ in schema";
    const std::vector<std::string> reference = render(plain);

    for (GridCell &cell : cells)
        cell.config.resultCache.dir = dir;
    EXPECT_EQ(render(runGrid(cells, 4)), reference);
    ASSERT_EQ(countEntries(dir), cells.size());
    for (unsigned jobs : {1u, 4u}) {
        const CounterSnap warm = CounterSnap::now();
        EXPECT_EQ(render(runGrid(cells, jobs)), reference)
            << "jobs=" << jobs;
        EXPECT_EQ(CounterSnap::now().hits, warm.hits + cells.size());
        EXPECT_EQ(CounterSnap::now().misses, warm.misses);
    }
}

/** resultCacheDigest's recipe with the format version as a parameter:
 *  the key a format-@p version build filed @p cell under. */
std::uint64_t
digestAtVersion(const GridCell &cell, std::uint64_t version)
{
    std::uint64_t h = fnv1a("result", 6);
    h = fnv1a(&version, sizeof(version), h);
    std::ostringstream scale;
    scale.precision(17);
    scale << instructionScale();
    const std::string scaleLine = "scale=" + scale.str() + "\n";
    h = fnv1a(scaleLine.data(), scaleLine.size(), h);
    for (const auto &[name, value] : configProvenance(cell.config)) {
        const std::string line = name + "=" + value + "\n";
        h = fnv1a(line.data(), line.size(), h);
    }
    return fnv1a(cell.benchmark.data(), cell.benchmark.size(), h);
}

TEST(ResultCache, LeftoverVersion1EntryIsAPlainMiss)
{
    const std::string dir = freshDir("v1");
    SimConfig config = quick();
    config.resultCache.dir = dir;
    const GridCell cell{"go", config};
    ASSERT_EQ(digestAtVersion(cell, kResultCacheFormatVersion),
              resultCacheDigest(cell));

    // A text entry as format 1 wrote it, under its format-1 key.
    const std::uint64_t v1 = digestAtVersion(cell, 1);
    ASSERT_NE(v1, resultCacheDigest(cell));
    std::ostringstream hex;
    hex << std::hex << std::setw(16) << std::setfill('0') << v1;
    const std::string v1Entry = vprzPack(
        "vpr-result v1\ndigest=" + hex.str() +
            "\nbenchmark=go\nmetrics=1\nU\tcore.cycles\t5\tcycles\n",
        "result");
    const std::string v1Path = resultStore().path(dir, "go", v1);
    ASSERT_TRUE(writeFileAtomic(v1Path, v1Entry));

    // The format version is in the digest, so the current build never
    // opens it: a plain miss, not a corrupt entry. It stays a cache
    // file for cache_gc to age out.
    CounterSnap before = CounterSnap::now();
    SimResults out;
    EXPECT_FALSE(loadCachedResult(dir, cell, out));
    EXPECT_EQ(CounterSnap::now().misses, before.misses + 1);
    EXPECT_EQ(CounterSnap::now().corrupt, before.corrupt);
    EXPECT_TRUE(fs::exists(v1Path));
    const std::vector<CacheFileInfo> files = listCacheFiles({dir});
    ASSERT_EQ(files.size(), 1u);
    EXPECT_EQ(files[0].path, v1Path);

    // The same bytes at the current key are refused as corrupt.
    ASSERT_TRUE(writeFileAtomic(
        resultStore().path(dir, "go", resultCacheDigest(cell)), v1Entry));
    before = CounterSnap::now();
    EXPECT_FALSE(loadCachedResult(dir, cell, out));
    EXPECT_EQ(CounterSnap::now().corrupt, before.corrupt + 1);
}

TEST(ResultCache, WrongDigestEntryIsRejected)
{
    // An entry renamed onto another cell's path (digest mismatch inside
    // the payload) must be treated as corrupt, not replayed.
    const std::string dir = freshDir("wrongdigest");
    SimConfig config = quick();
    config.resultCache.dir = dir;
    const GridCell cell{"go", config};
    storeCachedResult(dir, cell, runOne(cell.benchmark, cell.config));

    GridCell other = cell;
    other.config.seed = 9;
    const std::string from =
        resultStore().path(dir, cell.benchmark, resultCacheDigest(cell));
    const std::string to =
        resultStore().path(dir, other.benchmark, resultCacheDigest(other));
    fs::rename(from, to);

    const CounterSnap before = CounterSnap::now();
    SimResults out;
    EXPECT_FALSE(loadCachedResult(dir, other, out));
    EXPECT_EQ(CounterSnap::now().corrupt, before.corrupt + 1);
}

TEST(ResultCache, SaveOffReadsButNeverWrites)
{
    const std::string dir = freshDir("readonly");
    SimConfig config = quick();
    config.resultCache.dir = dir;
    const std::vector<GridCell> writer = testGrid(config);
    runGrid(writer, 1);
    ASSERT_EQ(countEntries(dir), writer.size());

    // save=0: a reader deployment (CI shards against a shared cache)
    // hits existing entries but adds nothing.
    SimConfig readOnly = config;
    readOnly.resultCache.save = false;
    readOnly.seed = 11;  // all-new cells
    const std::vector<GridCell> reader = testGrid(readOnly);
    const CounterSnap before = CounterSnap::now();
    runGrid(reader, 1);
    EXPECT_EQ(CounterSnap::now().misses, before.misses + reader.size());
    EXPECT_EQ(CounterSnap::now().stores, before.stores);
    EXPECT_EQ(countEntries(dir), writer.size());
}

/** Occurrences of @p needle in @p text. */
std::size_t
countOf(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1))
        ++n;
    return n;
}

TEST(ResultCache, UnwritableStoresWarnOncePerStore)
{
    // Both store directories sit under a regular file, so neither can
    // be created and every save fails. Each store reports that once
    // per process, not once per cell, and the records are those of a
    // run whose stores work and of a run with no stores. The cells are
    // sampled, so the checkpoint store is written too.
    const fs::path root = fs::path(freshDir("unwritable_stores"));
    const fs::path blocker = root / "notadir";
    writeFileAtomic(blocker.string(), "not a directory");
    SimConfig none = quick();
    none.sampling.enable = true;
    none.sampling.periodInsts = 5000;
    none.sampling.warmupInsts = 500;
    none.sampling.detailedInsts = 1000;
    SimConfig stores = none;
    stores.resultCache.dir = (blocker / "rc").string();
    stores.ckpt.dir = (blocker / "ck").string();
    const std::vector<GridCell> cells = testGrid(stores);

    ::testing::internal::CaptureStderr();
    const std::vector<SimResults> results = runGrid(cells, 2);
    const std::string err = ::testing::internal::GetCapturedStderr();

    const std::size_t rcWarnings =
        countOf(err, "cannot write result-cache entry");
    const std::size_t ckWarnings = countOf(err, "cannot write checkpoint");
    // Exactly one each when this test has the process to itself (ctest
    // runs each test alone); never more than one in any case.
    EXPECT_LE(rcWarnings, 1u) << err;
    EXPECT_LE(ckWarnings, 1u) << err;
    if (::testing::UnitTest::GetInstance()->test_to_run_count() == 1) {
        EXPECT_EQ(rcWarnings, 1u) << err;
        EXPECT_EQ(ckWarnings, 1u) << err;
    }
    SimConfig writable = none;
    writable.resultCache.dir = (root / "rc").string();
    writable.ckpt.dir = (root / "ck").string();
    const std::string csv = renderCsv(cells, results);
    EXPECT_EQ(csv, renderCsv(cells, runGrid(testGrid(writable), 2)));
    EXPECT_EQ(csv, renderCsv(cells, runGrid(testGrid(none), 2)));
    fs::remove_all(root);
}

TEST(ResultCacheGc, EvictsOldestUntilBudgetFits)
{
    const std::string dir = freshDir("gc");
    // Four 100-byte files with strictly increasing mtimes.
    std::vector<std::string> names = {"a.vprr", "b.vprck", "c.vprr",
                                      "d.vprr"};
    const auto base = fs::file_time_type::clock::now();
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string path = dir + "/" + names[i];
        ASSERT_TRUE(writeFileAtomic(path, std::string(100, 'x')));
        fs::last_write_time(path,
                            base - std::chrono::hours(names.size() - i));
    }
    // A non-cache file must be ignored entirely.
    ASSERT_TRUE(writeFileAtomic(dir + "/notes.txt",
                                std::string(1000, 'y')));

    const CacheGcPlan plan = planCacheGc({dir}, 250);
    EXPECT_EQ(plan.totalBytes, 400u);
    ASSERT_EQ(plan.evict.size(), 2u);  // oldest two of four
    EXPECT_EQ(plan.evictBytes, 200u);
    EXPECT_EQ(plan.keptFiles, 2u);
    EXPECT_EQ(fs::path(plan.evict[0].path).filename().string(),
              "a.vprr");
    EXPECT_EQ(fs::path(plan.evict[1].path).filename().string(),
              "b.vprck");

    EXPECT_EQ(applyCacheGc(plan), 2u);
    EXPECT_FALSE(fs::exists(dir + "/a.vprr"));
    EXPECT_TRUE(fs::exists(dir + "/c.vprr"));
    EXPECT_TRUE(fs::exists(dir + "/notes.txt"));

    // Under budget: nothing to do. Missing directory: skipped quietly.
    EXPECT_TRUE(planCacheGc({dir}, 1 << 20).evict.empty());
    EXPECT_TRUE(planCacheGc({dir + "/missing"}, 0).evict.empty());

    std::ostringstream os;
    printCacheGcPlan(os, plan, 250, /*dryRun=*/true);
    EXPECT_NE(os.str().find("would evict"), std::string::npos);
}

TEST(ResultCacheGc, ParseByteSize)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(parseByteSize("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseByteSize("1234", v));
    EXPECT_EQ(v, 1234u);
    EXPECT_TRUE(parseByteSize("4K", v));
    EXPECT_EQ(v, 4096u);
    EXPECT_TRUE(parseByteSize("2m", v));
    EXPECT_EQ(v, 2u << 20);
    EXPECT_TRUE(parseByteSize("3G", v));
    EXPECT_EQ(v, 3ull << 30);
    EXPECT_TRUE(parseByteSize("1T", v));
    EXPECT_EQ(v, 1ull << 40);
    EXPECT_FALSE(parseByteSize("", v));
    EXPECT_FALSE(parseByteSize("K", v));
    EXPECT_FALSE(parseByteSize("12Q", v));
    EXPECT_FALSE(parseByteSize("-5", v));
    EXPECT_FALSE(parseByteSize("999999999999999999G", v));
}

} // namespace
} // namespace vpr
