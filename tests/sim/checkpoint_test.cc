/**
 * The warm-state checkpoint store end to end: content-addressed digests
 * must share exactly when the warm state is shareable, a restored
 * sampled run must be byte-identical to the cold run that produced the
 * checkpoint and to a run without a checkpoint directory, detailed runs
 * must never checkpoint, and every damaged file must fall back to a
 * cold fast-forward with the same results — a bad checkpoint may cost
 * time, never correctness.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../support/vprz_v1.hh"
#include "common/io/zio.hh"
#include "common/state.hh"
#include "sim/experiment.hh"
#include "sim/results_io.hh"
#include "sim/store.hh"
#include "trace/kernels/kernels.hh"

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
    c.core.fetch.wrongPath = WrongPathMode::Synthesize;
    return c;
}

SimConfig
sampledQuick()
{
    SimConfig c = quick();
    c.sampling.enable = true;
    c.sampling.periodInsts = 5000;
    c.sampling.warmupInsts = 500;
    c.sampling.detailedInsts = 1000;
    return c;
}

/** A fresh, empty checkpoint directory under the test temp root. */
std::string
freshDir(const std::string &tag)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("vpr_ckpt_" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

std::size_t
countCheckpoints(const std::string &dir)
{
    std::size_t n = 0;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".vprck")
            ++n;
    return n;
}

/** Every exported metric of @p b must match @p a textually. */
void
expectIdenticalMetrics(const SimResults &a, const SimResults &b,
                       const std::string &label)
{
    ASSERT_TRUE(a.metrics.sameSchema(b.metrics)) << label;
    for (std::size_t i = 0; i < a.metrics.all().size(); ++i) {
        const Metric &ma = a.metrics.all()[i];
        const Metric &mb = b.metrics.all()[i];
        EXPECT_EQ(ma.text(), mb.text()) << label << ": " << ma.name();
    }
}

/** The checkpoint path the simulator will use for @p cfg. Only valid
 *  for cfg.seed == 0 (a non-zero master seed re-derives component
 *  seeds inside the Simulator before hashing). */
std::string
expectedPath(const SimConfig &cfg, const std::string &bench)
{
    const std::string identity =
        makeBenchmarkStream(bench, cfg.seed)->identity();
    return checkpointStore().path(
        cfg.ckpt.dir, bench, warmStateDigest(cfg, bench, identity));
}

/** The grid's records as exported CSV text. */
std::string
renderCsv(const std::vector<GridCell> &cells,
          const std::vector<SimResults> &results)
{
    std::vector<std::size_t> indices(cells.size());
    for (std::size_t i = 0; i < indices.size(); ++i)
        indices[i] = i;
    std::ostringstream os;
    writeResultsCsv(os, "checkpoint-test", ShardSpec{}, indices, cells,
                    results);
    return os.str();
}

/** Snapshot of the checkpoint store's counters (they are monotonic, so
 *  tests assert on deltas). */
struct CounterSnap
{
    std::uint64_t hits, misses, corrupt, stores;

    static CounterSnap
    now()
    {
        const StoreCounters &c = checkpointStore().counters();
        return {c.hits.load(), c.misses.load(), c.corrupt.load(),
                c.stores.load()};
    }
};

TEST(CheckpointDigest, StableAndScopeTagged)
{
    SimConfig c = sampledQuick();
    const std::string id = makeBenchmarkStream("vortex")->identity();
    const std::uint64_t f = warmStateDigest(c, "vortex", id);
    EXPECT_EQ(f, warmStateDigest(c, "vortex", id));
    // Different benchmark or stream content, different key.
    EXPECT_NE(f, warmStateDigest(c, "go", id));
    EXPECT_NE(f, warmStateDigest(c, "vortex", id + "x"));
    // The checkpoint file names the store's own kind, so a result-cache
    // entry of the same digest never collides with it.
    EXPECT_NE(checkpointStore().path("d", "vortex", f),
              resultStore().path("d", "vortex", f));
}

TEST(CheckpointDigest, FunctionalKeyIgnoresDetailedMicroarchitecture)
{
    // A functional fast-forward warms the trace position, BHT and
    // caches only — so the renaming scheme and regfile size must NOT
    // change the key: that is what lets a scheme x size sweep share one
    // checkpoint.
    SimConfig base = sampledQuick();
    const std::string id = makeBenchmarkStream("vortex")->identity();
    SimConfig other = base;
    other.setScheme(RenameScheme::VPAllocAtWriteback);
    other.core.rename.numPhysRegs = base.core.rename.numPhysRegs + 8;
    EXPECT_EQ(warmStateDigest(base, "vortex", id),
              warmStateDigest(other, "vortex", id));
}

TEST(CheckpointDigest, WarmRelevantKeysChangeTheKey)
{
    SimConfig base = sampledQuick();
    const std::string id = makeBenchmarkStream("vortex")->identity();
    SimConfig cache = base;
    cache.core.cache.sizeBytes *= 2;
    EXPECT_NE(warmStateDigest(base, "vortex", id),
              warmStateDigest(cache, "vortex", id))
        << "ignored cache geometry";
    SimConfig skip = base;
    skip.skipInsts = base.skipInsts * 2;
    EXPECT_NE(warmStateDigest(base, "vortex", id),
              warmStateDigest(skip, "vortex", id))
        << "ignored warm-up length";
    // The measurement (and its sampling geometry) begins after the
    // checkpoint: same key.
    SimConfig measure = base;
    measure.measureInsts = base.measureInsts * 2;
    measure.sampling.detailedInsts = base.sampling.detailedInsts * 2;
    EXPECT_EQ(warmStateDigest(base, "vortex", id),
              warmStateDigest(measure, "vortex", id));
}

TEST(CheckpointDigest, ExecOnlyCkptParamsDoNotChangeTheKey)
{
    // Where the store lives is execution plumbing, not warm state: the
    // digest (and the exported provenance) must not see sim.ckpt.*.
    SimConfig base = sampledQuick();
    const std::string id = makeBenchmarkStream("vortex")->identity();
    SimConfig other = base;
    other.ckpt.dir = "/somewhere/else";
    EXPECT_EQ(warmStateDigest(base, "vortex", id),
              warmStateDigest(other, "vortex", id));
}

class CheckpointPerScheme : public ::testing::TestWithParam<RenameScheme>
{
};

TEST_P(CheckpointPerScheme, RestoredRunIsByteIdenticalToCold)
{
    SimConfig c = sampledQuick();
    c.setScheme(GetParam());
    if (GetParam() == RenameScheme::ConventionalEarlyRelease)
        c.core.fetch.wrongPath = WrongPathMode::Stall;
    c.ckpt.dir = freshDir(
        std::string("scheme_") + renameSchemeName(GetParam()));

    const CounterSnap before = CounterSnap::now();
    auto cold = runOne("vortex", c);  // miss: fast-forwards, saves
    EXPECT_EQ(countCheckpoints(c.ckpt.dir), 1u);
    EXPECT_TRUE(fs::exists(expectedPath(c, "vortex")));

    auto restored = runOne("vortex", c);  // hit: loads the file
    EXPECT_EQ(countCheckpoints(c.ckpt.dir), 1u);
    const CounterSnap after = CounterSnap::now();
    EXPECT_EQ(after.misses, before.misses + 1);
    EXPECT_EQ(after.stores, before.stores + 1);
    EXPECT_EQ(after.hits, before.hits + 1);
    expectIdenticalMetrics(cold, restored,
                           std::string("restored vs cold: ") +
                               renameSchemeName(GetParam()));
    SimConfig plain = c;
    plain.ckpt.dir.clear();
    expectIdenticalMetrics(runOne("vortex", plain), restored,
                           std::string("restored vs no store: ") +
                               renameSchemeName(GetParam()));
    fs::remove_all(c.ckpt.dir);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, CheckpointPerScheme,
    ::testing::Values(RenameScheme::Conventional,
                      RenameScheme::ConventionalEarlyRelease,
                      RenameScheme::VPAllocAtWriteback,
                      RenameScheme::VPAllocAtIssue),
    [](const auto &info) {
        std::string s = renameSchemeName(info.param);
        for (auto &ch : s)
            if (ch == '-')
                ch = '_';
        return s;
    });

TEST(Checkpoint, SampledSweepSharesOneFunctionalCheckpoint)
{
    // The payoff case: a sampled scheme sweep's initial fast-forward is
    // identical across cells, so every cell addresses the SAME
    // functional checkpoint file — and because a functional reload
    // reconstructs exactly the post-fast-forward state, the results
    // also match a sweep that never used the cache at all.
    const std::string dir = freshDir("shared_func");
    std::vector<RenameScheme> schemes = {
        RenameScheme::Conventional, RenameScheme::VPAllocAtWriteback,
        RenameScheme::VPAllocAtIssue};
    for (RenameScheme scheme : schemes) {
        SimConfig plain = sampledQuick();
        plain.setScheme(scheme);
        SimConfig cached = plain;
        cached.ckpt.dir = dir;
        auto reference = runOne("vortex", plain);
        auto viaCache = runOne("vortex", cached);
        expectIdenticalMetrics(reference, viaCache,
                               std::string("sampled ckpt vs plain: ") +
                                   renameSchemeName(scheme));
        EXPECT_EQ(countCheckpoints(dir), 1u)
            << "scheme " << renameSchemeName(scheme)
            << " did not share the functional checkpoint";
    }
    fs::remove_all(dir);
}

TEST(Checkpoint, DamagedCacheFilesFallBackToColdByteIdentically)
{
    // Reference: a clean checkpoint directory (the cold leg saves).
    SimConfig ref = sampledQuick();
    ref.ckpt.dir = freshDir("fallback_ref");
    auto cold = runOne("vortex", ref);
    const std::string goodPath = expectedPath(ref, "vortex");
    std::string good;
    ASSERT_TRUE(readFileBytes(goodPath, good));

    struct Damage
    {
        const char *name;
        std::string bytes;
    };
    const std::string unpacked = vprzUnpack(good, "ckpt");
    std::string versionSkew = unpacked;
    versionSkew[8] ^= 0x40;  // version word after the 8-byte magic
    std::string scopeSkew = unpacked;
    scopeSkew[16] ^= 0x01;  // scope word after the version
    // The container's raw-size field (after magic, version, codec and
    // the kind): a flipped high byte declares ~2^62 bytes.
    ASSERT_EQ(guessFormat(good), FileFormat::Vprz);
    std::string hugeRawSize = good;
    hugeRawSize[4 + 1 + 1 + 2 + std::string("ckpt").size() + 7] ^= 0x40;
    const Damage damages[] = {
        {"wrong magic", "not a checkpoint at all"},
        {"truncated container", good.substr(0, good.size() / 2)},
        {"empty file", ""},
        {"version skew", versionSkew},
        {"digest mismatch",
         vprzPack(packCheckpoint(CkptScope::Functional, 0xdeadbeefull,
                                 "bogus state"),
                  "ckpt")},
        {"scope mismatch", vprzPack(scopeSkew, "ckpt")},
        {"bare checkpoint, no container", unpacked},
        {"wrong container kind", vprzPack(unpacked, "result")},
        {"container raw size", hugeRawSize},
    };
    for (const Damage &d : damages) {
        SimConfig c = sampledQuick();
        c.ckpt.dir = freshDir("fallback_case");
        ASSERT_TRUE(writeFileAtomic(expectedPath(c, "vortex"), d.bytes))
            << d.name;
        const CounterSnap before = CounterSnap::now();
        ::testing::internal::CaptureStderr();
        auto fallback = runOne("vortex", c);
        const std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("discarding damaged checkpoint"),
                  std::string::npos)
            << d.name << ": " << err;
        EXPECT_EQ(CounterSnap::now().corrupt, before.corrupt + 1) << d.name;
        EXPECT_EQ(CounterSnap::now().misses, before.misses + 1) << d.name;
        expectIdenticalMetrics(cold, fallback,
                               std::string("fallback after ") + d.name);
        // The cold fallback re-saves; the repaired file must now load.
        auto repaired = runOne("vortex", c);
        EXPECT_EQ(CounterSnap::now().hits, before.hits + 1) << d.name;
        expectIdenticalMetrics(cold, repaired,
                               std::string("repaired after ") + d.name);
        fs::remove_all(c.ckpt.dir);
    }
    fs::remove_all(ref.ckpt.dir);
}

TEST(Checkpoint, Version1ContainersServeEveryCell)
{
    // Checkpoints saved before containers moved to version 2 are
    // deflated and checksummed with FNV-1a: a grid over a directory of
    // them restores every cell (no miss, no corrupt file) and exports
    // the records of a run without checkpoints.
    const std::string dir = freshDir("v1_container");
    std::vector<GridCell> plain;
    for (RenameScheme scheme :
         {RenameScheme::Conventional, RenameScheme::VPAllocAtIssue}) {
        SimConfig c = sampledQuick();
        c.setScheme(scheme);
        for (const char *bench : {"vortex", "swim"})
            plain.push_back({bench, c});
    }
    std::vector<GridCell> stored = plain;
    for (GridCell &cell : stored)
        cell.config.ckpt.dir = dir;
    runGrid(stored, 1);  // saves one checkpoint per benchmark
    ASSERT_EQ(countCheckpoints(dir), 2u);
    for (const auto &entry : fs::directory_iterator(dir)) {
        std::string bytes;
        ASSERT_TRUE(readFileBytes(entry.path().string(), bytes));
        ASSERT_TRUE(writeFileAtomic(
            entry.path().string(),
            testsupport::packVprzVersion1(vprzUnpack(bytes, "ckpt"),
                                          "ckpt")));
    }

    const CounterSnap before = CounterSnap::now();
    const std::string csv = renderCsv(stored, runGrid(stored, 2));
    const CounterSnap after = CounterSnap::now();
    EXPECT_EQ(after.hits - before.hits, stored.size());
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.corrupt, before.corrupt);
    EXPECT_EQ(after.stores, before.stores);
    EXPECT_EQ(csv, renderCsv(plain, runGrid(plain, 1)));
    fs::remove_all(dir);
}

TEST(Checkpoint, NoWarmupMeansNoCheckpoint)
{
    SimConfig c = sampledQuick();
    c.skipInsts = 0;
    c.ckpt.dir = freshDir("no_warmup");
    runOne("vortex", c);
    EXPECT_EQ(countCheckpoints(c.ckpt.dir), 0u);
    fs::remove_all(c.ckpt.dir);
}

TEST(Checkpoint, CkptDirNeverChangesARecord)
{
    // sim.ckpt.dir is execution-only: for all four schemes, a detailed
    // grid and a sampled grid export the same records with and without
    // it — cold (the checkpoints are written) and warm (restored).
    // Detailed runs never checkpoint at all.
    for (bool sampled : {false, true}) {
        const std::string dir =
            freshDir(sampled ? "invariant_sampled" : "invariant_detailed");
        std::vector<GridCell> plain;
        for (RenameScheme scheme :
             {RenameScheme::Conventional,
              RenameScheme::ConventionalEarlyRelease,
              RenameScheme::VPAllocAtWriteback,
              RenameScheme::VPAllocAtIssue}) {
            SimConfig c = sampled ? sampledQuick() : quick();
            c.setScheme(scheme);
            c.core.fetch.wrongPath = WrongPathMode::Stall;
            for (const char *bench : {"vortex", "swim"})
                plain.push_back({bench, c});
        }
        std::vector<GridCell> stored = plain;
        for (GridCell &cell : stored)
            cell.config.ckpt.dir = dir;

        const std::string reference = renderCsv(plain, runGrid(plain, 2));
        const std::string label = sampled ? "sampled" : "detailed";
        EXPECT_EQ(renderCsv(stored, runGrid(stored, 2)), reference)
            << label << " cold";
        EXPECT_EQ(renderCsv(stored, runGrid(stored, 2)), reference)
            << label << " warm";
        // One functional checkpoint per benchmark, none for detailed.
        EXPECT_EQ(countCheckpoints(dir), sampled ? 2u : 0u) << label;
        fs::remove_all(dir);
    }
}

TEST(Checkpoint, MissingDirectoryIsCreatedOnFirstSave)
{
    // Like --result-cache, --ckpt-dir may name a directory that does
    // not exist yet (two levels deep here): the first save creates it,
    // and the next run restores from it.
    const fs::path root = fs::path(freshDir("missing_root"));
    const fs::path dir = root / "a" / "b";
    SimConfig c = sampledQuick();
    c.ckpt.dir = dir.string();
    ::testing::internal::CaptureStderr();
    auto cold = runOne("vortex", c);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(err.find("cannot write checkpoint"), std::string::npos)
        << err;
    ASSERT_TRUE(fs::is_directory(dir));
    EXPECT_EQ(countCheckpoints(c.ckpt.dir), 1u);
    auto warm = runOne("vortex", c);
    expectIdenticalMetrics(cold, warm, "created-dir restore");
    fs::remove_all(root);
}

TEST(Checkpoint, UnwritableDirectoryWarnsOncePerProcess)
{
    // A directory that cannot be created (its parent is a regular
    // file) makes every save fail. Results are unaffected and the
    // warning is printed once per process, not once per cell.
    const fs::path root = fs::path(freshDir("unwritable"));
    const fs::path blocker = root / "file";
    writeFileAtomic(blocker.string(), "not a directory");
    SimConfig c = sampledQuick();
    c.ckpt.dir = (blocker / "ckpt").string();
    SimConfig writable = sampledQuick();
    writable.ckpt.dir = freshDir("unwritable_ref");
    std::vector<GridCell> cells;
    for (const char *bench : {"vortex", "swim", "compress"})
        cells.push_back({bench, c});

    ::testing::internal::CaptureStderr();
    auto results = runGrid(cells, 2);
    const std::string err = ::testing::internal::GetCapturedStderr();

    std::size_t warnings = 0;
    for (std::size_t at = err.find("cannot write checkpoint");
         at != std::string::npos;
         at = err.find("cannot write checkpoint", at + 1))
        ++warnings;
    // Exactly one when this test has the process to itself (ctest runs
    // each test alone); never more than one in any case.
    EXPECT_LE(warnings, 1u) << err;
    if (::testing::UnitTest::GetInstance()->test_to_run_count() == 1) {
        EXPECT_EQ(warnings, 1u) << err;
    }
    ASSERT_EQ(results.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        expectIdenticalMetrics(runOne(cells[i].benchmark, writable),
                               results[i],
                               "unwritable ckpt " + cells[i].benchmark);
    }
    fs::remove_all(root);
    fs::remove_all(writable.ckpt.dir);
}

TEST(Checkpoint, GridCellsHitTheCacheAcrossJobs)
{
    // A grid populated serially and re-run with 4 workers must agree
    // cell for cell — concurrent cache hits (and the atomic-rename
    // writes on first touch) never perturb results.
    const std::string dir = freshDir("grid");
    SimConfig c = sampledQuick();
    c.ckpt.dir = dir;
    std::vector<GridCell> cells;
    for (RenameScheme s : {RenameScheme::Conventional,
                           RenameScheme::VPAllocAtWriteback,
                           RenameScheme::VPAllocAtIssue}) {
        c.setScheme(s);
        cells.push_back({"vortex", c});
        cells.push_back({"swim", c});
    }
    auto first = runGrid(cells, 1);   // cold: populates the cache
    auto again = runGrid(cells, 4);   // warm: every cell restores
    ASSERT_EQ(first.size(), cells.size());
    ASSERT_EQ(again.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        expectIdenticalMetrics(first[i], again[i],
                               "grid ckpt cell " + std::to_string(i));
    // The warm key ignores the scheme: one checkpoint per benchmark.
    EXPECT_EQ(countCheckpoints(dir), 2u);
    fs::remove_all(dir);
}

TEST(Checkpoint, CellsSharingAWarmKeyFastForwardOnceAcrossWorkers)
{
    // A cold sampled grid on four workers whose cells share two warm
    // keys, same-key cells adjacent so they start together: one cell
    // per key fast-forwards and saves, the others wait and restore —
    // the counters of a serial run, and its records.
    const std::string dir = freshDir("single_flight");
    std::vector<GridCell> plain;
    for (const char *bench : {"vortex", "swim"}) {
        for (RenameScheme scheme :
             {RenameScheme::Conventional, RenameScheme::VPAllocAtWriteback,
              RenameScheme::VPAllocAtIssue}) {
            for (std::uint16_t regs : {48, 64}) {
                SimConfig c = sampledQuick();
                c.setScheme(scheme);
                c.setPhysRegs(regs);
                plain.push_back({bench, c});
            }
        }
    }
    std::vector<GridCell> stored = plain;
    for (GridCell &cell : stored)
        cell.config.ckpt.dir = dir;

    const CounterSnap before = CounterSnap::now();
    const std::string csv = renderCsv(stored, runGrid(stored, 4));
    const CounterSnap after = CounterSnap::now();
    EXPECT_EQ(after.misses - before.misses, 2u);
    EXPECT_EQ(after.stores - before.stores, 2u);
    EXPECT_EQ(after.hits - before.hits, stored.size() - 2);
    EXPECT_EQ(after.corrupt, before.corrupt);
    EXPECT_EQ(countCheckpoints(dir), 2u);
    EXPECT_EQ(csv, renderCsv(plain, runGrid(plain, 1)));
    fs::remove_all(dir);
}

TEST(Checkpoint, ClaimPassesToTheNextWaiterWhenItsHolderThrows)
{
    // The single-flight claim behind the test above: a second claim on
    // a held entry waits; a claim on another entry does not; and a
    // holder that throws still releases, so the waiter takes over.
    ContentStore &store = checkpointStore();
    std::atomic<int> stage{0};
    std::thread waiter;
    try {
        const ContentStore::Claim first(store, "d", "vortex", 42);
        { const ContentStore::Claim other(store, "d", "vortex", 43); }
        waiter = std::thread([&] {
            stage = 1;
            const ContentStore::Claim second(store, "d", "vortex", 42);
            stage = 2;
        });
        while (stage.load() == 0)
            std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        EXPECT_EQ(stage.load(), 1) << "a claim on a held entry did not wait";
        throw std::runtime_error("the holder's fast-forward failed");
    } catch (const std::runtime_error &) {
    }
    waiter.join();
    EXPECT_EQ(stage.load(), 2);
}

} // namespace
} // namespace vpr

