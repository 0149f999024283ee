/**
 * @file
 * The warm-state checkpoint cache end to end: content-addressed digests
 * must share exactly when the warm state is shareable, a restored run
 * must be byte-identical to the cold run that produced the checkpoint,
 * and every damaged cache file must fall back to a cold warm-up with
 * the same results — a bad checkpoint may cost time, never correctness.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/io/zio.hh"
#include "common/state.hh"
#include "sim/checkpoint.hh"
#include "sim/experiment.hh"
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

/** The cache-file path the simulator will use for @p cfg. Only valid
 *  for cfg.seed == 0 (a non-zero master seed re-derives component
 *  seeds inside the Simulator before hashing). */
std::string
expectedPath(const SimConfig &cfg, const std::string &bench,
             CkptScope scope)
{
    const std::string identity =
        makeBenchmarkStream(bench, cfg.seed)->identity();
    return checkpointPath(
        cfg.ckpt.dir, bench, scope,
        warmStateDigest(cfg, bench, identity, scope));
}

TEST(CheckpointDigest, StableAndScopeTagged)
{
    SimConfig c = quick();
    const std::string id = makeBenchmarkStream("vortex")->identity();
    const std::uint64_t f =
        warmStateDigest(c, "vortex", id, CkptScope::Functional);
    EXPECT_EQ(f, warmStateDigest(c, "vortex", id, CkptScope::Functional));
    // The scope is part of the key: a functional file can never be
    // taken for a full one even with identical config.
    EXPECT_NE(f, warmStateDigest(c, "vortex", id, CkptScope::Full));
    // Different benchmark or stream content, different key.
    EXPECT_NE(f, warmStateDigest(c, "go", id, CkptScope::Functional));
    EXPECT_NE(f, warmStateDigest(c, "vortex", id + "x",
                                 CkptScope::Functional));
}

TEST(CheckpointDigest, FunctionalKeyIgnoresDetailedMicroarchitecture)
{
    // A functional fast-forward warms the trace position, BHT and
    // caches only — so the renaming scheme and regfile size must NOT
    // change the functional key (that is what lets a scheme x size
    // sweep share one checkpoint), while they MUST change the full key.
    SimConfig base = quick();
    const std::string id = makeBenchmarkStream("vortex")->identity();
    SimConfig other = base;
    other.setScheme(RenameScheme::VPAllocAtWriteback);
    other.core.rename.numPhysRegs = base.core.rename.numPhysRegs + 8;

    EXPECT_EQ(warmStateDigest(base, "vortex", id, CkptScope::Functional),
              warmStateDigest(other, "vortex", id,
                              CkptScope::Functional));
    EXPECT_NE(warmStateDigest(base, "vortex", id, CkptScope::Full),
              warmStateDigest(other, "vortex", id, CkptScope::Full));
}

TEST(CheckpointDigest, WarmRelevantKeysChangeBothScopes)
{
    SimConfig base = quick();
    const std::string id = makeBenchmarkStream("vortex")->identity();
    for (CkptScope scope : {CkptScope::Functional, CkptScope::Full}) {
        SimConfig cache = base;
        cache.core.cache.sizeBytes *= 2;
        EXPECT_NE(warmStateDigest(base, "vortex", id, scope),
                  warmStateDigest(cache, "vortex", id, scope))
            << ckptScopeName(scope) << " ignored cache geometry";
        SimConfig skip = base;
        skip.skipInsts = base.skipInsts * 2;
        EXPECT_NE(warmStateDigest(base, "vortex", id, scope),
                  warmStateDigest(skip, "vortex", id, scope))
            << ckptScopeName(scope) << " ignored warm-up length";
    }
    // The measurement length begins after the checkpoint: same key.
    SimConfig measure = base;
    measure.measureInsts = base.measureInsts * 2;
    EXPECT_EQ(warmStateDigest(base, "vortex", id, CkptScope::Full),
              warmStateDigest(measure, "vortex", id, CkptScope::Full));
}

TEST(CheckpointDigest, ExecOnlyCkptParamsDoNotChangeTheKey)
{
    // Where the cache lives and whether files are compressed is
    // execution plumbing, not warm state: the digest (and the exported
    // provenance) must not see sim.ckpt.*.
    SimConfig base = quick();
    const std::string id = makeBenchmarkStream("vortex")->identity();
    SimConfig other = base;
    other.ckpt.dir = "/somewhere/else";
    other.ckpt.compress = false;
    other.ckpt.save = false;
    for (CkptScope scope : {CkptScope::Functional, CkptScope::Full})
        EXPECT_EQ(warmStateDigest(base, "vortex", id, scope),
                  warmStateDigest(other, "vortex", id, scope));
}

class CheckpointPerScheme : public ::testing::TestWithParam<RenameScheme>
{
};

TEST_P(CheckpointPerScheme, RestoredRunIsByteIdenticalToCold)
{
    SimConfig c = quick();
    c.setScheme(GetParam());
    if (GetParam() == RenameScheme::ConventionalEarlyRelease)
        c.core.fetch.wrongPath = WrongPathMode::Stall;
    c.ckpt.dir = freshDir(
        std::string("scheme_") + renameSchemeName(GetParam()));

    auto cold = runOne("vortex", c);  // miss: warms up, saves
    EXPECT_EQ(countCheckpoints(c.ckpt.dir), 1u);
    EXPECT_TRUE(fs::exists(expectedPath(c, "vortex", CkptScope::Full)));

    auto restored = runOne("vortex", c);  // hit: loads the file
    EXPECT_EQ(countCheckpoints(c.ckpt.dir), 1u);
    expectIdenticalMetrics(cold, restored,
                           std::string("restored vs cold: ") +
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

TEST(Checkpoint, CompressedAndStoredFilesRestoreIdentically)
{
    // The container codec only changes bytes on disk, never the state
    // inside: cold and restored legs must agree across both codecs.
    SimConfig c = quick();
    c.ckpt.dir = freshDir("codec_z");
    c.ckpt.compress = true;
    auto coldZ = runOne("vortex", c);
    auto restoredZ = runOne("vortex", c);

    SimConfig s = quick();
    s.ckpt.dir = freshDir("codec_raw");
    s.ckpt.compress = false;
    auto coldRaw = runOne("vortex", s);
    auto restoredRaw = runOne("vortex", s);

    expectIdenticalMetrics(coldZ, restoredZ, "compressed restore");
    expectIdenticalMetrics(coldRaw, restoredRaw, "stored restore");
    expectIdenticalMetrics(coldZ, coldRaw, "compressed vs stored cold");

    if (zlibAvailable()) {
        std::string z, raw;
        ASSERT_TRUE(readFileBytes(
            expectedPath(c, "vortex", CkptScope::Full), z));
        ASSERT_TRUE(readFileBytes(
            expectedPath(s, "vortex", CkptScope::Full), raw));
        EXPECT_LT(z.size(), raw.size());
    }
    fs::remove_all(c.ckpt.dir);
    fs::remove_all(s.ckpt.dir);
}

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
    // Reference: a clean cache directory (cold leg saves + reloads).
    SimConfig ref = quick();
    ref.ckpt.dir = freshDir("fallback_ref");
    auto cold = runOne("vortex", ref);
    const std::string goodPath =
        expectedPath(ref, "vortex", CkptScope::Full);
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
         packCheckpoint(CkptScope::Full, 0xdeadbeefull, "bogus state")},
        {"scope mismatch",
         packCheckpoint(CkptScope::Functional, 0xdeadbeefull, "bogus")},
        {"container raw size", hugeRawSize},
    };
    for (const Damage &d : damages) {
        SimConfig c = quick();
        c.ckpt.dir = freshDir("fallback_case");
        ASSERT_TRUE(writeFileAtomic(
            expectedPath(c, "vortex", CkptScope::Full), d.bytes))
            << d.name;
        auto fallback = runOne("vortex", c);
        expectIdenticalMetrics(cold, fallback,
                               std::string("fallback after ") + d.name);
        // The cold fallback re-saves; the repaired file must now load.
        auto repaired = runOne("vortex", c);
        expectIdenticalMetrics(cold, repaired,
                               std::string("repaired after ") + d.name);
        fs::remove_all(c.ckpt.dir);
    }
    fs::remove_all(ref.ckpt.dir);
}

TEST(Checkpoint, SaveOffReadsButNeverWrites)
{
    SimConfig c = quick();
    c.ckpt.dir = freshDir("save_off");
    c.ckpt.save = false;
    auto first = runOne("vortex", c);
    EXPECT_EQ(countCheckpoints(c.ckpt.dir), 0u);

    // A writer populates the cache; the read-only config then hits it.
    SimConfig w = quick();
    w.ckpt.dir = c.ckpt.dir;
    auto writer = runOne("vortex", w);
    EXPECT_EQ(countCheckpoints(c.ckpt.dir), 1u);
    auto reader = runOne("vortex", c);
    expectIdenticalMetrics(first, writer, "save=0 cold vs writer cold");
    expectIdenticalMetrics(first, reader, "save=0 cold vs cache hit");
    fs::remove_all(c.ckpt.dir);
}

TEST(Checkpoint, NoWarmupMeansNoCheckpoint)
{
    SimConfig c = quick();
    c.skipInsts = 0;
    c.ckpt.dir = freshDir("no_warmup");
    runOne("vortex", c);
    EXPECT_EQ(countCheckpoints(c.ckpt.dir), 0u);
    fs::remove_all(c.ckpt.dir);
}

TEST(Checkpoint, MissingDirectoryIsCreatedOnFirstSave)
{
    // Like --result-cache, --ckpt-dir may name a directory that does
    // not exist yet (two levels deep here): the first save creates it,
    // and the next run restores from it.
    const fs::path root = fs::path(freshDir("missing_root"));
    const fs::path dir = root / "a" / "b";
    SimConfig c = quick();
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
    SimConfig c = quick();
    c.ckpt.dir = (blocker / "ckpt").string();
    SimConfig writable = quick();
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
    SimConfig c = quick();
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
    // Full-scope keys cover the scheme: 3 schemes x 2 benchmarks.
    EXPECT_EQ(countCheckpoints(dir), cells.size());
    fs::remove_all(dir);
}

} // namespace
} // namespace vpr

