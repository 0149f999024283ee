/**
 * @file
 * The shared content-addressed store (sim/store.hh): naming, the
 * decode-failure fallback and the counters every store keeps, and the
 * exit lines the batch binaries print from those counters.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <regex>
#include <string>
#include <string_view>

#include "common/io/zio.hh"
#include "sim/config.hh"
#include "sim/store.hh"

namespace vpr
{
namespace
{

namespace fs = std::filesystem;

std::string
freshDir(const std::string &tag)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("vpr_store_" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

TEST(ContentStore, NamesEntriesByBenchmarkDigestAndExtension)
{
    EXPECT_EQ(resultStore().path("rc", "go", 0x0123456789abcdefull),
              "rc/go-0123456789abcdef.vprr");
    EXPECT_EQ(checkpointStore().path("ck", "swim", 0xfull),
              "ck/swim-000000000000000f.vprck");
}

TEST(ContentStore, SaveLoadCountsAndFallsBackOnDamage)
{
    const std::string dir = freshDir("roundtrip");
    ContentStore &store = checkpointStore();
    const StoreCounters &c = store.counters();
    const std::uint64_t hits = c.hits.load(), misses = c.misses.load(),
                        corrupt = c.corrupt.load(),
                        stores = c.stores.load();

    std::string got;
    auto decode = [&got](std::string_view payload) {
        if (payload == "bad")
            throw CkptError("decoder refused the payload");
        got = std::string(payload);
    };
    EXPECT_FALSE(store.load(dir, "go", 7, decode));  // no file: a miss
    EXPECT_EQ(c.misses.load(), misses + 1);
    EXPECT_EQ(c.corrupt.load(), corrupt);

    store.save(dir, "go", 7, "warm bytes");
    EXPECT_EQ(c.stores.load(), stores + 1);
    ASSERT_TRUE(store.load(dir, "go", 7, decode));
    EXPECT_EQ(got, "warm bytes");
    EXPECT_EQ(c.hits.load(), hits + 1);

    // A container of another store's kind, and a payload the decoder
    // refuses: each warns once and counts corrupt + miss.
    for (const std::string &bytes :
         {vprzPack("warm bytes", "result"), vprzPack("bad", "ckpt")}) {
        ASSERT_TRUE(writeFileAtomic(store.path(dir, "go", 7), bytes));
        const std::uint64_t before = c.corrupt.load();
        ::testing::internal::CaptureStderr();
        EXPECT_FALSE(store.load(dir, "go", 7, decode));
        const std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("discarding damaged checkpoint"),
                  std::string::npos)
            << err;
        EXPECT_EQ(c.corrupt.load(), before + 1);
    }
    EXPECT_EQ(c.misses.load(), misses + 3);

    // Only entry files are left: the atomic writes renamed their temps.
    for (const auto &entry : fs::directory_iterator(dir))
        EXPECT_EQ(entry.path().extension(), ".vprck") << entry.path();
    EXPECT_EQ(listCacheFiles({dir}).size(), 1u);
    fs::remove_all(dir);
}

TEST(StoreReport, PrintsOneCountersLinePerEnabledStore)
{
    const std::string counts =
        R"(: [0-9]+ hits, [0-9]+ misses, [0-9]+ corrupt, [0-9]+ stores\n)";
    auto report = [](const SimConfig &cfg) {
        ::testing::internal::CaptureStderr();
        { const StoreReport r(cfg); }
        return ::testing::internal::GetCapturedStderr();
    };

    SimConfig cfg;
    EXPECT_EQ(report(cfg), "");
    cfg.resultCache.dir = "rc";
    EXPECT_TRUE(std::regex_match(report(cfg),
                                 std::regex("result cache" + counts)));
    cfg.ckpt.dir = "ck";
    const std::string both = report(cfg);
    EXPECT_TRUE(std::regex_match(
        both, std::regex("result cache" + counts + "checkpoints" + counts)))
        << both;
    EXPECT_EQ(both.substr(both.find('\n') + 1),
              checkpointStore().countersLine());
    cfg.resultCache.dir.clear();
    EXPECT_TRUE(std::regex_match(report(cfg),
                                 std::regex("checkpoints" + counts)));
}

} // namespace
} // namespace vpr
