/**
 * @file
 * The serialization substrate (common/state.hh) and the compressed
 * container (common/io/zio.hh): round trips must be byte-exact, and
 * every malformed input — truncation, wrong magic, version skew, stale
 * digest, flipped payload bytes — must be rejected with a CkptError,
 * never silently accepted.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "../support/vprz_v1.hh"
#include "common/io/zio.hh"
#include "common/random.hh"
#include "common/state.hh"

namespace vpr
{
namespace
{

/** A little aggregate exercising every visitor helper. */
struct Widget
{
    std::uint64_t big = 0;
    std::uint32_t medium = 0;
    std::uint16_t small = 0;
    bool flag = false;
    Random rng;
    std::vector<std::uint16_t> fixed;
    std::uint8_t raw[3] = {0, 0, 0};

    void
    visitState(StateVisitor &v)
    {
        v.section("widget");
        v.value(big);
        v.value(medium);
        v.value(small);
        v.value(flag);
        v.rng(rng);
        v.fixedVec(fixed);
        v.bytes(raw, sizeof(raw));
    }
};

Widget
sampleWidget()
{
    Widget w;
    w.big = 0xfeedface12345678ull;
    w.medium = 0xabcdef01u;
    w.small = 0x7a5a;
    w.flag = true;
    w.rng.reseed(42);
    w.rng.next64();
    w.fixed = {1, 2, 3, 0xffff};
    w.raw[0] = 0x11;
    w.raw[1] = 0x22;
    w.raw[2] = 0x33;
    return w;
}

TEST(StateVisitor, RoundTripIsExact)
{
    Widget w = sampleWidget();
    StateSaver saver;
    w.visitState(saver);

    Widget x;
    x.fixed.assign(4, 0);   // fixedVec needs the right geometry
    StateLoader loader(saver.buffer());
    x.visitState(loader);
    EXPECT_TRUE(loader.exhausted());

    EXPECT_EQ(x.big, w.big);
    EXPECT_EQ(x.medium, w.medium);
    EXPECT_EQ(x.small, w.small);
    EXPECT_EQ(x.flag, w.flag);
    EXPECT_EQ(x.rng.rawState(), w.rng.rawState());
    EXPECT_EQ(x.fixed, w.fixed);
    EXPECT_EQ(std::memcmp(x.raw, w.raw, sizeof(w.raw)), 0);

    // Saving the restored widget reproduces the encoding byte for byte.
    StateSaver again;
    x.visitState(again);
    EXPECT_EQ(again.buffer(), saver.buffer());
}

TEST(StateVisitor, SectionMismatchThrows)
{
    StateSaver saver;
    saver.section("alpha");
    StateLoader loader(saver.buffer());
    EXPECT_THROW(loader.section("beta"), CkptError);
}

TEST(StateVisitor, TruncatedPayloadThrows)
{
    Widget w = sampleWidget();
    StateSaver saver;
    w.visitState(saver);
    std::string cut = saver.buffer().substr(0, saver.buffer().size() - 3);

    Widget x;
    x.fixed.assign(4, 0);
    StateLoader loader(cut);
    EXPECT_THROW(x.visitState(loader), CkptError);
}

TEST(StateVisitor, NarrowingRangeIsChecked)
{
    std::uint64_t big = 0x10000;  // does not fit u16
    StateSaver saver;
    saver.value(big);
    StateLoader loader(saver.buffer());
    std::uint16_t small = 0;
    EXPECT_THROW(loader.value(small), CkptError);
}

TEST(StateVisitor, FixedVecLengthMismatchThrows)
{
    std::vector<std::uint16_t> four = {1, 2, 3, 4};
    StateSaver saver;
    saver.fixedVec(four);
    StateLoader loader(saver.buffer());
    std::vector<std::uint16_t> three(3, 0);
    EXPECT_THROW(loader.fixedVec(three), CkptError);
}

TEST(Checkpoint, PackUnpackRoundTrips)
{
    const std::string payload = "warm state bytes \x01\x02\x03";
    const std::uint64_t digest = 0x1122334455667788ull;
    std::string raw = packCheckpoint(CkptScope::Functional, digest, payload);
    EXPECT_EQ(unpackCheckpoint(raw, CkptScope::Functional, digest), payload);
    // Digest 0 means "don't check".
    EXPECT_EQ(unpackCheckpoint(raw, CkptScope::Functional, 0), payload);
}

TEST(Checkpoint, WrongMagicThrows)
{
    std::string raw = packCheckpoint(CkptScope::Functional, 1, "x");
    raw[0] = 'X';
    EXPECT_THROW(unpackCheckpoint(raw, CkptScope::Functional, 1), CkptError);
    EXPECT_THROW(unpackCheckpoint("short", CkptScope::Functional, 1),
                 CkptError);
    EXPECT_THROW(unpackCheckpoint("", CkptScope::Functional, 1), CkptError);
}

TEST(Checkpoint, VersionSkewThrows)
{
    std::string raw = packCheckpoint(CkptScope::Functional, 1, "x");
    raw[8] ^= 0x40;  // version word follows the 8-byte magic
    EXPECT_THROW(unpackCheckpoint(raw, CkptScope::Functional, 1), CkptError);
}

TEST(Checkpoint, ScopeMismatchThrows)
{
    std::string raw = packCheckpoint(CkptScope::Functional, 1, "x");
    raw[16] ^= 0x01;  // scope word follows the version
    EXPECT_THROW(unpackCheckpoint(raw, CkptScope::Functional, 1), CkptError);
}

TEST(Checkpoint, DigestMismatchThrows)
{
    std::string raw = packCheckpoint(CkptScope::Functional, 1, "x");
    EXPECT_THROW(unpackCheckpoint(raw, CkptScope::Functional, 2), CkptError);
}

TEST(Checkpoint, CorruptedPayloadThrows)
{
    std::string raw =
        packCheckpoint(CkptScope::Functional, 1, "some warm state payload");
    raw[raw.size() - 12] ^= 0x01;  // flip a payload byte, not the sum
    EXPECT_THROW(unpackCheckpoint(raw, CkptScope::Functional, 1), CkptError);
}

TEST(Checkpoint, TruncatedFileThrows)
{
    std::string raw =
        packCheckpoint(CkptScope::Functional, 1, "some warm state payload");
    for (std::size_t keep : {raw.size() - 1, raw.size() / 2,
                             std::size_t{9}}) {
        EXPECT_THROW(
            unpackCheckpoint(raw.substr(0, keep), CkptScope::Functional, 1),
            CkptError)
            << "kept " << keep << " of " << raw.size() << " bytes";
    }
}

TEST(Checkpoint, TrailingGarbageThrows)
{
    std::string raw = packCheckpoint(CkptScope::Functional, 1, "x") + "junk";
    EXPECT_THROW(unpackCheckpoint(raw, CkptScope::Functional, 1), CkptError);
}

TEST(Vprz, StoredRoundTripsAndIsDetected)
{
    const std::string payload(10000, 'a');
    std::string packed = vprzPack(payload, "ckpt", /*compress=*/false);
    EXPECT_EQ(guessFormat(packed), FileFormat::Vprz);
    EXPECT_EQ(vprzUnpack(packed, "ckpt"), payload);
}

TEST(Vprz, CompressedRoundTripsAndShrinks)
{
    std::string payload;
    for (int i = 0; i < 5000; ++i)
        payload += "a very repetitive warm state line\n";
    std::string packed = vprzPack(payload, "results", /*compress=*/true);
    EXPECT_EQ(vprzUnpack(packed, "results"), payload);
    if (zlibAvailable())
        EXPECT_LT(packed.size(), payload.size() / 4)
            << "zlib present but the container did not compress";
    else
        EXPECT_GT(packed.size(), payload.size());  // stored fallback
}

TEST(Vprz, KindMismatchThrows)
{
    std::string packed = vprzPack("x", "ckpt");
    EXPECT_THROW(vprzUnpack(packed, "results"), CkptError);
    EXPECT_EQ(vprzUnpack(packed, ""), "x");  // empty = any kind
}

TEST(Vprz, CorruptionThrows)
{
    std::string packed = vprzPack("the quick brown fox", "ckpt",
                                  /*compress=*/false);
    std::string flipped = packed;
    flipped[flipped.size() - 10] ^= 0x04;
    EXPECT_THROW(vprzUnpack(flipped, "ckpt"), CkptError);
    EXPECT_THROW(vprzUnpack(packed.substr(0, packed.size() / 2), "ckpt"),
                 CkptError);
    EXPECT_THROW(vprzUnpack("VPRZ", "ckpt"), CkptError);
    EXPECT_THROW(vprzUnpack("not a container at all", "ckpt"), CkptError);
}

/** Offset of the u64 raw-size field in a container of @p kind. */
std::size_t
rawSizeOffset(const std::string &kind)
{
    return 4 + 1 + 1 + 2 + kind.size();  // magic, version, codec, kind
}

TEST(Vprz, DamagedSizeFieldsThrowBeforeAllocating)
{
    std::string payload;
    for (int i = 0; i < 200; ++i)
        payload += "line " + std::to_string(i) + "\n";
    for (bool compress : {true, false}) {
        const std::string packed = vprzPack(payload, "ckpt", compress);
        const std::size_t raw = rawSizeOffset("ckpt");
        // A flipped high byte declares a raw size of ~2^62: refused by
        // the deflate ratio bound (or the stored-size check), never
        // allocated.
        std::string bigRaw = packed;
        bigRaw[raw + 7] ^= 0x40;
        EXPECT_THROW(vprzUnpack(bigRaw, "ckpt"), CkptError) << compress;
        // A stored size near 2^64 must not wrap the bounds check.
        std::string bigStored = packed;
        for (int i = 0; i < 8; ++i)
            bigStored[raw + 8 + i] = static_cast<char>(0xff);
        EXPECT_THROW(vprzUnpack(bigStored, "ckpt"), CkptError) << compress;
        // Any other raw size is caught by the inflate or the checksum.
        for (int delta : {-1, 1}) {
            std::string off = packed;
            off[raw] = static_cast<char>(off[raw] + delta);
            EXPECT_THROW(vprzUnpack(off, "ckpt"), CkptError) << compress;
        }
    }
}

/** The payload offset of a container of @p kind. */
std::size_t
payloadOffset(const std::string &kind)
{
    return rawSizeOffset(kind) + 8 + 8;  // raw and stored sizes
}

TEST(Vprz, ChecksumCatchesEveryByteFlipTruncationAndAppendedBytes)
{
    // A multi-KB payload whose length is not a whole number of 8-byte
    // words, so the zero-padded tail word is covered too.
    std::string payload;
    for (int i = 0; payload.size() < 5000; ++i)
        payload += "metric." + std::to_string(i * 7919) + ";";
    payload += "tail";
    ASSERT_NE(payload.size() % 8, 0u);
    const std::string packed = vprzPack(payload, "ckpt", /*compress=*/false);
    EXPECT_EQ(packed[4], 2) << "new containers are version 2";
    ASSERT_EQ(vprzUnpack(packed, "ckpt"), payload);

    // Every single-byte flip of the payload, with a low, a high and an
    // all-bits mask: always caught.
    const std::size_t at = payloadOffset("ckpt");
    std::size_t caught = 0, tried = 0;
    for (std::size_t i = 0; i < payload.size(); ++i) {
        for (unsigned char mask : {0x01, 0x80, 0xff}) {
            std::string flipped = packed;
            flipped[at + i] = static_cast<char>(flipped[at + i] ^ mask);
            ++tried;
            try {
                vprzUnpack(flipped, "ckpt");
            } catch (const CkptError &) {
                ++caught;
            }
        }
    }
    EXPECT_EQ(caught, tried);

    // The checksum sealed under a container whose payload lost its last
    // byte, gained a zero byte, or gained a whole zero word: the sizes
    // agree, the length mixed into the sum does not.
    const std::string sum = packed.substr(packed.size() - 8);
    for (const std::string &other :
         {payload.substr(0, payload.size() - 1), payload + '\0',
          payload + std::string(8, '\0')}) {
        std::string resealed = vprzPack(other, "ckpt", /*compress=*/false);
        resealed.replace(resealed.size() - 8, 8, sum);
        EXPECT_THROW(vprzUnpack(resealed, "ckpt"), CkptError)
            << other.size();
    }
    // Truncated or extended containers, and a raw size that disagrees
    // with the stored one.
    EXPECT_THROW(vprzUnpack(packed.substr(0, packed.size() - 1), "ckpt"),
                 CkptError);
    EXPECT_THROW(vprzUnpack(packed + "x", "ckpt"), CkptError);
    std::string rawSkew = packed;
    rawSkew[rawSizeOffset("ckpt")] ^= 0x01;
    EXPECT_THROW(vprzUnpack(rawSkew, "ckpt"), CkptError);
}

TEST(Vprz, Version1ContainersStayReadable)
{
    // The exact bytes the version-1 writer produced for this payload
    // (store codec, FNV-1a checksum).
    const std::string v1(
        "VPRZ\x01\x00\x04\x00"
        "ckpt\x13\x00\x00\x00\x00\x00\x00\x00"
        "\x13\x00\x00\x00\x00\x00\x00\x00the quick brown fox"
        "\x22\xc1\xd8\x0b\xb4\xb7\xae\x59",
        55);
    EXPECT_EQ(vprzUnpack(v1, "ckpt"), "the quick brown fox");
    EXPECT_EQ(testsupport::asVprzVersion1(
                  vprzPack("the quick brown fox", "ckpt", false)),
              v1);
    std::string flipped = v1;
    flipped[30] ^= 0x01;
    EXPECT_THROW(vprzUnpack(flipped, "ckpt"), CkptError);

    // Deflated version-1 containers (store entries and archives as they
    // were written before version 2) round-trip too.
    std::string payload;
    for (int i = 0; i < 500; ++i)
        payload += "warm line " + std::to_string(i) + "\n";
    EXPECT_EQ(vprzUnpack(testsupport::packVprzVersion1(payload, "result"),
                         "result"),
              payload);

    // Each version reads only its own checksum, and no other version
    // is read at all.
    std::string v2 = vprzPack("the quick brown fox", "ckpt", false);
    v2[4] = 1;
    EXPECT_THROW(vprzUnpack(v2, "ckpt"), CkptError);
    std::string v3 = v1;
    v3[4] = 3;
    EXPECT_THROW(vprzUnpack(v3, "ckpt"), CkptError);
}

TEST(Vprz, PayloadViewsStoredBytesInPlace)
{
    std::string inflated;
    const std::string stored = vprzPack("in place", "ckpt", false);
    const std::string_view view = vprzPayload(stored, "ckpt", inflated);
    EXPECT_EQ(view, "in place");
    EXPECT_TRUE(view.data() >= stored.data() &&
                view.data() < stored.data() + stored.size())
        << "a stored payload must be viewed, not copied";
    EXPECT_TRUE(inflated.empty());

    const std::string deflated = vprzPack("in place", "ckpt", true);
    EXPECT_EQ(vprzPayload(deflated, "ckpt", inflated), "in place");
}

TEST(Vprz, FileBufferReadsWholeRegularFilesOnly)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(::testing::TempDir()) / "vpr_file_buffer";
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::string data;
    for (int i = 0; i < 100000; ++i)
        data.push_back(static_cast<char>(i * 13));
    const std::string path = (dir / "blob").string();
    ASSERT_TRUE(writeFileAtomic(path, data));
    FileBuffer buf;
    ASSERT_TRUE(buf.read(path));
    EXPECT_EQ(buf.view(), data);

    ASSERT_TRUE(writeFileAtomic(path, ""));
    ASSERT_TRUE(buf.read(path));
    EXPECT_TRUE(buf.view().empty());

    EXPECT_FALSE(buf.read((dir / "missing").string()));
    EXPECT_FALSE(buf.read(dir.string()));  // a directory
    EXPECT_TRUE(buf.view().empty());
    fs::remove_all(dir);
}

TEST(Vprz, ReadFileBytesReadsWholeFilesAndRejectsDirectories)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(::testing::TempDir()) / "vpr_read_bytes";
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::string data;
    for (int i = 0; i < 100000; ++i)
        data.push_back(static_cast<char>(i * 7));
    const std::string path = (dir / "blob").string();
    ASSERT_TRUE(writeFileAtomic(path, data));
    std::string got = "stale";
    ASSERT_TRUE(readFileBytes(path, got));
    EXPECT_EQ(got, data);

    ASSERT_TRUE(writeFileAtomic(path, ""));
    ASSERT_TRUE(readFileBytes(path, got));
    EXPECT_TRUE(got.empty());

    EXPECT_FALSE(readFileBytes((dir / "missing").string(), got));
    EXPECT_FALSE(readFileBytes(dir.string(), got));  // a directory
    fs::remove_all(dir);
}

TEST(Vprz, FormatDetection)
{
    EXPECT_EQ(guessFormat("cell,benchmark\n0,go\n"), FileFormat::Plain);
    EXPECT_EQ(guessFormat(""), FileFormat::Plain);
    EXPECT_EQ(guessFormat(vprzPack("x", "ckpt")), FileFormat::Vprz);
}

TEST(Fnv, MatchesKnownVectorsAndSeeds)
{
    // FNV-1a 64 reference values.
    EXPECT_EQ(fnv1a("", 0), 14695981039346656037ull);
    EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
    // Chaining through the seed differs from hashing the concatenation
    // only in where the boundary falls — both must be stable.
    const std::uint64_t ab = fnv1a("ab", 2);
    EXPECT_EQ(fnv1a("b", 1, fnv1a("a", 1)), ab);
}

TEST(AtomicWrite, TwoConcurrentWritersNeverMixPayloads)
{
    // Two writers hammering one path (shared-cache deployments: CI
    // shards publishing the same content-addressed entry, or two batch
    // runs racing). The tmp names are pid+counter-suffixed,
    // so writes must never observe each other: every read of the final
    // file sees exactly one writer's payload, start to finish.
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(::testing::TempDir()) / "vpr_state_two_writers";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string path = (dir / "contended.bin").string();

    // Distinct page-crossing payloads, recognizable from any byte.
    const std::string payloadA(64 * 1024, 'A');
    const std::string payloadB(64 * 1024, 'B');

    constexpr int kRounds = 50;
    auto writer = [&path](const std::string &payload) {
        for (int i = 0; i < kRounds; ++i)
            ASSERT_TRUE(writeFileAtomic(path, payload)) << i;
    };
    std::thread a(writer, payloadA);
    std::thread b(writer, payloadB);
    a.join();
    b.join();

    std::string final;
    ASSERT_TRUE(readFileBytes(path, final));
    EXPECT_TRUE(final == payloadA || final == payloadB)
        << "final file mixes payloads (size " << final.size() << ")";

    // No orphaned tmp files: every temporary was renamed or cleaned up.
    std::size_t files = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        (void)entry;
        ++files;
    }
    EXPECT_EQ(files, 1u);
}

TEST(AtomicWrite, WritesAndReadsBack)
{
    const std::string path =
        ::testing::TempDir() + "/vpr_state_test_atomic.bin";
    const std::string data("binary\0payload", 14);
    ASSERT_TRUE(writeFileAtomic(path, data));
    std::string back;
    ASSERT_TRUE(readFileBytes(path, back));
    EXPECT_EQ(back, data);
    EXPECT_FALSE(readFileBytes(path + ".does-not-exist", back));
    std::remove(path.c_str());
}

} // namespace
} // namespace vpr
