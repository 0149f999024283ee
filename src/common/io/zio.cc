#include "common/io/zio.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string_view>

#include <fcntl.h>
#include <sys/stat.h>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#include "common/state.hh"

#ifdef VPR_HAVE_ZLIB
#include <zlib.h>
#endif

namespace vpr
{

namespace
{

constexpr char kVprzMagic[4] = {'V', 'P', 'R', 'Z'};
/** Version 1 checksums with byte-wise FNV-1a, version 2 (written) with
 *  wordChecksum. */
constexpr std::uint8_t kVprzVersionFnv = 1;
constexpr std::uint8_t kVprzVersion = 2;
constexpr std::uint8_t kCodecStore = 0;
constexpr std::uint8_t kCodecZlib = 1;
/** Deflate's largest expansion: a 258-byte match coded in two bits. */
constexpr std::uint64_t kMaxDeflateRatio = 1032;

void
appendU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint64_t
loadLE64(const char *p)
{
    std::uint64_t w = 0;
    std::memcpy(&w, p, sizeof(w));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    w = __builtin_bswap64(w);
#endif
    return w;
}

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;

/** xxHash64's round: for a fixed @p word a bijection of @p acc, and
 *  for a fixed @p acc an injection of @p word (odd multipliers and a
 *  rotate are all invertible mod 2^64). */
inline std::uint64_t
mixRound(std::uint64_t acc, std::uint64_t word)
{
    acc += word * kPrime2;
    acc = (acc << 31) | (acc >> 33);
    return acc * kPrime1;
}

/**
 * The version-2 payload checksum. Word i of the payload (little-endian,
 * the last one zero-padded) goes through lane i % 4, so the four
 * dependency chains run side by side; the lanes then fold in order into
 * a state seeded by the length, and a final avalanche spreads every bit.
 * Each step is invertible in what it carries forward, so for a given
 * length a change confined to one word always reaches the sum.
 */
std::uint64_t
wordChecksum(std::string_view payload)
{
    const char *p = payload.data();
    const std::size_t n = payload.size();
    std::uint64_t lane[4] = {kPrime1, kPrime2, kPrime3,
                             kPrime1 ^ kPrime3};
    std::size_t i = 0;
    for (; n - i >= 32; i += 32) {
        lane[0] = mixRound(lane[0], loadLE64(p + i));
        lane[1] = mixRound(lane[1], loadLE64(p + i + 8));
        lane[2] = mixRound(lane[2], loadLE64(p + i + 16));
        lane[3] = mixRound(lane[3], loadLE64(p + i + 24));
    }
    std::size_t k = 0;
    for (; n - i >= 8; i += 8, ++k)
        lane[k] = mixRound(lane[k], loadLE64(p + i));
    if (i < n) {
        char tail[8] = {};
        std::memcpy(tail, p + i, n - i);
        lane[k] = mixRound(lane[k], loadLE64(tail));
    }
    std::uint64_t h = mixRound(kPrime3, n);
    for (std::uint64_t l : lane)
        h = mixRound(h, l);
    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    h ^= h >> 32;
    return h;
}

std::uint64_t
readU64(std::string_view in, std::size_t &pos)
{
    if (in.size() - pos < 8)
        throw CkptError("truncated VPRZ container");
    const std::uint64_t w = loadLE64(in.data() + pos);
    pos += 8;
    return w;
}

#ifdef VPR_HAVE_ZLIB

/** Deflate @p in through a z_stream in bounded chunks. */
std::string
deflateBytes(const std::string &in)
{
    z_stream zs;
    std::memset(&zs, 0, sizeof(zs));
    if (deflateInit(&zs, Z_DEFAULT_COMPRESSION) != Z_OK)
        throw CkptError("zlib deflateInit failed");
    std::string out;
    char chunk[64 * 1024];
    zs.next_in =
        reinterpret_cast<Bytef *>(const_cast<char *>(in.data()));
    zs.avail_in = static_cast<uInt>(in.size());
    int rc;
    do {
        zs.next_out = reinterpret_cast<Bytef *>(chunk);
        zs.avail_out = sizeof(chunk);
        rc = deflate(&zs, Z_FINISH);
        out.append(chunk, sizeof(chunk) - zs.avail_out);
    } while (rc == Z_OK);
    deflateEnd(&zs);
    if (rc != Z_STREAM_END)
        throw CkptError("zlib deflate failed");
    return out;
}

/** Inflate @p in straight into @p out, sized to exactly @p rawSize
 *  bytes; the stream must fill it and end there. */
void
inflateBytes(std::string_view in, std::uint64_t rawSize, std::string &out)
{
    z_stream zs;
    std::memset(&zs, 0, sizeof(zs));
    if (inflateInit(&zs) != Z_OK)
        throw CkptError("zlib inflateInit failed");
    out.assign(static_cast<std::size_t>(rawSize), '\0');
    zs.next_in = reinterpret_cast<Bytef *>(const_cast<char *>(in.data()));
    zs.avail_in = static_cast<uInt>(in.size());
    std::size_t produced = 0;
    unsigned char probe = 0;
    int rc = Z_OK;
    while (rc != Z_STREAM_END) {
        // Once the buffer is full, a one-byte probe tells a stream that
        // ends here from one that would inflate past the declared size.
        const bool full = produced == out.size();
        zs.next_out = full ? &probe
                           : reinterpret_cast<Bytef *>(&out[produced]);
        zs.avail_out = full ? 1u
                            : static_cast<uInt>(std::min<std::size_t>(
                                  out.size() - produced, 1u << 30));
        const uInt before = zs.avail_out;
        rc = inflate(&zs, Z_NO_FLUSH);
        if (rc != Z_OK && rc != Z_STREAM_END) {
            inflateEnd(&zs);
            throw CkptError("zlib inflate failed (corrupted stream)");
        }
        const uInt wrote = before - zs.avail_out;
        if (full && wrote) {
            inflateEnd(&zs);
            throw CkptError("VPRZ payload inflates past its declared "
                            "size");
        }
        produced += full ? 0 : wrote;
    }
    inflateEnd(&zs);
    if (produced != out.size())
        throw CkptError("VPRZ payload shorter than declared");
}

#endif // VPR_HAVE_ZLIB

} // namespace

FileFormat
guessFormat(const std::string &data)
{
    if (data.size() >= sizeof(kVprzMagic) &&
        std::memcmp(data.data(), kVprzMagic, sizeof(kVprzMagic)) == 0)
        return FileFormat::Vprz;
    return FileFormat::Plain;
}

bool
zlibAvailable()
{
#ifdef VPR_HAVE_ZLIB
    return true;
#else
    return false;
#endif
}

std::string
vprzPack(const std::string &payload, const std::string &kind,
         bool compress)
{
    std::uint8_t codec = kCodecStore;
    std::string stored;
#ifdef VPR_HAVE_ZLIB
    if (compress) {
        stored = deflateBytes(payload);
        codec = kCodecZlib;
    }
#else
    (void)compress;
#endif
    if (codec == kCodecStore)
        stored = payload;

    std::string out;
    out.reserve(4 + 2 + 2 + kind.size() + 8 + 8 + stored.size() + 8);
    out.append(kVprzMagic, sizeof(kVprzMagic));
    out.push_back(static_cast<char>(kVprzVersion));
    out.push_back(static_cast<char>(codec));
    out.push_back(static_cast<char>(kind.size() & 0xff));
    out.push_back(static_cast<char>((kind.size() >> 8) & 0xff));
    out += kind;
    appendU64(out, payload.size());
    appendU64(out, stored.size());
    out += stored;
    appendU64(out, wordChecksum(payload));
    return out;
}

std::string
vprzUnpack(const std::string &raw, const std::string &expectKind)
{
    std::string inflated;
    const std::string_view payload = vprzPayload(raw, expectKind, inflated);
    if (payload.data() == inflated.data())
        return inflated;
    return std::string(payload);
}

std::string_view
vprzPayload(std::string_view raw, std::string_view expectKind,
            std::string &inflated)
{
    if (raw.size() < 8 ||
        std::memcmp(raw.data(), kVprzMagic, sizeof(kVprzMagic)) != 0)
        throw CkptError("not a VPRZ container (wrong magic)");
    std::size_t pos = sizeof(kVprzMagic);
    std::uint8_t version = static_cast<unsigned char>(raw[pos++]);
    if (version != kVprzVersion && version != kVprzVersionFnv)
        throw CkptError("VPRZ container version skew (file v" +
                        std::to_string(version) + ", expected v" +
                        std::to_string(kVprzVersionFnv) + " or v" +
                        std::to_string(kVprzVersion) + ")");
    std::uint8_t codec = static_cast<unsigned char>(raw[pos++]);
    std::size_t kindLen =
        static_cast<unsigned char>(raw[pos]) |
        (static_cast<std::size_t>(static_cast<unsigned char>(raw[pos + 1]))
         << 8);
    pos += 2;
    if (raw.size() - pos < kindLen)
        throw CkptError("truncated VPRZ container");
    const std::string_view kind(raw.data() + pos, kindLen);
    pos += kindLen;
    if (!expectKind.empty() && kind != expectKind)
        throw CkptError("VPRZ payload kind mismatch (file holds '" +
                        std::string(kind) + "', expected '" +
                        std::string(expectKind) + "')");
    std::uint64_t rawSize = readU64(raw, pos);
    std::uint64_t storedSize = readU64(raw, pos);
    if (storedSize > raw.size() - pos || raw.size() - pos - storedSize < 8)
        throw CkptError("truncated VPRZ container");
    const std::string_view stored(raw.data() + pos, storedSize);
    pos += storedSize;
    std::uint64_t checksum = readU64(raw, pos);
    if (pos != raw.size())
        throw CkptError("trailing garbage after VPRZ container");

    std::string_view payload;
    if (codec == kCodecStore) {
        if (stored.size() != rawSize)
            throw CkptError("VPRZ stored size disagrees with raw size");
        payload = stored;
    } else if (codec == kCodecZlib) {
        // The raw size is not yet covered by the checksum, so bound it
        // by what the stored bytes can inflate to before allocating:
        // deflate expands at most kMaxDeflateRatio:1.
        if (rawSize > storedSize * kMaxDeflateRatio)
            throw CkptError("VPRZ raw size " + std::to_string(rawSize) +
                            " exceeds what " + std::to_string(storedSize) +
                            " stored bytes can inflate to");
#ifdef VPR_HAVE_ZLIB
        inflateBytes(stored, rawSize, inflated);
        payload = inflated;
#else
        throw CkptError("VPRZ payload is zlib-compressed but this "
                        "build has no zlib");
#endif
    } else {
        throw CkptError("unknown VPRZ codec " + std::to_string(codec));
    }
    const std::uint64_t sum =
        version == kVprzVersion
            ? wordChecksum(payload)
            : fnv1a(payload.data(), payload.size());
    if (sum != checksum)
        throw CkptError("VPRZ payload checksum mismatch (corrupted "
                        "file)");
    return payload;
}

bool
readFileBytes(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    std::setvbuf(f, nullptr, _IONBF, 0);
    // One read sized by the open file itself (so a concurrent atomic
    // re-publish of the path cannot tear it), then read on to EOF:
    // pipes report no size.
    struct stat st;
    const bool regular = ::fstat(::fileno(f), &st) == 0 &&
                         (st.st_mode & S_IFMT) == S_IFREG;
    out.resize(regular ? static_cast<std::size_t>(st.st_size) : 0);
    out.resize(std::fread(out.data(), 1, out.size(), f));
    char chunk[4096];
    while (!std::feof(f) && !std::ferror(f))
        out.append(chunk, std::fread(chunk, 1, sizeof(chunk), f));
    const bool ok = !std::ferror(f);
    std::fclose(f);
    return ok;
}

bool
FileBuffer::read(const std::string &path)
{
    len = 0;
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    // Sized by the open file itself, so a concurrent atomic re-publish
    // of the path cannot tear the read. A file that shrank underneath
    // reads short; the container checks then reject it.
    struct stat st;
    bool ok = ::fstat(fd, &st) == 0 && (st.st_mode & S_IFMT) == S_IFREG;
    if (ok) {
        const auto size = static_cast<std::size_t>(st.st_size);
        bytes.reset(new char[size]);  // default-initialized: no memset
        while (len < size) {
            const ssize_t got = ::read(fd, bytes.get() + len, size - len);
            if (got < 0 && errno == EINTR)
                continue;
            if (got <= 0) {
                ok = got == 0;
                break;
            }
            len += static_cast<std::size_t>(got);
        }
    }
    ::close(fd);
    if (!ok)
        len = 0;
    return ok;
}

bool
writeFileAtomic(const std::string &path, const std::string &data)
{
    // Unique per (process, thread-order) so concurrent writers — other
    // grid-cell threads or whole other processes sharing a checkpoint
    // directory — never collide on the temp name; rename() then makes
    // the publish atomic (last writer wins with identical content).
    static std::atomic<unsigned> tmpCounter{0};
    std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                      std::to_string(tmpCounter.fetch_add(1));
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return false;
        os.write(data.data(),
                 static_cast<std::streamsize>(data.size()));
        if (!os) {
            os.close();
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace vpr
