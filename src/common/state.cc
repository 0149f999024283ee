#include "common/state.hh"

#include <cstring>

namespace vpr
{

std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t seed)
{
    std::uint64_t h = seed;
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

void
StateVisitor::section(const char *name)
{
    std::uint64_t tag = fnv1a(name, std::strlen(name));
    std::uint64_t got = tag;
    word(got);
    if (loading() && got != tag)
        throw CkptError(std::string("section tag mismatch at '") + name +
                        "' (layout drift or corruption)");
}

void
StateSaver::word(std::uint64_t &v)
{
    char le[8];
    for (int i = 0; i < 8; ++i)
        le[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    buf.append(le, 8);
}

void
StateSaver::bytes(void *p, std::size_t n)
{
    buf.append(static_cast<const char *>(p), n);
}

void
StateLoader::word(std::uint64_t &v)
{
    if (buf.size() - pos < 8)
        throw CkptError("truncated checkpoint payload");
    std::uint64_t w = 0;
    for (int i = 0; i < 8; ++i)
        w |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(buf[pos + i]))
             << (8 * i);
    pos += 8;
    v = w;
}

void
StateLoader::bytes(void *p, std::size_t n)
{
    if (buf.size() - pos < n)
        throw CkptError("truncated checkpoint payload");
    std::memcpy(p, buf.data() + pos, n);
    pos += n;
}

namespace
{

const char kCkptMagic[8] = {'V', 'P', 'R', 'C', 'K', 'P', 'T', '\0'};

void
appendWord(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint64_t
readWord(std::string_view in, std::size_t &pos)
{
    if (in.size() - pos < 8)
        throw CkptError("truncated checkpoint header");
    std::uint64_t w = 0;
    for (int i = 0; i < 8; ++i)
        w |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(in[pos + i]))
             << (8 * i);
    pos += 8;
    return w;
}

} // namespace

std::string
packCheckpoint(CkptScope scope, std::uint64_t digest,
               const std::string &payload)
{
    std::string out;
    out.reserve(sizeof(kCkptMagic) + 5 * 8 + payload.size());
    out.append(kCkptMagic, sizeof(kCkptMagic));
    appendWord(out, kStateFormatVersion);
    appendWord(out, static_cast<std::uint64_t>(scope));
    appendWord(out, digest);
    appendWord(out, payload.size());
    out += payload;
    appendWord(out, fnv1a(payload));
    return out;
}

std::string
unpackCheckpoint(const std::string &raw, CkptScope expectScope,
                 std::uint64_t expectDigest)
{
    return std::string(checkpointPayload(raw, expectScope, expectDigest));
}

std::string_view
checkpointPayload(std::string_view raw, CkptScope expectScope,
                  std::uint64_t expectDigest)
{
    if (raw.size() < sizeof(kCkptMagic))
        throw CkptError("truncated checkpoint (no magic)");
    if (std::memcmp(raw.data(), kCkptMagic, sizeof(kCkptMagic)) != 0)
        throw CkptError("not a checkpoint (wrong magic)");
    std::size_t pos = sizeof(kCkptMagic);
    std::uint64_t version = readWord(raw, pos);
    if (version != kStateFormatVersion)
        throw CkptError("checkpoint format version skew (file v" +
                        std::to_string(version) + ", expected v" +
                        std::to_string(kStateFormatVersion) + ")");
    std::uint64_t scope = readWord(raw, pos);
    if (scope != static_cast<std::uint64_t>(expectScope))
        throw CkptError("checkpoint scope mismatch");
    std::uint64_t digest = readWord(raw, pos);
    if (expectDigest != 0 && digest != expectDigest)
        throw CkptError("warm-state digest mismatch (stale checkpoint "
                        "for a different warm-relevant configuration)");
    std::uint64_t size = readWord(raw, pos);
    if (size > raw.size() - pos || raw.size() - pos - size < 8)
        throw CkptError("truncated checkpoint payload");
    const std::string_view payload = raw.substr(pos, size);
    pos += size;
    if (readWord(raw, pos) != fnv1a(payload.data(), payload.size()))
        throw CkptError("checkpoint payload checksum mismatch "
                        "(corrupted file)");
    if (pos != raw.size())
        throw CkptError("trailing garbage after checkpoint payload");
    return payload;
}

} // namespace vpr
