#include "sim/result_cache.hh"

#include <array>
#include <memory>
#include <mutex>
#include <sstream>
#include <string_view>

#include "common/state.hh"
#include "sim/experiment.hh"
#include "sim/params.hh"

namespace vpr
{

namespace
{

/** Round-trip-exact text of the global instruction scale (the same
 *  rendering results_io records in the file metadata). */
std::string
scaleKeyText()
{
    std::ostringstream os;
    os.precision(17);
    os << instructionScale();
    return os.str();
}

/** Little-endian u64 at @p p (one load on little-endian hosts). */
std::uint64_t
loadU64(const char *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/** LEB128: seven bits per byte, high bit set on all but the last. */
void
putVarint(std::string &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

void
putBytes(std::string &out, std::string_view bytes)
{
    putVarint(out, bytes.size());
    out.append(bytes);
}

/** Bounds-checked cursor over an entry; every short read throws. */
class EntryReader
{
  public:
    EntryReader(std::string_view in, const char *section)
        : in(in), section(section)
    {}

    std::uint8_t
    u8()
    {
        need(1);
        return static_cast<unsigned char>(in[pos++]);
    }

    std::uint64_t
    u64()
    {
        need(8);
        const std::uint64_t v = loadU64(in.data() + pos);
        pos += 8;
        return v;
    }

    std::uint64_t
    varint()
    {
        std::uint64_t v = 0;
        for (int shift = 0; shift < 64; shift += 7) {
            const std::uint8_t b = u8();
            v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if (!(b & 0x80))
                return v;
        }
        fail("overlong varint");
    }

    std::string_view
    bytes(std::uint64_t n)
    {
        need(n);
        const std::string_view out = in.substr(pos, n);
        pos += n;
        return out;
    }

    /** A varint length followed by that many bytes. */
    std::string_view lengthPrefixed() { return bytes(varint()); }

    std::string_view rest() { return bytes(in.size() - pos); }
    bool done() const { return pos == in.size(); }

    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw CkptError(std::string("result-cache entry: ") + section +
                        ": " + what);
    }

  private:
    void
    need(std::uint64_t n) const
    {
        if (n > in.size() - pos)
            fail("truncated");
    }

    std::string_view in;
    const char *section;
    std::size_t pos = 0;
};

/**
 * One metric schema: the encoded schema section of an entry and a
 * record with its names, descriptions and kinds (a load copies it and
 * overwrites every value). Immutable once built, so workers share it
 * without locking.
 */
struct ResultSchema
{
    std::string bytes;  ///< encoded schema section
    MetricsRecord proto;
};

/**
 * Process-wide memo of the schemas loads have decoded: a paper sweep
 * has one schema per simulation mode, so after the first entry of
 * each, a load interns nothing and only copies values. Bounded, with
 * round-robin replacement, and keyed by the schema bytes themselves:
 * over a few slots a size check and a memcmp cost less than hashing
 * the section.
 */
class SchemaMemo
{
  public:
    using Ptr = std::shared_ptr<const ResultSchema>;

    static SchemaMemo &
    global()
    {
        static SchemaMemo memo;
        return memo;
    }

    /** The memoized schema encoded as @p bytes, or null. */
    Ptr
    find(std::string_view bytes) const
    {
        std::lock_guard<std::mutex> lock(mtx);
        return findLocked(bytes);
    }

    /** Memoize @p schema; returns the entry to use, which is an equal
     *  one another worker inserted first, if any. */
    Ptr
    insert(Ptr schema)
    {
        std::lock_guard<std::mutex> lock(mtx);
        if (Ptr first = findLocked(schema->bytes))
            return first;
        slots[next] = schema;
        next = (next + 1) % slots.size();
        return schema;
    }

  private:
    Ptr
    findLocked(std::string_view bytes) const
    {
        for (const Ptr &s : slots)
            if (s && s->bytes == bytes)
                return s;
        return nullptr;
    }

    mutable std::mutex mtx;
    std::array<Ptr, 8> slots;
    std::size_t next = 0;
};

/** Encode the schema section of @p record: the distinct descriptions
 *  in first-use order, then per metric its name front-coded against
 *  the previous one, its kind and its description index. */
std::string
encodeSchema(const MetricsRecord &record)
{
    // Description index by SymId (ids are dense): no per-entry nodes.
    constexpr std::uint32_t kUnseen = ~std::uint32_t{0};
    std::vector<stats::SymId> descs;
    std::vector<std::uint32_t> descIndex;
    for (const Metric &m : record.all()) {
        if (m.descSym >= descIndex.size())
            descIndex.resize(m.descSym + 1, kUnseen);
        if (descIndex[m.descSym] == kUnseen) {
            descIndex[m.descSym] = static_cast<std::uint32_t>(descs.size());
            descs.push_back(m.descSym);
        }
    }

    std::string out;
    out.reserve(16 * record.size());  // ~10 bytes per paper metric
    putVarint(out, descs.size());
    for (stats::SymId d : descs)
        putBytes(out, stats::SymbolTable::global().text(d));
    putVarint(out, record.size());
    std::string_view prev;
    for (const Metric &m : record.all()) {
        const std::string_view name = m.name();
        std::size_t shared = 0;
        while (shared < prev.size() && shared < name.size() &&
               prev[shared] == name[shared])
            ++shared;
        putVarint(out, shared);
        putBytes(out, name.substr(shared));
        out.push_back(static_cast<char>(m.kind));
        putVarint(out, descIndex[m.descSym]);
        prev = name;
    }
    return out;
}

/** Invert encodeSchema, interning every text; throws CkptError on any
 *  malformed field. */
MetricsRecord
decodeSchema(std::string_view bytes)
{
    EntryReader r(bytes, "schema");
    auto &symbols = stats::SymbolTable::global();
    const std::uint64_t descCount = r.varint();
    std::vector<stats::SymId> descs;
    for (std::uint64_t i = 0; i < descCount; ++i)
        descs.push_back(symbols.intern(r.lengthPrefixed()));

    const std::uint64_t count = r.varint();
    MetricsRecord record;
    std::string name;
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t shared = r.varint();
        if (shared > name.size())
            r.fail("name prefix longer than the previous name");
        name.resize(shared);
        name += r.lengthPrefixed();
        const std::uint8_t kind = r.u8();
        const std::uint64_t desc = r.varint();
        if (desc >= descs.size())
            r.fail("description index out of range");
        const stats::SymId sym = symbols.intern(name);
        if (kind == static_cast<std::uint8_t>(Metric::Kind::UInt))
            record.setUInt(sym, descs[desc], 0);
        else if (kind == static_cast<std::uint8_t>(Metric::Kind::Real))
            record.setReal(sym, descs[desc], 0.0);
        else
            r.fail("unknown metric kind");
    }
    if (!r.done())
        r.fail("trailing bytes");
    if (record.size() != count)
        r.fail("duplicate metric names");
    return record;
}

/** The memoized schema encoded as @p bytes, decoded on first sight. */
SchemaMemo::Ptr
schemaFromBytes(std::string_view bytes)
{
    if (SchemaMemo::Ptr hit = SchemaMemo::global().find(bytes))
        return hit;
    auto schema = std::make_shared<ResultSchema>();
    schema->proto = decodeSchema(bytes);
    schema->bytes = std::string(bytes);
    return SchemaMemo::global().insert(std::move(schema));
}

/** Serialize one record (see the file comment for the layout).
 *  Counters travel as their value and reals as raw IEEE-754 bits, so
 *  a replayed record renders byte-identically in every exporter. */
std::string
encodeEntry(std::uint64_t digest, const std::string &benchmark,
            const SimResults &results)
{
    const std::string schema = encodeSchema(results.metrics);
    std::string out;
    out.reserve(32 + benchmark.size() + schema.size() +
                8 * results.metrics.size());
    putVarint(out, kResultCacheFormatVersion);
    putU64(out, digest);
    putBytes(out, benchmark);
    putBytes(out, schema);
    for (const Metric &m : results.metrics.all())
        putU64(out, m.bits());
    return out;
}

/** Invert encodeEntry; throws CkptError on any malformed or
 *  mismatching field. */
SimResults
decodeEntry(std::string_view payload, std::uint64_t expectDigest,
            const std::string &expectBenchmark)
{
    EntryReader r(payload, "header");
    if (r.varint() != kResultCacheFormatVersion)
        r.fail("format version skew");
    if (r.u64() != expectDigest)
        r.fail("digest mismatch (entry for a different configuration)");
    if (r.lengthPrefixed() != expectBenchmark)
        r.fail("benchmark mismatch");
    const SchemaMemo::Ptr schema = schemaFromBytes(r.lengthPrefixed());

    const std::string_view values = r.rest();
    if (values.size() != 8 * schema->proto.size())
        throw CkptError("result-cache entry: values: " +
                        std::to_string(values.size()) +
                        " bytes for " +
                        std::to_string(schema->proto.size()) +
                        " metrics");
    SimResults out;
    out.metrics = schema->proto;
    for (std::size_t i = 0; i < out.metrics.size(); ++i)
        out.metrics.setBitsAt(i, loadU64(values.data() + 8 * i));
    return out;
}

} // namespace

ResultCacheCounters &
resultCacheCounters()
{
    return resultStore().counters();
}

std::uint64_t
resultCacheDigest(const GridCell &cell)
{
    std::uint64_t h = fnv1a("result", 6);
    const std::uint64_t version = kResultCacheFormatVersion;
    h = fnv1a(&version, sizeof(version), h);
    // The instruction scale rescales skip/measure after provenance is
    // recorded, so it is part of the content key even though it is not
    // a parameter.
    const std::string scale = "scale=" + scaleKeyText() + "\n";
    h = fnv1a(scale.data(), scale.size(), h);
    // One "name=value\n" line per provenance entry, hashed in pieces.
    for (const auto &[name, value] : configProvenance(cell.config)) {
        h = fnv1a(name.data(), name.size(), h);
        h = fnv1a("=", 1, h);
        h = fnv1a(value.data(), value.size(), h);
        h = fnv1a("\n", 1, h);
    }
    h = fnv1a(cell.benchmark.data(), cell.benchmark.size(), h);
    return h;
}

bool
loadCachedResult(const std::string &dir, const GridCell &cell,
                 SimResults &out)
{
    const std::uint64_t digest = resultCacheDigest(cell);
    return resultStore().load(
        dir, cell.benchmark, digest, [&](std::string_view payload) {
            out = decodeEntry(payload, digest, cell.benchmark);
        });
}

void
storeCachedResult(const std::string &dir, const GridCell &cell,
                  const SimResults &results)
{
    const std::uint64_t digest = resultCacheDigest(cell);
    resultStore().save(dir, cell.benchmark, digest,
                       encodeEntry(digest, cell.benchmark, results));
}

} // namespace vpr
