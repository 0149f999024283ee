/**
 * @file
 * MetricsRecord: the self-describing result record of one simulation.
 *
 * A record is an ordered list of (name, desc, typed value) metrics,
 * keyed by stable dotted names ("core.ipc", "memory.cache_miss_rate").
 * It is populated by visiting stats::StatGroups — MetricsRecord *is* a
 * StatVisitor — so any subsystem that registers stats is exported
 * without bespoke glue. Insertion order is the export schema order:
 * two records built from the same groups have identical schemas, which
 * is what lets shard files from different hosts be merged column-safe.
 *
 * Names and descriptions are stored as interned SymIds; a steady-state
 * revisit of an already-built record (sampled runs revisit one record
 * per measurement interval) touches no strings and — thanks to the
 * in-order cursor below — no lookups either. Text comes back out
 * only through the name()/desc() accessors at serialization time.
 *
 * The name index is a flat position table indexed by SymId, so a
 * lookup is one array read and copying a record (a result-cache hit
 * hands one to every grid cell it serves) costs two allocations
 * however many metrics it holds.
 */

#ifndef VPR_SIM_METRICS_HH
#define VPR_SIM_METRICS_HH

#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace vpr
{

/** One named value of a MetricsRecord. */
struct Metric
{
    enum class Kind : std::uint8_t { UInt, Real };

    stats::SymId nameSym = 0;
    stats::SymId descSym = 0;
    Kind kind = Kind::UInt;
    std::uint64_t uval = 0;
    double rval = 0.0;

    /** Interned text, resolved at the serialization boundary. @{ */
    const std::string &name() const;
    const std::string &desc() const;
    /** @} */

    /** The value as a double regardless of kind. */
    double
    asReal() const
    {
        return kind == Kind::UInt ? static_cast<double>(uval) : rval;
    }

    /** The value's 64 bits: a counter as is, a real as its IEEE-754
     *  encoding (MetricsRecord::setBitsAt inverts it). */
    std::uint64_t
    bits() const
    {
        if (kind == Kind::UInt)
            return uval;
        std::uint64_t b = 0;
        std::memcpy(&b, &rval, sizeof(b));
        return b;
    }

    /** Exact text form: integers in full, reals with round-trip
     *  precision (17 significant digits, printf's "%.17g"). */
    std::string text() const;

    /** Longest text(): 20 counter digits, or a real such as
     *  "-2.2250738585072014e-308". */
    static constexpr std::size_t kMaxTextLen = 32;

    /** Write text() into @p buf (kMaxTextLen bytes) without allocating;
     *  returns its length. */
    std::size_t writeText(char *buf) const;
};

/** An ordered, name-indexed collection of metrics. */
class MetricsRecord : public stats::StatVisitor
{
  public:
    /** StatVisitor: append (or overwrite) a metric. @{ */
    void visitUInt(stats::SymId name, stats::SymId desc,
                   std::uint64_t v) override;
    void visitReal(stats::SymId name, stats::SymId desc,
                   double v) override;
    /** @} */

    /** Direct setters for derived metrics; the SymId overloads are the
     *  allocation-free path for names already in hand. @{ */
    void
    setUInt(stats::SymId name, stats::SymId desc, std::uint64_t v)
    {
        visitUInt(name, desc, v);
    }

    void
    setReal(stats::SymId name, stats::SymId desc, double v)
    {
        visitReal(name, desc, v);
    }

    void setUInt(const std::string &name, const std::string &desc,
                 std::uint64_t v);
    void setReal(const std::string &name, const std::string &desc,
                 double v);
    /** @} */

    /** Overwrite the value of the metric at schema position @p i from
     *  its Metric::bits(), keeping its name and kind: a record copied
     *  from a schema prototype is filled without a name lookup. */
    void
    setBitsAt(std::size_t i, std::uint64_t bits)
    {
        Metric &m = metrics[i];
        if (m.kind == Metric::Kind::UInt)
            m.uval = bits;
        else
            std::memcpy(&m.rval, &bits, sizeof(bits));
    }

    bool has(const std::string &name) const;

    /** Value lookups; a missing name returns 0 (empty record). @{ */
    std::uint64_t counter(const std::string &name) const;
    double real(const std::string &name) const;
    /** @} */

    /** Metrics in schema (insertion) order. */
    const std::vector<Metric> &all() const { return metrics; }

    std::size_t size() const { return metrics.size(); }
    bool empty() const { return metrics.empty(); }

    /** True if @p other has the same metric names in the same order. */
    bool sameSchema(const MetricsRecord &other) const;

  private:
    Metric &slot(stats::SymId name, stats::SymId desc);
    const Metric *findMetric(const std::string &name) const;

    std::vector<Metric> metrics;
    /** Position + 1 of each name's metric, indexed by its SymId; 0 (or
     *  an id past the end) means absent. SymIds are dense, small
     *  integers handed out by the process-wide symbol table. */
    std::vector<std::uint32_t> position;
    /** Expected position of the next visited name. A revisit of the
     *  same stats tree arrives in schema order, so every lookup is one
     *  integer compare instead of a hash probe. */
    std::size_t cursor = 0;
};

/**
 * Render the histogram a Distribution exported under @p stem
 * ("<stem>.hist[i]", with its geometry from "<stem>.range_min" and
 * "<stem>.bucket_size") as indented ASCII bars with a per-bucket
 * percentage of *all* samples (clipped mass gets below/above-range
 * lines), one line per bucket. Reads only the record, so tables
 * re-rendered from merged shard files are byte-identical.
 */
void printMetricHistogram(std::ostream &os, const MetricsRecord &m,
                          const std::string &stem);

} // namespace vpr

#endif // VPR_SIM_METRICS_HH
