#include "sim/metrics.hh"

#include <charconv>
#include <iomanip>
#include <ostream>

namespace vpr
{

const std::string &
Metric::name() const
{
    return stats::SymbolTable::global().text(nameSym);
}

const std::string &
Metric::desc() const
{
    return stats::SymbolTable::global().text(descSym);
}

std::size_t
Metric::writeText(char *buf) const
{
    char *const end = buf + kMaxTextLen;
    const std::to_chars_result r =
        kind == Kind::UInt
            ? std::to_chars(buf, end, uval)
            : std::to_chars(buf, end, rval, std::chars_format::general, 17);
    return static_cast<std::size_t>(r.ptr - buf);
}

std::string
Metric::text() const
{
    char buf[kMaxTextLen];
    return std::string(buf, writeText(buf));
}

Metric &
MetricsRecord::slot(stats::SymId name, stats::SymId desc)
{
    // Revisits of the same stats tree arrive in insertion order; the
    // cursor turns each lookup into a single compare. Out-of-order
    // writes (derived-metric setters, sampled-run folding) fall back
    // to the index and re-anchor the cursor behind themselves.
    if (cursor >= metrics.size())
        cursor = 0;
    if (cursor < metrics.size() && metrics[cursor].nameSym == name)
        return metrics[cursor++];
    if (name < position.size() && position[name] != 0) {
        cursor = position[name];
        return metrics[cursor - 1];
    }
    if (metrics.empty()) {
        // A record is almost always one full stats-tree walk; reserving
        // for a paper-config-sized schema avoids the reallocation churn
        // of growing through ~800 insertions.
        metrics.reserve(1024);
    }
    if (name >= position.size())
        position.resize(name + 1, 0);  // capacity grows geometrically
    position[name] = static_cast<std::uint32_t>(metrics.size() + 1);
    metrics.push_back(Metric{name, desc, Metric::Kind::UInt, 0, 0.0});
    cursor = metrics.size();
    return metrics.back();
}

void
MetricsRecord::visitUInt(stats::SymId name, stats::SymId desc,
                         std::uint64_t v)
{
    Metric &m = slot(name, desc);
    m.kind = Metric::Kind::UInt;
    m.uval = v;
}

void
MetricsRecord::visitReal(stats::SymId name, stats::SymId desc, double v)
{
    Metric &m = slot(name, desc);
    m.kind = Metric::Kind::Real;
    m.rval = v;
}

void
MetricsRecord::setUInt(const std::string &name, const std::string &desc,
                       std::uint64_t v)
{
    auto &tab = stats::SymbolTable::global();
    visitUInt(tab.intern(name), tab.intern(desc), v);
}

void
MetricsRecord::setReal(const std::string &name, const std::string &desc,
                       double v)
{
    auto &tab = stats::SymbolTable::global();
    visitReal(tab.intern(name), tab.intern(desc), v);
}

const Metric *
MetricsRecord::findMetric(const std::string &name) const
{
    // Read-only lookups must not grow the intern table: a name that
    // was never interned is by construction absent from every record.
    const stats::SymId id = stats::SymbolTable::global().find(name);
    if (id == 0 || id >= position.size() || position[id] == 0)
        return nullptr;
    return &metrics[position[id] - 1];
}

bool
MetricsRecord::has(const std::string &name) const
{
    return findMetric(name) != nullptr;
}

std::uint64_t
MetricsRecord::counter(const std::string &name) const
{
    const Metric *m = findMetric(name);
    if (!m)
        return 0;
    return m->kind == Metric::Kind::UInt
               ? m->uval
               : static_cast<std::uint64_t>(m->rval);
}

double
MetricsRecord::real(const std::string &name) const
{
    const Metric *m = findMetric(name);
    return m ? m->asReal() : 0.0;
}

bool
MetricsRecord::sameSchema(const MetricsRecord &other) const
{
    if (metrics.size() != other.metrics.size())
        return false;
    for (std::size_t i = 0; i < metrics.size(); ++i)
        if (metrics[i].nameSym != other.metrics[i].nameSym)
            return false;
    return true;
}

void
printMetricHistogram(std::ostream &os, const MetricsRecord &m,
                     const std::string &stem)
{
    const std::uint64_t lo = m.counter(stem + ".range_min");
    const std::uint64_t width = m.counter(stem + ".bucket_size");
    const std::uint64_t under = m.counter(stem + ".underflows");
    const std::uint64_t over = m.counter(stem + ".overflows");
    std::vector<std::uint64_t> counts;
    std::uint64_t total = under + over, peak = 0;
    for (std::size_t i = 0;; ++i) {
        const std::string name =
            stem + ".hist[" + std::to_string(i) + "]";
        if (!m.has(name))
            break;
        counts.push_back(m.counter(name));
        total += counts.back();
        peak = peak > counts.back() ? peak : counts.back();
    }
    if (total == 0 || width == 0) {
        os << "    (no samples)\n";
        return;
    }
    // Percentages are of *all* samples, clipped mass included, so the
    // bars never overstate the in-range share.
    auto percent = [&](std::uint64_t c) {
        return 100.0 * static_cast<double>(c) /
               static_cast<double>(total);
    };
    for (std::size_t i = 0; i < counts.size(); ++i) {
        const std::size_t bar = peak
            ? static_cast<std::size_t>(
                  40.0 * static_cast<double>(counts[i]) /
                      static_cast<double>(peak) + 0.5)
            : 0;
        os << "    [" << std::right << std::setw(3) << lo + i * width
           << ".." << std::setw(3) << (lo + (i + 1) * width - 1) << "] "
           << std::setw(6) << std::fixed << std::setprecision(1)
           << percent(counts[i]) << std::defaultfloat << "% "
           << std::string(bar, '#') << "\n";
    }
    if (under)
        os << "    below range " << std::setw(6) << std::fixed
           << std::setprecision(1) << percent(under)
           << std::defaultfloat << "%\n";
    if (over)
        os << "    above range " << std::setw(6) << std::fixed
           << std::setprecision(1) << percent(over) << std::defaultfloat
           << "%\n";
}

} // namespace vpr
