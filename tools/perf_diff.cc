/**
 * @file
 * Compare two google-benchmark JSON exports: a checked-in baseline
 * (BENCH_<n>.json) against a fresh run.
 *
 * Matches benchmarks by name, compares real_time, and prints a delta
 * table. Rows regressing past the threshold get a WARNING; the exit
 * status stays 0 unless --gate is given, because shared-runner timings
 * are too noisy to gate CI on — the table in the job log and the
 * checked-in trajectory are the record.
 *
 *   perf_diff [options] <baseline.json> <current.json>
 *     --filter=<substr>    only rows whose name contains <substr>;
 *                          repeatable, a row matching any filter is
 *                          kept (default: BM_SimulatorEndToEnd; use
 *                          --filter= for everything)
 *     --threshold=<pct>    regression warning threshold (default 10)
 *     --gate               exit 1 if any row regresses past threshold
 *
 * Both files' context blocks are checked for the build flavour. The
 * bench binary records "vpr_build_type" (NDEBUG-derived — the library's
 * own "library_build_type" only describes how the distro built
 * libbenchmark and is "debug" on Debian even for release simulator
 * trees). A debug *baseline* is a hard error regardless of --gate:
 * every diff against it is meaningless, so there is nothing useful to
 * print (three early baselines were once recorded from a debug tree
 * without anyone noticing). A debug *current* file draws a warning,
 * and a failing exit under --gate.
 *
 * The parser is deliberately small: it scans the "benchmarks" array for
 * "name"/"real_time"/"time_unit" fields rather than pulling in a JSON
 * library. Aggregate rows (_mean/_median/_stddev/_cv) are kept; when a
 * benchmark was run with repetitions, only the _mean rows are compared.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace
{

struct BenchRow
{
    std::string name;
    double realTime = 0.0;
    std::string unit;
};

/** Extract the JSON string value following `"key":` at/after @p pos. */
std::string
stringField(const std::string &text, std::size_t objAt, const char *key)
{
    std::string pat = std::string("\"") + key + "\":";
    std::size_t k = text.find(pat, objAt);
    if (k == std::string::npos)
        return "";
    std::size_t q1 = text.find('"', k + pat.size());
    if (q1 == std::string::npos)
        return "";
    std::size_t q2 = text.find('"', q1 + 1);
    if (q2 == std::string::npos)
        return "";
    return text.substr(q1 + 1, q2 - q1 - 1);
}

/** Extract the numeric value following `"key":` at/after @p pos. */
double
numberField(const std::string &text, std::size_t objAt, const char *key)
{
    std::string pat = std::string("\"") + key + "\":";
    std::size_t k = text.find(pat, objAt);
    if (k == std::string::npos)
        return NAN;
    return std::strtod(text.c_str() + k + pat.size(), nullptr);
}

/**
 * The export's build flavour: "release", "debug", or "" (unknown).
 * Trusts "vpr_build_type" (written by the bench binary, NDEBUG-derived)
 * when present; falls back to the library's "library_build_type" for
 * exports that predate the custom context — which misclassifies
 * release simulator trees linked against a distro debug libbenchmark,
 * and that is deliberate: an old baseline that cannot prove it was a
 * release build must be re-recorded, not trusted.
 */
std::string
buildFlavour(const std::string &text)
{
    std::string t = stringField(text, 0, "vpr_build_type");
    if (t.empty())
        t = stringField(text, 0, "library_build_type");
    if (t.empty())
        return "";
    return t == "release" ? "release" : "debug";
}

/** All rows of the "benchmarks" array of one benchmark JSON export. */
std::vector<BenchRow>
parseBenchmarks(const std::string &path, std::string &flavour)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "perf_diff: cannot open " << path << "\n";
        std::exit(2);
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    flavour = buildFlavour(text);

    std::vector<BenchRow> rows;
    std::size_t arr = text.find("\"benchmarks\":");
    if (arr == std::string::npos)
        return rows;
    // Each row object begins with its "name" field.
    for (std::size_t pos = text.find("\"name\":", arr);
         pos != std::string::npos;
         pos = text.find("\"name\":", pos + 1)) {
        BenchRow row;
        row.name = stringField(text, pos, "name");
        row.realTime = numberField(text, pos, "real_time");
        row.unit = stringField(text, pos, "time_unit");
        if (!row.name.empty() && !std::isnan(row.realTime))
            rows.push_back(row);
    }
    return rows;
}

const BenchRow *
findRow(const std::vector<BenchRow> &rows, const std::string &name)
{
    for (const BenchRow &r : rows)
        if (r.name == name)
            return &r;
    return nullptr;
}

bool
endsWith(const std::string &s, const char *suffix)
{
    std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> filters;
    bool matchAll = false;
    double threshold = 10.0;
    bool gate = false;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--filter=", 0) == 0) {
            std::string f = arg.substr(9);
            if (f.empty())
                matchAll = true;
            else
                filters.push_back(f);
        } else if (arg.rfind("--threshold=", 0) == 0) {
            threshold = std::strtod(arg.c_str() + 12, nullptr);
        } else if (arg == "--gate") {
            gate = true;
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "usage: perf_diff [--filter=SUBSTR]... "
                         "[--threshold=PCT] [--gate] "
                         "<baseline.json> <current.json>\n";
            return 0;
        } else {
            files.push_back(arg);
        }
    }
    if (files.size() != 2) {
        std::cerr << "perf_diff: need exactly two JSON files "
                     "(baseline, current)\n";
        return 2;
    }

    std::string baseFlavour, curFlavour;
    auto baseline = parseBenchmarks(files[0], baseFlavour);
    auto current = parseBenchmarks(files[1], curFlavour);

    // A debug baseline poisons every row of the table, so this is a
    // hard error even without --gate — refusing is the only output
    // that cannot mislead.
    if (baseFlavour == "debug") {
        std::cerr << "perf_diff: ERROR: baseline " << files[0]
                  << " was recorded from a debug build (or cannot "
                     "prove otherwise); timings from debug trees are "
                     "not comparable. Re-record it from a Release "
                     "tree with the perf-baseline target.\n";
        return 2;
    }
    if (curFlavour == "debug")
        std::cerr << "perf_diff: WARNING: " << files[1]
                  << " was recorded from a debug build; deltas below "
                     "overstate every cost. Rebuild in Release before "
                     "trusting (or gating on) this table.\n";
    const bool buildTypeOk = curFlavour != "debug";

    if (filters.empty() && !matchAll)
        filters.push_back("BM_SimulatorEndToEnd");
    auto matches = [&](const std::string &name) {
        if (matchAll)
            return true;
        for (const std::string &f : filters)
            if (name.find(f) != std::string::npos)
                return true;
        return false;
    };

    // Prefer _mean aggregates when present on the baseline side.
    bool hasMeans = false;
    for (const BenchRow &r : baseline)
        hasMeans = hasMeans || endsWith(r.name, "_mean");

    std::printf("%-48s %12s %12s %9s\n", "benchmark", "baseline",
                "current", "delta");
    int compared = 0, regressed = 0;
    for (const BenchRow &b : baseline) {
        if (!matches(b.name))
            continue;
        if (hasMeans && !endsWith(b.name, "_mean"))
            continue;
        const BenchRow *c = findRow(current, b.name);
        if (!c) {
            std::printf("%-48s %12.4g %12s %9s\n", b.name.c_str(),
                        b.realTime, "-", "gone");
            continue;
        }
        double delta = 100.0 * (c->realTime - b.realTime) / b.realTime;
        bool warn = delta > threshold;
        std::printf("%-48s %10.4g %s %10.4g %s %+8.1f%%%s\n",
                    b.name.c_str(), b.realTime, b.unit.c_str(),
                    c->realTime, c->unit.c_str(), delta,
                    warn ? "  WARNING: regression" : "");
        ++compared;
        if (warn)
            ++regressed;
    }

    if (compared == 0) {
        std::cerr << "perf_diff: no common benchmarks matched the "
                     "filter(s)\n";
        return 2;
    }
    if (regressed > 0) {
        std::cerr << "perf_diff: " << regressed << "/" << compared
                  << " benchmarks regressed more than " << threshold
                  << "% (timings on shared runners are noisy; see the "
                     "table)\n";
        return gate ? 1 : 0;
    }
    if (!buildTypeOk && gate) {
        std::cerr << "perf_diff: refusing to gate on non-release "
                     "timings\n";
        return 1;
    }
    std::cout << "perf_diff: " << compared
              << " benchmarks within threshold\n";
    return 0;
}
