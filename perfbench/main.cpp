/**
 * @file
 * zac_perfbench: one run of one workload of the production-path
 * benchmark (see perfbench/README.md). Prints human-readable progress on
 * stderr and, as the last stdout line, one JSON object:
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 *   usage: zac_perfbench --workload wide|deep|serve --seed N
 *                        --seconds S --trace 0|1 --out-dir DIR
 *                        --serve-bin PATH --digests FILE
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "common/json.hpp"

namespace perfbench
{

void
Result::fail(const std::string &what)
{
    ++failed;
    correct = false;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
peakRssMb()
{
    struct rusage ru {};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

int
Tracer::begin(const std::string &name, const std::string &label,
              int parent)
{
    Span s;
    s.parent = parent;
    s.name = name;
    s.label = label;
    s.start = now();
    s.end = s.start;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
}

int
Tracer::add(const std::string &name, const std::string &label, int parent,
            Clock::time_point t0, Clock::time_point t1)
{
    Span s;
    s.parent = parent;
    s.name = name;
    s.label = label;
    s.start = secondsBetween(origin_, t0);
    s.end = secondsBetween(origin_, t1);
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    // Children of one parent never overlap in this benchmark (each
    // parent's children are sequential calls on one thread), so the
    // covered part is the sum of the children's durations.
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] +=
            (spans_[i].end - spans_[i].start) - child[i];
    return out;
}

void
Tracer::writeJson(const std::string &path) const
{
    zac::json::Array arr;
    arr.reserve(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        zac::json::Object o{{"id", static_cast<std::int64_t>(i)},
                            {"parent", s.parent},
                            {"name", s.name},
                            {"label", s.label},
                            {"start_s", s.start},
                            {"end_s", s.end}};
        for (const auto &[k, v] : s.attrs)
            o[k] = v;
        arr.push_back(std::move(o));
    }
    zac::json::writeFile(path, zac::json::Value(std::move(arr)));
}

} // namespace perfbench

namespace
{

using perfbench::Options;
using perfbench::Result;

/** A digest as a fixed-width hex string (JSON numbers are doubles). */
std::string
hexDigest(std::uint64_t d)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, d);
    return buf;
}

/**
 * Compare the run's digests against the stored ones for this workload
 * and seed; adds outputs.compared and outputs_changed.
 */
void
compareDigests(const Options &opt, Result &res)
{
    // Stored digests are keyed "<workload>/<seed>"; seeds never
    // recorded compare nothing (outputs.compared = 0).
    double compared = 0, changed = 0;
    std::ifstream probe(opt.digests);
    if (probe.good()) {
        const zac::json::Value doc = zac::json::parseFile(opt.digests);
        const std::string key =
            opt.workload + "/" + std::to_string(opt.seed);
        if (doc.contains(key)) {
            for (const auto &[name, hex] : doc.at(key).asObject()) {
                const auto it = res.digests.find(name);
                if (it == res.digests.end())
                    continue;
                ++compared;
                if (hexDigest(it->second) != hex.asString())
                    ++changed;
            }
        }
    }
    res.metric("outputs.compared", compared, "count");
    res.metric("outputs_changed", changed, "count");
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: zac_perfbench --workload wide|deep|serve --seed N"
                 " --seconds S --trace 0|1 --out-dir DIR"
                 " --serve-bin PATH --digests FILE\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            opt.workload = v;
        else if (k == "--seed")
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            opt.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            opt.trace = v == "1";
        else if (k == "--out-dir")
            opt.out_dir = v;
        else if (k == "--serve-bin")
            opt.serve_bin = v;
        else if (k == "--digests")
            opt.digests = v;
        else
            usage();
    }
    if (argc % 2 == 0 || opt.out_dir.empty() || !(opt.seconds > 0.0) ||
        (opt.workload != "wide" && opt.workload != "deep" &&
         opt.workload != "serve"))
        usage();

    Result res;
    try {
        if (opt.workload == "serve")
            runServe(opt, res);
        else
            runOffline(opt, res);
        if (res.attempted < 1)
            throw std::runtime_error("no operation was attempted");
        res.metric("error_rate",
                   static_cast<double>(res.failed) /
                       static_cast<double>(res.attempted),
                   "ratio");
        compareDigests(opt, res);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 1;
    }

    const std::string tag = opt.workload + "-" + std::to_string(opt.seed) +
                            (opt.trace ? "-trace" : "");
    zac::json::Object digests;
    for (const auto &[name, d] : res.digests)
        digests[name] = hexDigest(d);
    zac::json::writeFile(opt.out_dir + "/digests-" + tag + ".json",
                         zac::json::Value(std::move(digests)));

    zac::json::Object metrics;
    for (const auto &[name, vu] : res.metrics) {
        if (!std::isfinite(vu.first)) {
            std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                         name.c_str());
            return 1;
        }
        metrics[name] =
            zac::json::Object{{"value", vu.first}, {"unit", vu.second}};
    }
    const zac::json::Object line{
        {"correct", res.correct},
        {"attempted", static_cast<std::int64_t>(res.attempted)},
        {"failed", static_cast<std::int64_t>(res.failed)},
        {"metrics", std::move(metrics)}};
    std::printf("%s\n", zac::json::Value(line).dump().c_str());
    return 0;
}
