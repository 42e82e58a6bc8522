/**
 * @file
 * Workload-scaling sweep: synthetic circuit families from 10 to ~2000
 * qubits on proportionally scaled zoned architectures, emitting
 * qubit-count vs. compile-time curves, per-point placement work
 * counters, and fitted asymptotic exponents per family and per
 * compiler phase.
 *
 * Each (family, num_qubits) point times the production path: a
 * streamed compile with verification off, on the point's own
 * ArchContext, best of 3 (each phase column is that phase's own best
 * of the 3). An untimed compile() per point then checks that the
 * streamed bytes equal zairProgramToJson(program).dump(), every repeat
 * must write the same bytes, and each point records an FNV-1a digest
 * of them, and the program's quality: makespan, atom transfers and
 * -log10 of the fidelity terms. Results are written as machine-readable
 * JSON (schema zac.perf_scaling.v3, documented in bench/README.md); CI
 * gates machine-normalized per-point regressions, the fitted exponents
 * of wall-clock phases and work counters, the program digests and the
 * per-point quality against the committed BENCH_scaling.json via
 * scripts/check_perf_regression.py.
 *
 * Usage: perf_scaling [output.json] [--fast]
 *   --fast  CI smoke mode: the subset sweep (largest points trimmed
 *           so a PR leg stays in seconds; every fast size is also a
 *           full-sweep size, so fresh/committed point sets intersect),
 *           timed like the full sweep.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <sys/resource.h>
#include <vector>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "arch/scaling.hpp"
#include "arch/serialize.hpp"
#include "bench_util.hpp"
#include "circuit/scaling.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "zair/serialize.hpp"

using namespace zac;
using namespace zac::bench;

namespace
{

constexpr std::uint64_t kSweepSeed = 1;

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/** Peak-RSS proxy: ru_maxrss (KiB on Linux), monotone per process. */
long
peakRssKb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

/**
 * Reset the kernel's peak-RSS mark (VmHWM) to the current RSS, so the
 * next vmHwmKb() covers one sweep point. Free heap pages go back to the
 * kernel first, so an earlier point's peak does not linger in the
 * next. @return false where /proc/self/clear_refs is not writable.
 */
bool
resetPeakRss()
{
#ifdef __GLIBC__
    malloc_trim(0);
#endif
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    if (f == nullptr)
        return false;
    const bool wrote = std::fputs("5", f) >= 0;
    return std::fclose(f) == 0 && wrote;
}

/** VmHWM from /proc/self/status in KiB, or -1 when unavailable. */
long
vmHwmKb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return -1;
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof line, f) != nullptr)
        if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1)
            break;
    std::fclose(f);
    return kb;
}

/**
 * Peak RSS of the point that started at the last resetPeakRss(), in
 * KiB; the process peak (ru_maxrss) when the reset failed or VmHWM is
 * unavailable, with a note on stderr the first time.
 */
long
pointPeakRssKb(bool reset_ok)
{
    const long hwm = reset_ok ? vmHwmKb() : -1;
    if (hwm >= 0)
        return hwm;
    static bool noted = false;
    if (!noted) {
        std::fprintf(stderr, "perf_scaling: per-point VmHWM unavailable; "
                             "max_rss_kb falls back to the process peak "
                             "(ru_maxrss)\n");
        noted = true;
    }
    return peakRssKb();
}

/** The sweep grid of one family. */
struct FamilyPlan
{
    scaling::Family family;
    std::vector<int> sizes;
};

/**
 * Sweep sizes per family. The linear families (ghz, ising, qaoa3r)
 * reach ~2000 qubits; the quadratic families (qftnn, qv) stop earlier
 * because their gate counts grow as n^2. Fast mode trims the most
 * expensive points but only ever selects sizes the full sweep also
 * visits, so the CI gate always finds a committed point to compare
 * against.
 */
std::vector<FamilyPlan>
sweepPlan(bool fast)
{
    using scaling::Family;
    if (fast)
        return {
            {Family::Ghz, {10, 40, 160, 640, 1280}},
            {Family::Ising, {10, 40, 160, 640}},
            {Family::Qaoa, {10, 40, 160, 640}},
            {Family::QftNn, {10, 20, 40, 80}},
            {Family::Qv, {10, 20, 40, 80}},
        };
    return {
        {Family::Ghz, {10, 20, 40, 80, 160, 320, 640, 1280, 2000}},
        {Family::Ising, {10, 20, 40, 80, 160, 320, 640, 1280, 2000}},
        {Family::Qaoa, {10, 20, 40, 80, 160, 320, 640, 1280, 2000}},
        {Family::QftNn, {10, 20, 40, 80, 160}},
        {Family::Qv, {10, 20, 40, 80, 128}},
    };
}

/**
 * Least-squares slope of log(seconds) vs log(qubits) — the fitted
 * asymptotic exponent of one curve. Points with non-positive time are
 * clamped to 0.1 us so an unexercised phase fits flat instead of
 * breaking the fit. Returns 0 for fewer than 2 points.
 */
double
fitExponent(const std::vector<int> &sizes,
            const std::vector<double> &seconds)
{
    const std::size_t n = sizes.size();
    if (n < 2 || seconds.size() != n)
        return 0.0;
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double x = std::log(static_cast<double>(sizes[i]));
        const double y = std::log(std::max(seconds[i], 1e-7));
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    const double denom =
        static_cast<double>(n) * sxx - sx * sx;
    return denom != 0.0
               ? (static_cast<double>(n) * sxy - sx * sy) / denom
               : 0.0;
}

/** The "phase_totals" columns of one compile's phases. */
json::Object
phaseColumns(const CompilePhaseTimings &ph)
{
    return {
        {"sa_seconds", ph.sa_seconds},
        {"placement_seconds", ph.placement_seconds},
        {"reuse_matching_seconds", ph.placement.reuse_matching_seconds},
        {"gate_placement_seconds", ph.placement.gate_placement_seconds},
        {"movement_seconds", ph.placement.movementSeconds()},
        {"scheduling_seconds", ph.scheduling_seconds},
        {"fidelity_seconds", ph.fidelity_seconds},
    };
}

/** Lower every column of @p best to @p cols' value where it is less. */
void
keepFaster(json::Object &best, const json::Object &cols)
{
    for (const auto &[key, secs] : cols)
        best[key] = std::min(best[key].asDouble(), secs.asDouble());
}

/**
 * The "quality" columns of one program: its makespan, its atom
 * transfers, -sum log10 of the fidelity terms that are positive, and
 * the count of terms that are exactly 0 (left out of that sum; they
 * come from the linear decoherence model's clamp). The terms are those
 * perfbench sums: f_1q, f_2q_gates, f_excitation, f_transfer and
 * f_decoherence.
 */
json::Object
qualityColumns(const ZacStreamedResult &r)
{
    const FidelityBreakdown &f = r.fidelity;
    double neg_log10 = 0.0;
    std::int64_t zero_terms = 0;
    for (const double term : {f.f_1q, f.f_2q_gates, f.f_excitation,
                              f.f_transfer, f.f_decoherence}) {
        if (term > 0.0)
            neg_log10 -= std::log10(term);
        else
            ++zero_terms;
    }
    return {
        {"duration_us", r.stats.makespan_us},
        {"atom_transfers",
         static_cast<std::int64_t>(r.stats.num_atom_transfers)},
        {"neg_log10_fidelity", neg_log10},
        {"zero_terms", zero_terms},
    };
}

/** The phase columns fitted per family (keys of "phase_totals"). */
const std::vector<std::string> &
phaseKeys()
{
    static const std::vector<std::string> keys = {
        "sa_seconds",
        "placement_seconds",
        "scheduling_seconds",
        "fidelity_seconds",
    };
    return keys;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_scaling.json";
    bool fast = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--fast") == 0)
            fast = true;
        else
            out_path = argv[i];
    }

    banner("perf_scaling",
           "synthetic workload sweep: qubit-count vs compile-time "
           "curves + asymptotic exponents");

    const ZacOptions zac_opts = defaultZacOptions();
    bool all_identical = true;
    bool all_deterministic = true;
    int max_point_qubits = 0;
    json::Array family_docs;

    for (const FamilyPlan &plan : sweepPlan(fast)) {
        const std::string fam = scaling::familyName(plan.family);
        std::printf("%-8s %7s %9s %9s %12s %9s %9s %9s %9s %10s\n",
                    fam.c_str(), "qubits", "2Q", "traps",
                    "compile (s)", "sa", "plc", "sched", "fid",
                    "rss (MB)");
        json::Array points;
        std::vector<int> sizes;
        std::vector<double> secs;
        std::map<std::string, std::vector<double>> phase_secs;
        for (int n : plan.sizes) {
            const bool rss_reset = resetPeakRss();
            // Each point builds its own context, so its peak RSS holds
            // no other point's architecture.
            const auto ctx = ArchContext::build(scaledZoned(n));
            const ZacCompiler compiler(ctx, zac_opts);
            const Circuit circuit =
                scaling::generate(plan.family, n, kSweepSeed);
            CompileScratch scratch;
            double best = nowSeconds();
            const ZacStreamedResult r = compiler.compileStreamed(
                circuit, CompileControl{}, &scratch);
            best = nowSeconds() - best;
            // The counters read the same in every compile.
            const CompilePhaseTimings &ph = r.phases;
            // Best of 3 in both modes, so a fitted exponent reads the
            // same across sweeps and a fresh --fast point compares with
            // a committed full-sweep one timed alike. Each phase keeps
            // its own best, so a phase of a few ms is filtered like
            // the total instead of read off the fastest total.
            json::Object phase_best = phaseColumns(ph);
            for (int rep = 0; rep < 2; ++rep) {
                const double t0 = nowSeconds();
                const ZacStreamedResult again = compiler.compileStreamed(
                    circuit, CompileControl{}, &scratch);
                best = std::min(best, nowSeconds() - t0);
                keepFaster(phase_best, phaseColumns(again.phases));
                if (again.program_json != r.program_json)
                    all_deterministic = false;
            }
            max_point_qubits = std::max(max_point_qubits, n);
            const long rss_kb = pointPeakRssKb(rss_reset);
            // Untimed, after the RSS read: the DOM path's dump must
            // equal the streamed bytes.
            if (zairProgramToJson(compiler.compile(circuit).program)
                    .dump() != r.program_json)
                all_identical = false;

            sizes.push_back(n);
            secs.push_back(best);
            for (const std::string &key : phaseKeys())
                phase_secs[key].push_back(phase_best[key].asDouble());
            std::printf("%-8s %7d %9lld %9d %12.4f %9.4f %9.4f %9.4f "
                        "%9.4f %10.1f\n",
                        "", n,
                        static_cast<long long>(
                            scaling::expected2Q(plan.family, n)),
                        ctx->arch.numTraps(), best,
                        phase_best["sa_seconds"].asDouble(),
                        phase_best["placement_seconds"].asDouble(),
                        phase_best["scheduling_seconds"].asDouble(),
                        phase_best["fidelity_seconds"].asDouble(),
                        static_cast<double>(rss_kb) / 1024.0);
            std::fflush(stdout);

            json::Object point;
            point["num_qubits"] = n;
            point["gates_2q"] = static_cast<std::int64_t>(
                scaling::expected2Q(plan.family, n));
            point["gates_1q"] = static_cast<std::int64_t>(
                scaling::expected1Q(plan.family, n));
            point["compile_seconds"] = best;
            point["phase_totals"] = std::move(phase_best);
            point["max_rss_kb"] = static_cast<std::int64_t>(rss_kb);
            // Work counters (the same in every compile; the gate fits
            // the exponents of five of them).
            point["placement"] = json::Object{
                {"rollback_qubits", ph.placement.rollback_qubits},
                {"pruned_variants", ph.placement.pruned_variants},
                {"settled_boundaries", ph.placement.settled_boundaries},
            };
            const QubitPlacerStats &qp = ph.placement.qubit_placer;
            point["qubit_placer"] = json::Object{
                {"calls", qp.calls},
                {"solves", qp.solves},
                {"expanded_solves", qp.expanded_solves},
                {"rows", qp.rows},
                {"cols", qp.cols},
                {"candidate_cells", qp.candidate_cells},
                {"window_growths", qp.window_growths},
                {"edges_relaxed", qp.edges_relaxed},
            };
            const GatePlacerStats &gp = ph.placement.gate_placer;
            point["gate_placer"] = json::Object{
                {"calls", gp.calls},
                {"certified", gp.certified},
                {"window_growths", gp.window_growths},
                {"fallbacks", gp.fallbacks},
                {"window_cells", gp.window_cells},
                {"full_cells", gp.full_cells},
                {"edges_relaxed", gp.edges_relaxed},
            };
            point["fidelity"] = r.fidelity.total;
            point["quality"] = qualityColumns(r);
            point["program_bytes"] =
                static_cast<std::int64_t>(r.program_json.size());
            point["program_digest"] = hexDigest(fnv1a(r.program_json));
            point["arch"] = json::Object{
                {"name", ctx->arch.name()},
                {"storage_traps", ctx->arch.numStorageTraps()},
                {"sites", ctx->arch.numSites()},
                {"aods",
                 static_cast<std::int64_t>(ctx->arch.aods().size())},
            };
            points.push_back(std::move(point));
        }

        const double exponent = fitExponent(sizes, secs);
        json::Object phase_exponents;
        for (const std::string &key : phaseKeys())
            phase_exponents[key] = fitExponent(sizes, phase_secs[key]);
        std::printf("%-8s fitted exponent %.2f (sa %.2f, placement "
                    "%.2f, scheduling %.2f, fidelity %.2f)\n\n",
                    fam.c_str(), exponent,
                    phase_exponents["sa_seconds"].asDouble(),
                    phase_exponents["placement_seconds"].asDouble(),
                    phase_exponents["scheduling_seconds"].asDouble(),
                    phase_exponents["fidelity_seconds"].asDouble());

        json::Object family_doc;
        family_doc["family"] = fam;
        family_doc["exponent"] = exponent;
        family_doc["phase_exponents"] = std::move(phase_exponents);
        family_doc["points"] = std::move(points);
        family_docs.push_back(std::move(family_doc));
    }

    std::printf("sweep: largest point %d qubits, streamed/DOM "
                "identity %s, determinism %s\n",
                max_point_qubits,
                all_identical ? "verified at every point"
                              : "VIOLATED",
                all_deterministic ? "OK" : "VIOLATED");

    json::Object doc;
    doc["schema"] = "zac.perf_scaling.v3";
    doc["fast_mode"] = fast;
    doc["seed"] = static_cast<std::int64_t>(kSweepSeed);
    doc["sa_iterations"] = zac_opts.sa_iterations;
    doc["families"] = std::move(family_docs);
    doc["streamed_vs_dom_identical"] = all_identical;
    doc["deterministic"] = all_deterministic;
    doc["max_point_qubits"] = max_point_qubits;
    try {
        json::writeFile(out_path, json::Value(std::move(doc)));
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    std::printf("wrote %s\n", out_path.c_str());

    return (all_identical && all_deterministic &&
            max_point_qubits >= 1000)
               ? 0
               : 1;
}
