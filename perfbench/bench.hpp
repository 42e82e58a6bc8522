/**
 * @file
 * Shared pieces of the production-path benchmark: run options, the
 * result line, percentile helpers, and the in-memory span recorder used
 * by traced runs. Spans are recorded only here, around calls into the
 * library's public functions; nothing in src/ is instrumented.
 */

#ifndef ZAC_PERFBENCH_BENCH_HPP
#define ZAC_PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/compiler.hpp"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir;    ///< traces and digests are written here
    std::string serve_bin;  ///< path of the zac_serve daemon
    std::string digests;    ///< stored digests (perfbench/digests.json)
};

/** The run's verdict and metrics, printed as the last stdout line. */
struct Result
{
    long long attempted = 0;
    long long failed = 0;
    /** False once any check has failed. */
    bool correct = true;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    /** Distinct outputs: "<circuit>@<seed>" -> FNV-1a of the bytes. */
    std::map<std::string, std::uint64_t> digests;

    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, {value, unit}});
    }
    /** Record one failed check; counts toward error_rate. */
    void fail(const std::string &what);
};

/** Linear-interpolated quantile of @p v (q in [0, 1]); 0 when empty. */
double quantile(std::vector<double> v, double q);
inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** Peak resident set of this process so far, MiB (ru_maxrss). */
double peakRssMb();

/**
 * In-memory span recorder. A span has a name (the layer), a label (the
 * circuit or job it belongs to), a parent, and start/end times relative
 * to the recorder's creation. writeJson() dumps everything at the end
 * of the run; selfSeconds() gives each name's self time (duration minus
 * the part covered by child spans).
 */
class Tracer
{
  public:
    struct Span
    {
        int parent = -1;
        std::string name;
        std::string label;
        double start = 0.0;
        double end = 0.0;
        std::map<std::string, double> attrs;
    };

    /** Open a span; returns its id. */
    int begin(const std::string &name, const std::string &label,
              int parent);
    void end(int id) { spans_[id].end = now(); }
    /** Record an already-measured interval. */
    int add(const std::string &name, const std::string &label, int parent,
            Clock::time_point t0, Clock::time_point t1);
    void attr(int id, const std::string &key, double value)
    {
        spans_[id].attrs[key] = value;
    }
    double duration(int id) const
    {
        return spans_[id].end - spans_[id].start;
    }

    /** Self time summed per span name. */
    std::map<std::string, double> selfSeconds() const;
    void writeJson(const std::string &path) const;

  private:
    double now() const { return secondsBetween(origin_, Clock::now()); }

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** RAII span around one call. */
class Scoped
{
  public:
    Scoped(Tracer &t, const std::string &name, const std::string &label,
           int parent)
        : t_(t), id_(t.begin(name, label, parent))
    {
    }
    ~Scoped() { t_.end(id_); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;
    int id() const { return id_; }

  private:
    Tracer &t_;
    int id_;
};

/**
 * Check one compile output with code other than the code that wrote
 * it: parse the bytes back (zairProgramFromJson), run the program's
 * invariant check, and require evaluateFidelity() and stats() of the
 * parsed program to bit-equal what the streamed compile accumulated.
 * Failures are recorded in @p res; the output's digest is stored under
 * @p key.
 */
void verifyOutput(const zac::ZacStreamedResult &out,
                  const zac::Architecture &arch, const std::string &key,
                  Result &res);

/** True when every field of the two breakdowns is bit-equal. */
bool sameFidelity(const zac::FidelityBreakdown &a,
                  const zac::FidelityBreakdown &b);

/**
 * Quality of one output on a log scale that cannot underflow:
 * adds -log10 of each positive term of the five-term model to
 * @p neg_log10 and counts the terms that are exactly 0 in @p zero_terms.
 */
void addFidelity(const zac::FidelityBreakdown &f, double &neg_log10,
                 double &zero_terms);

/** One compile of a pass: a warm context, options and a circuit. */
struct CompileItem
{
    std::shared_ptr<const zac::ArchContext> ctx;
    zac::ZacOptions opts;
    const zac::Circuit *circuit = nullptr;
};

/**
 * Runs passes over a list of compiles, untimed or traced, and keeps
 * the per-layer totals of the traced ones. Single-threaded.
 *
 * untimed() is the production path: compileStreamed on the item's warm
 * context with one reused CompileScratch and no DOM verification.
 * traced() rebuilds the same compile from the public calls it is made
 * of, one span per call, and fails @p res unless bytes and fidelity
 * bit-equal the untimed outputs passed in.
 */
class PassRunner
{
  public:
    /** @return the pass's compile seconds; outputs go to @p out. */
    double untimed(const std::vector<CompileItem> &items,
                   std::vector<zac::ZacStreamedResult> &out);
    double traced(const std::vector<CompileItem> &items,
                  const std::vector<zac::ZacStreamedResult> &expect,
                  Result &res);

    /** Adds the compile layers' per-layer metrics (means per traced
     *  pass), trace.overhead_frac and trace.layer_coverage. */
    void addLayerMetrics(Result &res) const;
    Tracer &tracer() { return tracer_; }

    std::vector<double> untimed_s; ///< one entry per untimed pass
    std::vector<double> traced_s;  ///< one entry per traced pass

  private:
    zac::CompileScratch scratch_;
    Tracer tracer_;
    std::map<std::string, double> totals_; ///< counters and sub-phases
};

/** Workload entry points; each fills @p res. */
void runOffline(const Options &opt, Result &res);
void runServe(const Options &opt, Result &res);

} // namespace perfbench

#endif // ZAC_PERFBENCH_BENCH_HPP
