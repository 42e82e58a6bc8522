/**
 * @file
 * Reproducible perf harness for the placement hot path.
 *
 * Measurements, all on the reference zoned architecture and the 17
 * paper benchmark circuits:
 *  - saInitialPlacement (1000 iterations, the paper's budget): the
 *    spatially-indexed implementation against the retained pre-index
 *    reference (zac::legacy), including a bit-identical output check;
 *    the reference's time is the machine-speed control of the CI gate;
 *  - the multi-seed SA batch: per-seed exact costs, the winning
 *    stream, the best-of-N cost gain over stream 0, and a worker-count
 *    determinism check (serial vs. parallel batch must match
 *    bit-for-bit);
 *  - per-phase compile breakdown (SA, reuse matching, gate placement,
 *    movement, scheduling, fidelity) via CompilePhaseTimings;
 *  - full ZacCompiler::compile wall time per circuit;
 *  - batch throughput: N threads compiling the circuit list
 *    concurrently, exploiting the documented re-entrancy of
 *    compile() const.
 *
 * The plans, programs and fidelities of these compiles are pinned by
 * the golden-digest tests (PaperPresetGolden in the ctest suite).
 *
 * Results are written as machine-readable JSON (schema
 * zac.perf_placement.v5, documented in bench/README.md) so successive
 * changes accumulate a perf trajectory. The exit status is non-zero
 * when the SA outputs differ from the reference or the multi-seed
 * batch depends on the worker count.
 *
 * Usage: perf_placement [output.json] [--fast]
 *   --fast  smoke mode for CI: a single repetition per measurement
 *           and one batch round instead of two.
 */

#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <thread>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "core/sa_placer_legacy.hpp"
#include "transpile/optimize.hpp"

using namespace zac;
using namespace zac::bench;

namespace
{

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/** Best-of-@p reps wall time of @p fn, in seconds. */
template <typename Fn>
double
bestOf(int reps, Fn &&fn)
{
    double best = std::numeric_limits<double>::max();
    for (int i = 0; i < reps; ++i) {
        const double t0 = nowSeconds();
        fn();
        best = std::min(best, nowSeconds() - t0);
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_placement.json";
    bool fast = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--fast") == 0)
            fast = true;
        else
            out_path = argv[i];
    }
    const int sa_reps = fast ? 1 : 3;
    // The compile column feeds the CI regression gate and one rep
    // costs well under a second, so even fast mode keeps best-of-3 to
    // damp shared-runner scheduler noise.
    const int compile_reps = 3;

    banner("perf_placement", "SA + per-phase + batch trajectory");

    const Architecture arch = presets::referenceZoned();
    SaOptions sa_opts;
    sa_opts.max_iterations = 1000;
    sa_opts.seed = 1;
    const ZacOptions zac_opts = defaultZacOptions();

    // Pre-stage every circuit once; staging is not under test.
    struct Prepared
    {
        std::string name;
        StagedCircuit staged;
    };
    std::vector<Prepared> circuits;
    for (const std::string &name : circuitNames()) {
        const Circuit pre =
            preprocess(bench_circuits::paperBenchmark(name));
        circuits.push_back({name, scheduleStages(pre, arch.numSites())});
    }

    // ---------------------------------------------- SA placement timing
    json::Array sa_rows;
    std::vector<double> sa_speedups;
    bool sa_identical = true;
    std::printf("%-16s %6s %8s %12s %12s %9s\n", "circuit", "qubits",
                "2Q", "legacy (ms)", "indexed (ms)", "speedup");
    for (const Prepared &c : circuits) {
        std::vector<TrapRef> indexed_out, legacy_out;
        const double t_indexed = bestOf(sa_reps, [&] {
            indexed_out = saInitialPlacement(arch, c.staged, sa_opts);
        });
        const double t_legacy = bestOf(sa_reps, [&] {
            legacy_out =
                legacy::saInitialPlacement(arch, c.staged, sa_opts);
        });
        const bool identical = indexed_out == legacy_out;
        sa_identical = sa_identical && identical;
        const double speedup =
            t_indexed > 0.0 ? t_legacy / t_indexed : 0.0;
        sa_speedups.push_back(speedup);
        std::printf("%-16s %6d %8d %12.3f %12.3f %8.2fx%s\n",
                    c.name.c_str(), c.staged.numQubits,
                    c.staged.count2Q(), t_legacy * 1e3,
                    t_indexed * 1e3, speedup,
                    identical ? "" : "  OUTPUT MISMATCH");
        json::Object row;
        row["circuit"] = c.name;
        row["num_qubits"] = c.staged.numQubits;
        row["gates_2q"] = c.staged.count2Q();
        row["legacy_seconds"] = t_legacy;
        row["indexed_seconds"] = t_indexed;
        row["speedup"] = speedup;
        row["output_identical"] = identical;
        sa_rows.push_back(std::move(row));
    }
    const double sa_geomean = gmean(sa_speedups);
    std::printf("\nSA placement geomean speedup: %.2fx (outputs %s)\n\n",
                sa_geomean,
                sa_identical ? "bit-identical" : "MISMATCHED");

    // ---------------------------------------- multi-seed SA batch
    // Per-seed exact costs and the best-of-N gain, plus the
    // worker-count determinism contract: a serial batch and a
    // hardware-concurrency batch must agree bit-for-bit.
    const int ms_seeds = 4;
    json::Array ms_rows;
    bool ms_deterministic = true;
    std::vector<double> ms_gains;
    std::printf("%-16s %10s %10s %8s %9s %9s  (multi-seed SA, %d "
                "seeds)\n",
                "circuit", "seed0", "best", "seed", "serial", "par",
                ms_seeds);
    for (const Prepared &c : circuits) {
        SaOptions ms = sa_opts;
        ms.num_seeds = ms_seeds;
        ms.num_threads = 1;
        SaSeedReport serial_rep;
        std::vector<TrapRef> serial_out;
        const double t_serial = bestOf(sa_reps, [&] {
            serial_out = saInitialPlacement(arch, c.staged, ms, {},
                                            &serial_rep);
        });
        ms.num_threads = 0; // hardware concurrency
        SaSeedReport par_rep;
        std::vector<TrapRef> par_out;
        const double t_par = bestOf(sa_reps, [&] {
            par_out = saInitialPlacement(arch, c.staged, ms, {},
                                         &par_rep);
        });
        const bool identical =
            serial_out == par_out &&
            serial_rep.seed_costs == par_rep.seed_costs &&
            serial_rep.best_seed == par_rep.best_seed;
        ms_deterministic = ms_deterministic && identical;
        const double seed0 = serial_rep.seed_costs.empty()
                                 ? 0.0
                                 : serial_rep.seed_costs[0];
        const double best_cost =
            serial_rep.seed_costs.empty()
                ? 0.0
                : serial_rep.seed_costs[static_cast<std::size_t>(
                      serial_rep.best_seed)];
        // Best-of-N cost gain over the single-seed stream, as a
        // fraction of stream 0 (0 = no gain).
        const double gain =
            seed0 > 0.0 ? (seed0 - best_cost) / seed0 : 0.0;
        ms_gains.push_back(1.0 + gain);
        std::printf("%-16s %10.3f %10.3f %8d %8.3f %8.3f%s\n",
                    c.name.c_str(), seed0, best_cost,
                    serial_rep.best_seed, t_serial * 1e3, t_par * 1e3,
                    identical ? "" : "  WORKER-COUNT MISMATCH");
        json::Object row;
        row["circuit"] = c.name;
        json::Array costs;
        for (double cost : serial_rep.seed_costs)
            costs.push_back(cost);
        row["seed_costs"] = std::move(costs);
        row["best_seed"] = serial_rep.best_seed;
        row["seed0_cost"] = seed0;
        row["best_cost"] = best_cost;
        row["cost_gain"] = gain;
        row["serial_seconds"] = t_serial;
        row["parallel_seconds"] = t_par;
        row["identical_across_workers"] = identical;
        ms_rows.push_back(std::move(row));
    }
    const double ms_gain_geomean = gmean(ms_gains) - 1.0;
    std::printf("\nmulti-seed SA: best-of-%d geomean cost gain %.2f%% "
                "(worker-count determinism %s)\n\n",
                ms_seeds, 100.0 * ms_gain_geomean,
                ms_deterministic ? "OK" : "VIOLATED");

    // ------------------------------- per-phase compile breakdown
    const ZacCompiler compiler(arch, zac_opts);
    json::Array phase_rows;
    double tot_sa = 0.0, tot_reuse = 0.0, tot_gate = 0.0;
    double tot_move = 0.0, tot_sched = 0.0, tot_fid = 0.0;
    GatePlacerStats gp_stats;
    std::printf("%-16s %8s %8s %8s %8s %8s %8s %8s  (phase ms)\n",
                "circuit", "sa", "reuse", "gate", "qubit", "build",
                "check", "sched");
    for (const Prepared &c : circuits) {
        const ZacResult r = compiler.compileStaged(c.staged);
        const CompilePhaseTimings &ph = r.phases;
        const PlacementProfile &pp = ph.placement;
        tot_sa += ph.sa_seconds;
        tot_reuse += pp.reuse_matching_seconds;
        tot_gate += pp.gate_placement_seconds;
        tot_move += pp.movementSeconds();
        tot_sched += ph.scheduling_seconds;
        tot_fid += ph.fidelity_seconds;
        gp_stats += pp.gate_placer;
        std::printf("%-16s %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f\n",
                    c.name.c_str(), ph.sa_seconds * 1e3,
                    pp.reuse_matching_seconds * 1e3,
                    pp.gate_placement_seconds * 1e3,
                    pp.qubit_placement_seconds * 1e3,
                    pp.move_build_seconds * 1e3,
                    pp.check_seconds * 1e3,
                    ph.scheduling_seconds * 1e3);
        json::Object row;
        row["circuit"] = c.name;
        row["sa_seconds"] = ph.sa_seconds;
        row["reuse_matching_seconds"] = pp.reuse_matching_seconds;
        row["gate_placement_seconds"] = pp.gate_placement_seconds;
        row["movement_seconds"] = pp.movementSeconds();
        row["scheduling_seconds"] = ph.scheduling_seconds;
        row["fidelity_seconds"] = ph.fidelity_seconds;
        row["compile_seconds"] = r.compile_seconds;
        phase_rows.push_back(std::move(row));
    }
    const double certified_share =
        gp_stats.calls > 0
            ? static_cast<double>(gp_stats.certified) /
                  static_cast<double>(gp_stats.calls)
            : 0.0;
    const double cell_share =
        gp_stats.full_cells > 0
            ? static_cast<double>(gp_stats.window_cells) /
                  static_cast<double>(gp_stats.full_cells)
            : 0.0;
    std::printf("\ngate placer: %lld calls, %.1f%% settled on windows, "
                "%.1f%% of dense cells costed, %lld windows grown, "
                "%lld grown to full\n\n",
                static_cast<long long>(gp_stats.calls),
                100.0 * certified_share, 100.0 * cell_share,
                static_cast<long long>(gp_stats.window_growths),
                static_cast<long long>(gp_stats.fallbacks));

    // --------------------------------------------- full compile timing
    json::Array compile_rows;
    std::vector<double> compile_secs;
    for (const Prepared &c : circuits) {
        double fidelity = 0.0;
        const double t = bestOf(compile_reps, [&] {
            const ZacResult r = compiler.compileStaged(c.staged);
            fidelity = r.fidelity.total;
        });
        compile_secs.push_back(t);
        json::Object row;
        row["circuit"] = c.name;
        row["compile_seconds"] = t;
        row["fidelity"] = fidelity;
        compile_rows.push_back(std::move(row));
    }
    double compile_total = 0.0;
    for (double s : compile_secs)
        compile_total += s;
    std::printf("full compile: %.3f s total over %zu circuits "
                "(gmean %.4f s)\n",
                compile_total, compile_secs.size(),
                gmean(compile_secs));

    // ----------------------------------------------- batch throughput
    const unsigned hw = std::thread::hardware_concurrency();
    const int num_threads =
        static_cast<int>(std::min(8u, std::max(1u, hw)));
    const int rounds = fast ? 1 : 2;
    const int total_jobs =
        rounds * num_threads * static_cast<int>(circuits.size());
    std::atomic<int> next{0};
    const double batch_t0 = nowSeconds();
    {
        std::vector<std::thread> workers;
        for (int w = 0; w < num_threads; ++w) {
            workers.emplace_back([&] {
                for (;;) {
                    const int job = next.fetch_add(1);
                    if (job >= total_jobs)
                        return;
                    const Prepared &c = circuits[static_cast<
                        std::size_t>(job) % circuits.size()];
                    (void)compiler.compileStaged(c.staged);
                }
            });
        }
        for (std::thread &w : workers)
            w.join();
    }
    const double batch_seconds = nowSeconds() - batch_t0;
    const double throughput =
        static_cast<double>(total_jobs) / batch_seconds;
    std::printf("batch throughput: %d jobs on %d threads in %.3f s "
                "= %.2f compiles/s\n",
                total_jobs, num_threads, batch_seconds, throughput);

    // ------------------------------------------------------ JSON dump
    json::Object doc;
    doc["schema"] = "zac.perf_placement.v5";
    doc["arch"] = arch.name();
    doc["sa_iterations"] = sa_opts.max_iterations;
    doc["sa_seed"] = static_cast<std::int64_t>(sa_opts.seed);
    doc["fast_mode"] = fast;
    doc["sa_placement"] = std::move(sa_rows);
    doc["sa_geomean_speedup"] = sa_geomean;
    // The incremental propose/commit SA engine vs. the frozen
    // zac::legacy full-evaluator reference (gated >= 2x by
    // check_perf_regression.py).
    doc["sa_incremental_speedup"] = sa_geomean;
    doc["sa_outputs_identical"] = sa_identical;
    doc["sa_multi_seed"] = json::Object{
        {"num_seeds", ms_seeds},
        {"per_circuit", std::move(ms_rows)},
        {"cost_gain_geomean", ms_gain_geomean},
    };
    doc["sa_multi_seed_deterministic"] = ms_deterministic;
    doc["phases"] = std::move(phase_rows);
    doc["phase_totals"] = json::Object{
        {"sa_seconds", tot_sa},
        {"reuse_matching_seconds", tot_reuse},
        {"gate_placement_seconds", tot_gate},
        {"movement_seconds", tot_move},
        {"scheduling_seconds", tot_sched},
        {"fidelity_seconds", tot_fid},
    };
    doc["gate_placer"] = json::Object{
        {"calls", static_cast<std::int64_t>(gp_stats.calls)},
        {"certified", static_cast<std::int64_t>(gp_stats.certified)},
        {"window_growths",
         static_cast<std::int64_t>(gp_stats.window_growths)},
        {"fallbacks", static_cast<std::int64_t>(gp_stats.fallbacks)},
        {"window_cells",
         static_cast<std::int64_t>(gp_stats.window_cells)},
        {"full_cells", static_cast<std::int64_t>(gp_stats.full_cells)},
    };
    doc["compile"] = std::move(compile_rows);
    doc["compile_total_seconds"] = compile_total;
    doc["batch"] = json::Object{
        {"threads", num_threads},
        {"jobs", total_jobs},
        {"seconds", batch_seconds},
        {"compiles_per_second", throughput},
    };
    try {
        json::writeFile(out_path, json::Value(std::move(doc)));
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    std::printf("wrote %s\n", out_path.c_str());

    return sa_identical && ms_deterministic ? 0 : 1;
}
