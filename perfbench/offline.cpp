/**
 * @file
 * The compile passes shared by every workload, and the offline
 * workloads `wide` and `deep`: synthetic scaling circuits compiled back
 * to back in a single-threaded closed loop.
 *
 *  - wide: ising n=1280 and qv n=128. Few, very wide stage boundaries,
 *    so storage placement (placeQubitsInStorage and its candidate
 *    expansion) does most of the work.
 *  - deep: ghz n=2000 and qaoa3r n=2000. Thousands of 1-3-gate stage
 *    boundaries: per-boundary placement overhead, gate placement and
 *    ZAIR serialization do the work; storage-placement expansion never
 *    fires.
 */

#include <bit>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "arch/scaling.hpp"
#include "bench.hpp"
#include "circuit/scaling.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "core/sa_placer.hpp"
#include "core/scheduler.hpp"
#include "transpile/optimize.hpp"
#include "zair/serialize.hpp"

namespace perfbench
{

bool
sameFidelity(const zac::FidelityBreakdown &a, const zac::FidelityBreakdown &b)
{
    const auto same = [](double x, double y) {
        return std::bit_cast<std::uint64_t>(x) ==
               std::bit_cast<std::uint64_t>(y);
    };
    return same(a.f_1q, b.f_1q) && same(a.f_2q_gates, b.f_2q_gates) &&
           same(a.f_excitation, b.f_excitation) && same(a.f_2q, b.f_2q) &&
           same(a.f_transfer, b.f_transfer) &&
           same(a.f_decoherence, b.f_decoherence) &&
           same(a.total, b.total) && a.g1 == b.g1 && a.g2 == b.g2 &&
           a.n_excitation == b.n_excitation &&
           a.n_transfer == b.n_transfer &&
           same(a.duration_us, b.duration_us);
}

void
addFidelity(const zac::FidelityBreakdown &f, double &neg_log10,
            double &zero_terms)
{
    for (double term : {f.f_1q, f.f_2q_gates, f.f_excitation, f.f_transfer,
                        f.f_decoherence}) {
        if (term > 0.0)
            neg_log10 -= std::log10(term);
        else
            ++zero_terms;
    }
}

void
verifyOutput(const zac::ZacStreamedResult &out,
             const zac::Architecture &arch, const std::string &key,
             Result &res)
{
    res.digests[key] = zac::fnv1a(out.program_json);
    try {
        const zac::ZairProgram prog =
            zac::zairProgramFromJson(zac::json::parse(out.program_json));
        prog.checkInvariants();
        if (!sameFidelity(zac::evaluateFidelity(prog, arch), out.fidelity))
            res.fail(key + ": evaluateFidelity of the parsed program "
                           "differs from the streamed breakdown");
        const zac::ZairStats s = prog.stats();
        if (s.num_zair_instrs != out.stats.num_zair_instrs ||
            s.num_atom_transfers != out.stats.num_atom_transfers ||
            s.num_rearrange_jobs != out.stats.num_rearrange_jobs ||
            std::bit_cast<std::uint64_t>(s.makespan_us) !=
                std::bit_cast<std::uint64_t>(out.stats.makespan_us))
            res.fail(key + ": stats of the parsed program differ from "
                           "the streamed stats");
    } catch (const std::exception &e) {
        res.fail(key + ": " + e.what());
    }
}

namespace
{

/** Collects the scheduler's instruction stream for a traced compile. */
class CollectSink final : public zac::ZairInstrSink
{
  public:
    void onInstr(zac::ZairInstr &&instr) override
    {
        instrs.push_back(std::move(instr));
    }
    std::vector<zac::ZairInstr> instrs;
};

} // namespace

double
PassRunner::untimed(const std::vector<CompileItem> &items,
                    std::vector<zac::ZacStreamedResult> &out)
{
    const zac::CompileControl control;
    out.clear();
    double seconds = 0.0;
    for (const CompileItem &it : items) {
        const zac::ZacCompiler compiler(it.ctx, it.opts);
        const Clock::time_point t0 = Clock::now();
        out.push_back(compiler.compileStreamed(*it.circuit, control,
                                               &scratch_, false));
        seconds += secondsBetween(t0, Clock::now());
    }
    untimed_s.push_back(seconds);
    return seconds;
}

double
PassRunner::traced(const std::vector<CompileItem> &items,
                   const std::vector<zac::ZacStreamedResult> &expect,
                   Result &res)
{
    Tracer &tr = tracer_;
    double seconds = 0.0;
    for (std::size_t i = 0; i < items.size(); ++i) {
        const CompileItem &it = items[i];
        const zac::Architecture &arch = it.ctx->arch;
        const zac::ZacOptions &opts = it.opts;
        const std::string &label = it.circuit->name();
        const int root = tr.begin("compile", label, -1);

        zac::Circuit pre;
        {
            Scoped s(tr, "transpile.preprocess", label, root);
            pre = zac::preprocess(*it.circuit);
        }
        zac::StagedCircuit staged;
        {
            Scoped s(tr, "transpile.staging", label, root);
            staged = zac::scheduleStages(pre, arch.numSites());
        }
        std::vector<zac::TrapRef> initial;
        {
            Scoped s(tr, "core.sa", label, root);
            zac::SaOptions sa;
            sa.max_iterations = opts.sa_iterations;
            sa.seed = opts.seed;
            sa.num_seeds = opts.sa_num_seeds;
            sa.num_threads = opts.sa_threads;
            initial = zac::saInitialPlacementPrepared(
                arch, staged, sa, it.ctx->storage_by_proximity, [] {},
                nullptr, &scratch_.sa);
        }
        zac::PlacementPlan plan;
        zac::PlacementProfile prof;
        int placement = -1;
        {
            Scoped s(tr, "core.placement", label, root);
            placement = s.id();
            plan = zac::runDynamicPlacement(arch, staged, initial, opts,
                                            &prof);
        }
        CollectSink sink;
        {
            Scoped s(tr, "core.schedule", label, root);
            zac::scheduleProgramToSink(arch, staged, plan, sink,
                                       &scratch_.scheduler);
        }
        // Invariant check, stats, fidelity and serialization each get
        // their own pass over the instructions so their costs separate.
        zac::ZairStats stats;
        zac::FidelityBreakdown fidelity;
        std::string bytes;
        {
            Scoped s(tr, "zair.check", label, root);
            zac::ZairInvariantChecker checker(staged.numQubits);
            for (const zac::ZairInstr &in : sink.instrs)
                checker.feed(in);
            checker.finish();
        }
        {
            Scoped s(tr, "zair.stats", label, root);
            zac::ZairStatsAccumulator acc;
            for (const zac::ZairInstr &in : sink.instrs)
                acc.feed(in);
            stats = acc.finish();
        }
        {
            Scoped s(tr, "fidelity.accumulate", label, root);
            zac::FidelityAccumulator fid(arch, staged.numQubits);
            for (const zac::ZairInstr &in : sink.instrs)
                fid.feed(in);
            fidelity = fid.finish();
        }
        {
            Scoped s(tr, "zair.serialize", label, root);
            std::ostringstream os;
            zac::ZairStreamWriter writer(os, 0);
            writer.begin(staged.name, arch.name(), staged.numQubits);
            for (const zac::ZairInstr &in : sink.instrs)
                writer.add(in);
            writer.end();
            bytes = os.str();
        }
        tr.end(root);
        seconds += tr.duration(root);

        // Checks and counters, outside the compile span.
        if (bytes != expect[i].program_json ||
            !sameFidelity(fidelity, expect[i].fidelity))
            res.fail(label + ": traced compile differs from "
                             "compileStreamed");
        try {
            zac::checkPlacementPlan(arch, staged, plan);
        } catch (const std::exception &e) {
            res.fail(label + ": checkPlacementPlan: " + e.what());
        }
        std::map<std::string, double> &t = totals_;
        t["placement_s"] += tr.duration(placement);
        t["qubit_s"] += prof.qubit_placement_seconds;
        t["gate_s"] += prof.gate_placement_seconds;
        t["reuse_s"] += prof.reuse_matching_seconds;
        t["move_build_s"] += prof.move_build_seconds;
        t["check_s"] += prof.check_seconds;
        const zac::GatePlacerStats &gp = prof.gate_placer;
        t["gp_calls"] += static_cast<double>(gp.calls);
        t["gp_certified"] += static_cast<double>(gp.certified);
        t["gp_fallbacks"] += static_cast<double>(gp.fallbacks);
        t["gp_window_cells"] += static_cast<double>(gp.window_cells);
        t["gp_full_cells"] += static_cast<double>(gp.full_cells);
        t["stages"] += staged.numRydbergStages();
        t["sa_cost"] += zac::initialPlacementCost(arch, staged, initial);
        for (const zac::StageTransition &st : plan.transitions)
            t["moves"] += static_cast<double>(st.move_in.size() +
                                              st.move_out.size());
        t["reused_qubits"] += plan.reused_qubits;
        t["reuse_boundaries"] += plan.reuse_boundaries;
        t["instrs"] += stats.num_zair_instrs;
        t["rearrange_jobs"] += stats.num_rearrange_jobs;
        t["bytes"] += static_cast<double>(bytes.size());
        double neg_log10 = 0.0;
        addFidelity(fidelity, neg_log10, t["zero_terms"]);
    }
    traced_s.push_back(seconds);
    return seconds;
}

void
PassRunner::addLayerMetrics(Result &res) const
{
    const double n = static_cast<double>(traced_s.size());
    const auto total = [&](const std::string &key) {
        const auto it = totals_.find(key);
        return it == totals_.end() || n == 0.0 ? 0.0 : it->second / n;
    };
    const std::map<std::string, double> self = tracer_.selfSeconds();
    const auto selfPerPass = [&](const std::string &name) {
        const auto it = self.find(name);
        return it == self.end() || n == 0.0 ? 0.0 : it->second / n;
    };
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    double covered = 0.0, wall = 0.0;
    for (const auto &[name, s] : self) {
        wall += s;
        if (name != "compile")
            covered += s;
    }

    res.metric("transpile.preprocess_s",
               selfPerPass("transpile.preprocess"), "s");
    res.metric("transpile.staging_s", selfPerPass("transpile.staging"),
               "s");
    res.metric("transpile.stages", total("stages"), "count");
    res.metric("core.sa_s", selfPerPass("core.sa"), "s");
    res.metric("core.sa_cost", total("sa_cost"), "cost");
    res.metric("core.placement_s", selfPerPass("core.placement"), "s");
    res.metric("core.placement.qubit_s", total("qubit_s"), "s");
    res.metric("core.placement.gate_s", total("gate_s"), "s");
    res.metric("core.placement.reuse_s", total("reuse_s"), "s");
    res.metric("core.placement.move_build_s", total("move_build_s"), "s");
    res.metric("core.placement.check_s", total("check_s"), "s");
    res.metric("core.placement.other_s",
               total("placement_s") - total("qubit_s") - total("gate_s") -
                   total("reuse_s") - total("move_build_s") -
                   total("check_s"),
               "s");
    res.metric("core.gate_placer.calls", total("gp_calls"), "count");
    res.metric("core.gate_placer.fallbacks", total("gp_fallbacks"),
               "count");
    res.metric("core.gate_placer.certified_ratio",
               ratio(total("gp_certified"), total("gp_calls")), "ratio");
    res.metric("core.gate_placer.window_cells_ratio",
               ratio(total("gp_window_cells"), total("gp_full_cells")),
               "ratio");
    res.metric("core.placement.reused_qubits", total("reused_qubits"),
               "count");
    res.metric("core.placement.reuse_boundaries",
               total("reuse_boundaries"), "count");
    res.metric("core.placement.moves", total("moves"), "count");
    res.metric("core.schedule_s", selfPerPass("core.schedule"), "s");
    res.metric("zair.instrs", total("instrs"), "count");
    res.metric("zair.rearrange_jobs", total("rearrange_jobs"), "count");
    res.metric("zair.serialize_s", selfPerPass("zair.serialize"), "s");
    res.metric("zair.bytes", total("bytes"), "B");
    res.metric("zair.check_s", selfPerPass("zair.check"), "s");
    res.metric("zair.stats_s", selfPerPass("zair.stats"), "s");
    res.metric("fidelity.accumulate_s", selfPerPass("fidelity.accumulate"),
               "s");
    res.metric("fidelity.zero_terms", total("zero_terms"), "count");
    res.metric("trace.overhead_frac",
               ratio(median(traced_s), median(untimed_s)) - 1.0, "ratio");
    res.metric("trace.layer_coverage", ratio(covered, wall), "ratio");
}

namespace
{

struct Job
{
    zac::scaling::Family family;
    int n;
};

std::vector<Job>
workloadJobs(const std::string &workload)
{
    using zac::scaling::Family;
    if (workload == "wide")
        return {{Family::Ising, 1280}, {Family::Qv, 128}};
    return {{Family::Ghz, 2000}, {Family::Qaoa, 2000}};
}

} // namespace

void
runOffline(const Options &opt, Result &res)
{
    const std::vector<Job> jobs = workloadJobs(opt.workload);
    zac::ZacOptions opts = zac::ZacOptions::full();
    opts.seed = opt.seed;
    opts.sa_threads = 1; // single-threaded closed loop

    // Set-up, timed on its own and repeated so its median is steady:
    // one warm architecture context and one circuit per job.
    constexpr int kSetupReps = 9;
    std::vector<double> setup_s, arch_s;
    std::vector<zac::Circuit> circuits;
    std::vector<CompileItem> items;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        circuits.clear();
        items.clear();
        double arch_seconds = 0.0;
        const Clock::time_point t0 = Clock::now();
        for (const Job &j : jobs) {
            const Clock::time_point a0 = Clock::now();
            items.push_back(
                {zac::ArchContext::build(zac::scaledZoned(j.n)), opts,
                 nullptr});
            arch_seconds += secondsBetween(a0, Clock::now());
            circuits.push_back(
                zac::scaling::generate(j.family, j.n, opt.seed));
        }
        setup_s.push_back(secondsBetween(t0, Clock::now()));
        arch_s.push_back(arch_seconds);
    }
    for (std::size_t i = 0; i < items.size(); ++i)
        items[i].circuit = &circuits[i];

    // One warm-up pass fills the allocator and the scratch buffers; its
    // outputs are the reference every later pass must reproduce.
    PassRunner runner;
    std::vector<zac::ZacStreamedResult> first, again;
    runner.untimed(items, first);
    runner.untimed_s.clear();

    // The closed loop: passes until the time is up (at least three). A
    // traced run alternates untimed and traced passes so both see the
    // same machine state, and needs only one of each, so it takes about
    // as long as an untraced run.
    const std::size_t kMinPasses = opt.trace ? 1 : 3;
    const Clock::time_point start = Clock::now();
    while (secondsBetween(start, Clock::now()) < opt.seconds ||
           runner.untimed_s.size() < kMinPasses) {
        res.attempted += static_cast<long long>(items.size());
        runner.untimed(items, again);
        for (std::size_t i = 0; i < items.size(); ++i)
            if (again[i].program_json != first[i].program_json)
                res.fail(circuits[i].name() +
                         ": repeated compile produced different bytes");
        if (opt.trace) {
            res.attempted += static_cast<long long>(items.size());
            runner.traced(items, first, res);
        }
    }
    // Peak memory of set-up plus the compile loop, before verification
    // parses whole programs back into DOMs.
    const double rss_mb = peakRssMb();
    const std::vector<double> &pass_s = runner.untimed_s;
    std::fprintf(stderr, "perfbench: %s: %zu passes (s):", opt.workload.c_str(),
                 pass_s.size());
    for (double s : pass_s)
        std::fprintf(stderr, " %.3f", s);
    std::fprintf(stderr, "\n");

    // Verification, outside the timed region.
    const Clock::time_point verify0 = Clock::now();
    double duration_us = 0.0, transfers = 0.0, neg_log10 = 0.0,
           zero_terms = 0.0;
    for (std::size_t i = 0; i < items.size(); ++i) {
        const zac::ZacStreamedResult &r = first[i];
        verifyOutput(r, items[i].ctx->arch,
                     r.circuit_name + "@" + std::to_string(opt.seed), res);
        duration_us += r.stats.makespan_us;
        transfers += r.stats.num_atom_transfers;
        const double zeros = zero_terms;
        addFidelity(r.fidelity, neg_log10, zero_terms);
        std::fprintf(stderr, "perfbench: %s: %g zero fidelity terms\n",
                     r.circuit_name.c_str(), zero_terms - zeros);
    }
    {
        // One DOM-verified compile of the smaller circuit:
        // compileStreamed panics when the streamed bytes differ from
        // the DOM dump.
        const std::size_t i = items.size() - 1;
        try {
            const zac::ZacCompiler compiler(items[i].ctx, opts);
            const zac::ZacStreamedResult r = compiler.compileStreamed(
                circuits[i], zac::CompileControl{}, nullptr, true);
            if (r.program_json != first[i].program_json)
                res.fail("verify_with_dom compile differs");
        } catch (const std::exception &e) {
            res.fail(std::string("verify_with_dom compile: ") + e.what());
        }
    }

    std::fprintf(stderr, "perfbench: %s: verified in %.1f s\n",
                 opt.workload.c_str(), secondsBetween(verify0, Clock::now()));
    if (opt.trace) {
        res.metric("arch.context_build_s", median(arch_s), "s");
        runner.addLayerMetrics(res);
        runner.tracer().writeJson(opt.out_dir + "/trace-" + opt.workload +
                                  "-" + std::to_string(opt.seed) +
                                  ".json");
        return;
    }
    res.metric("compile_s", median(pass_s), "s");
    res.metric("setup_s", median(setup_s), "s");
    res.metric("peak_rss_mb", rss_mb, "MiB");
    res.metric("duration_us", duration_us, "us");
    res.metric("atom_transfers", transfers, "count");
    res.metric("neg_log10_fidelity", neg_log10, "log10");
    res.metric("fidelity.zero_terms", zero_terms, "count");
}

} // namespace perfbench
