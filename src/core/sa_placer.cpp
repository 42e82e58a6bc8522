#include "core/sa_placer.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <exception>
#include <limits>
#include <thread>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/cost.hpp"

namespace zac
{

namespace
{

/** Weight of a gate scheduled at 1-based Rydberg stage @p stage. */
double
stageWeight(int stage)
{
    return std::max(0.1, 1.0 - 0.1 * (stage - 1));
}

/** Flattened 2Q gate list with stage weights. */
struct WeightedGate
{
    int q0;
    int q1;
    double weight;
};

std::vector<WeightedGate>
weightedGates(const StagedCircuit &staged)
{
    std::vector<WeightedGate> gates;
    for (int t = 0; t < staged.numRydbergStages(); ++t)
        for (const StagedGate &g :
             staged.rydberg[static_cast<std::size_t>(t)].gates)
            gates.push_back({g.q0, g.q1, stageWeight(t + 1)});
    return gates;
}

/**
 * Weighted Eq. 2 cost of one gate whose qubits sit at traps
 * @p t0 / @p t1. All geometry comes from the Architecture's precomputed
 * tables; no site scan. Single evaluation path shared by the annealer
 * and by initialPlacementCost().
 */
inline double
weightedGateCost(const Architecture &arch, const WeightedGate &g,
                 TrapId t0, TrapId t1)
{
    const Point p0 = arch.trapPosition(t0);
    const Point p1 = arch.trapPosition(t1);
    const int site = nearestSiteForGate(arch, t0, t1);
    return g.weight * gateCost(arch.sitePosition(site), p0, p1);
}

/**
 * Everything about one SA problem instance that is independent of the
 * seed: the weighted gate list, the per-qubit CSR incidence, the jump
 * candidate pool, the trivial initial placement, and the baseline
 * per-gate costs/total of that placement. Built once, shared read-only
 * by every seed stream of a batch.
 */
struct SaShared
{
    const Architecture &arch;
    std::vector<WeightedGate> gates;
    std::vector<std::size_t> gate_offsets; ///< CSR offsets, per qubit
    std::vector<int> gate_list;            ///< CSR gate indices
    std::vector<TrapId> init_traps;        ///< trivial placement, by qubit
    std::vector<TrapId> pool;              ///< jump candidates
    std::vector<double> init_gate_cost;    ///< Eq. 2 terms at init
    double init_total = 0.0;
    std::vector<std::uint8_t> init_occupied; ///< by TrapId
    int num_qubits = 0;

    SaShared(const Architecture &arch_in, const StagedCircuit &staged,
             const std::vector<TrapRef> &init,
             const std::vector<TrapRef> &order)
        : arch(arch_in), gates(weightedGates(staged)),
          init_traps(init.size()),
          init_gate_cost(gates.size(), 0.0),
          init_occupied(static_cast<std::size_t>(arch_in.numTraps()), 0),
          num_qubits(staged.numQubits)
    {
        for (std::size_t q = 0; q < init.size(); ++q) {
            init_traps[q] = arch.trapId(init[q]);
            init_occupied[static_cast<std::size_t>(init_traps[q])] = 1;
        }

        // Jump candidate pool: the traps closest to the entanglement
        // zone (twice the qubit count, at least one full row).
        const std::size_t pool_size = std::min(
            order.size(),
            static_cast<std::size_t>(std::max(2 * num_qubits, 100)));
        pool.resize(pool_size);
        for (std::size_t i = 0; i < pool_size; ++i)
            pool[i] = arch.trapId(order[i]);

        // CSR gate lists: count, prefix-sum, fill. Per-qubit gate
        // order is ascending gate index: it fixes the delta summation
        // order, and so every accept decision, which the golden
        // digests of the SA outputs pin.
        const std::size_t n = static_cast<std::size_t>(num_qubits);
        gate_offsets.assign(n + 1, 0);
        for (const WeightedGate &g : gates) {
            ++gate_offsets[static_cast<std::size_t>(g.q0) + 1];
            ++gate_offsets[static_cast<std::size_t>(g.q1) + 1];
        }
        for (std::size_t q = 1; q <= n; ++q)
            gate_offsets[q] += gate_offsets[q - 1];
        gate_list.resize(gate_offsets[n]);
        std::vector<int> fill(gate_offsets.begin(),
                              gate_offsets.end() - 1);
        for (std::size_t i = 0; i < gates.size(); ++i) {
            gate_list[static_cast<std::size_t>(
                fill[static_cast<std::size_t>(gates[i].q0)]++)] =
                static_cast<int>(i);
            gate_list[static_cast<std::size_t>(
                fill[static_cast<std::size_t>(gates[i].q1)]++)] =
                static_cast<int>(i);
        }

        // Baseline costs of the trivial placement, summed in gate
        // order: the starting total every accept decision sees.
        for (std::size_t i = 0; i < gates.size(); ++i) {
            init_gate_cost[i] = weightedGateCost(
                arch, gates[i],
                init_traps[static_cast<std::size_t>(gates[i].q0)],
                init_traps[static_cast<std::size_t>(gates[i].q1)]);
            init_total += init_gate_cost[i];
        }
    }

    /** Exact Eq. 2 total of @p traps, summed in gate order. */
    double
    exactCost(const std::vector<TrapId> &traps) const
    {
        double total = 0.0;
        for (const WeightedGate &g : gates)
            total += weightedGateCost(
                arch, g, traps[static_cast<std::size_t>(g.q0)],
                traps[static_cast<std::size_t>(g.q1)]);
        return total;
    }
};

/** One accepted SA move, journaled for best-state reconstruction. */
struct AcceptedOp
{
    int q;           ///< moved qubit, or swap partner a
    int partner;     ///< swap partner b, or -1 for a jump
    TrapId old_trap; ///< jump source trap (jumps only)
};

} // namespace

/**
 * The buffers behind the opaque SaScratch handle: the per-seed mutable
 * state and proposal scratch of one SeedAnnealer. Every field is
 * value-assigned when an annealer binds to the scratch, so capacity is
 * the only thing that survives a job.
 */
struct SaScratch::Impl
{
    std::vector<TrapId> traps;
    std::vector<double> gate_cost;
    std::vector<std::uint8_t> occupied;
    std::vector<AcceptedOp> since_best;
    std::vector<double> pending;
    std::vector<std::uint64_t> stamp;
    std::vector<int> touched;
};

SaScratch::SaScratch() : impl_(std::make_unique<Impl>()) {}
SaScratch::~SaScratch() = default;

namespace
{

/**
 * One annealing stream over the shared instance, with propose/commit/
 * revert move evaluation: a proposed move computes only the touched
 * gates' cost deltas into pending scratch; committing writes them to
 * the flat per-gate cache, reverting restores the integer trap state
 * and rewinds the running total by the recorded partial deltas — no
 * second cost evaluation, no cache writes on the (majority) rejected
 * moves.
 *
 * Bit-exactness contract: the sequence of per-move deltas and running
 * totals is that of an apply-then-undo evaluator that re-evaluates
 * every touched gate on both apply and undo. The golden digests of the
 * SA outputs (tests/golden_table.cpp, "sa/" keys) were generated from
 * such an evaluator and pin this summation order: per-qubit gate visit
 * order is the CSR order (ascending gate index); the two per-qubit
 * partial deltas of a swap come from one `peek(a) + peek(b)`
 * expression, the shape the digests were generated with, so the
 * compiler picks the same operand order; and a revert adds the exact
 * negations of the recorded partials in the recorded order, the values
 * re-evaluating every touched gate would re-derive.
 *
 * The scratch (pending costs, stamps, touched list) is reused across
 * the seeds a worker runs; only resets between seeds copy O(#gates).
 */
class SeedAnnealer
{
  public:
    SeedAnnealer(const SaShared &shared, const SaOptions &opts,
                 SaScratch::Impl &sc)
        : shared_(shared), opts_(opts), sc_(sc),
          total_(shared.init_total)
    {
        // Value-assign every scratch field: same initial state as the
        // freshly-constructed buffers this replaces, whatever ran in
        // the scratch before.
        sc_.traps = shared.init_traps;
        sc_.gate_cost = shared.init_gate_cost;
        sc_.occupied = shared.init_occupied;
        sc_.since_best.clear();
        sc_.pending.assign(shared.gates.size(), 0.0);
        sc_.stamp.assign(shared.gates.size(), 0);
        sc_.touched.clear();
        sc_.touched.reserve(64);
    }

    /**
     * Run one full annealing stream from the trivial placement.
     * @param seed      RNG seed of this stream.
     * @param best_out  receives the best trap assignment, by qubit.
     * @return the exact (re-evaluated) Eq. 2 cost of @p best_out.
     */
    double
    run(std::uint64_t seed, std::vector<TrapId> &best_out)
    {
        const int n = shared_.num_qubits;
        Rng rng(seed);
        reset();

        // Adaptive initial temperature: the mean |delta| of a few
        // destructive probe swaps, rolled back by re-resetting from
        // the shared baseline (the probes start from it bit-exactly).
        double t0 = 0.0;
        {
            int samples = 0;
            for (int i = 0; i < 16 && n >= 2; ++i) {
                const int a = rng.nextInt(0, n - 1);
                int b = rng.nextInt(0, n - 1);
                if (a == b)
                    continue;
                const double d = proposeSwap(a, b);
                commit();
                t0 += std::abs(d);
                ++samples;
            }
            reset();
            t0 = samples > 0 ? std::max(1e-6, t0 / samples) : 1.0;
        }
        const SaOptions &opts = opts_;
        const double t_end = t0 * opts.t_end_factor;
        const double cooling = std::pow(
            t_end / t0, 1.0 / std::max(1, opts.max_iterations - 1));

        // Instead of copying the whole trap vector on every
        // improvement, journal the moves accepted since the best
        // state; the best trap assignment is reconstructed at the end
        // by rewinding the journal.
        double best_cost = total_;
        sc_.since_best.clear();
        double temp = t0;

        for (int iter = 0; iter < opts.max_iterations;
             ++iter, temp *= cooling) {
            const int q = rng.nextInt(0, n - 1);
            double delta = 0.0;
            bool did_swap = false;
            int partner = -1;
            const TrapId old_trap = sc_.traps[static_cast<std::size_t>(q)];
            TrapId new_trap = kInvalidTrapId;

            if (rng.nextBool(0.5) && n >= 2) {
                // Swap with another qubit.
                partner = rng.nextInt(0, n - 1);
                if (partner == q)
                    continue;
                delta = proposeSwap(q, partner);
                did_swap = true;
            } else {
                // Jump to a random empty trap in the pool.
                new_trap = shared_.pool[rng.nextBelow(
                    shared_.pool.size())];
                if (sc_.occupied[static_cast<std::size_t>(new_trap)])
                    continue;
                delta = proposeMove(q, new_trap);
            }

            const bool accept = delta <= 0.0 ||
                                rng.nextDouble() <
                                    std::exp(-delta / temp);
            if (accept) {
                commit();
                if (!did_swap) {
                    sc_.occupied[static_cast<std::size_t>(old_trap)] = 0;
                    sc_.occupied[static_cast<std::size_t>(new_trap)] = 1;
                }
                sc_.since_best.push_back({q, partner, old_trap});
                if (total_ < best_cost) {
                    best_cost = total_;
                    sc_.since_best.clear();
                }
            } else {
                revert();
            }
        }

        // Rewind the journal from the final state back to the best
        // state.
        best_out = sc_.traps;
        for (auto it = sc_.since_best.rbegin(); it != sc_.since_best.rend();
             ++it) {
            if (it->partner >= 0)
                std::swap(
                    best_out[static_cast<std::size_t>(it->q)],
                    best_out[static_cast<std::size_t>(it->partner)]);
            else
                best_out[static_cast<std::size_t>(it->q)] =
                    it->old_trap;
        }
        return shared_.exactCost(best_out);
    }

  private:
    /** Restore the shared baseline state (trivial placement). */
    void
    reset()
    {
        sc_.traps = shared_.init_traps;
        sc_.gate_cost = shared_.init_gate_cost;
        sc_.occupied = shared_.init_occupied;
        total_ = shared_.init_total;
    }

    inline double
    evalGate(int i) const
    {
        const WeightedGate &g =
            shared_.gates[static_cast<std::size_t>(i)];
        return weightedGateCost(
            shared_.arch, g, sc_.traps[static_cast<std::size_t>(g.q0)],
            sc_.traps[static_cast<std::size_t>(g.q1)]);
    }

    /**
     * Peek the cost delta of all gates touching @p q at the *current*
     * (already mutated) trap assignment, without writing the per-gate
     * cache: fresh values land in pending scratch, the partial delta
     * is added to the running total and recorded for a later revert.
     * Summation order and intermediate values are those of a full
     * re-evaluation of q's gates in ascending gate index, bit for bit.
     */
    double
    peekQubit(int q)
    {
        double delta = 0.0;
        const std::size_t lo =
            shared_.gate_offsets[static_cast<std::size_t>(q)];
        const std::size_t hi =
            shared_.gate_offsets[static_cast<std::size_t>(q) + 1];
        for (std::size_t k = lo; k < hi; ++k) {
            const int i = shared_.gate_list[k];
            const double fresh = evalGate(i);
            const double base =
                sc_.stamp[static_cast<std::size_t>(i)] == cur_stamp_
                    ? sc_.pending[static_cast<std::size_t>(i)]
                    : sc_.gate_cost[static_cast<std::size_t>(i)];
            delta += fresh - base;
            if (sc_.stamp[static_cast<std::size_t>(i)] != cur_stamp_) {
                sc_.stamp[static_cast<std::size_t>(i)] = cur_stamp_;
                sc_.touched.push_back(i);
            }
            sc_.pending[static_cast<std::size_t>(i)] = fresh;
        }
        total_ += delta;
        part_delta_[num_parts_++] = delta;
        return delta;
    }

    /** Propose swapping two qubits' traps; returns the move delta. */
    double
    proposeSwap(int a, int b)
    {
        std::swap(sc_.traps[static_cast<std::size_t>(a)],
                  sc_.traps[static_cast<std::size_t>(b)]);
        beginProposal();
        prop_is_swap_ = true;
        prop_a_ = a;
        prop_b_ = b;
        // One expression, as in the evaluator the golden digests came
        // from: its operand order is unspecified, and splitting it
        // could reorder the two running-total updates and change every
        // later accept decision.
        return peekQubit(a) + peekQubit(b);
    }

    /** Propose moving @p q to empty trap @p t; returns the delta. */
    double
    proposeMove(int q, TrapId t)
    {
        prop_old_trap_ = sc_.traps[static_cast<std::size_t>(q)];
        sc_.traps[static_cast<std::size_t>(q)] = t;
        beginProposal();
        prop_is_swap_ = false;
        prop_a_ = q;
        return peekQubit(q);
    }

    /** Accept the outstanding proposal: publish the pending costs. */
    void
    commit()
    {
        for (int i : sc_.touched)
            sc_.gate_cost[static_cast<std::size_t>(i)] =
                sc_.pending[static_cast<std::size_t>(i)];
    }

    /**
     * Reject the outstanding proposal: restore the integer trap state
     * and subtract the recorded partial deltas in recording order —
     * bitwise the totals an undo that re-evaluates every touched gate
     * at the restored positions produces (each undo partial is the
     * exact negation of the forward one).
     */
    void
    revert()
    {
        if (prop_is_swap_)
            std::swap(sc_.traps[static_cast<std::size_t>(prop_a_)],
                      sc_.traps[static_cast<std::size_t>(prop_b_)]);
        else
            sc_.traps[static_cast<std::size_t>(prop_a_)] = prop_old_trap_;
        for (int p = 0; p < num_parts_; ++p)
            total_ += -part_delta_[p];
    }

    void
    beginProposal()
    {
        ++cur_stamp_;
        sc_.touched.clear();
        num_parts_ = 0;
    }

    const SaShared &shared_;
    const SaOptions &opts_;
    /**
     * Per-seed mutable state (traps/gate_cost/occupied/since_best,
     * reset() restores the shared baseline) and proposal scratch
     * (pending/stamp/touched) — caller-owned so capacity persists
     * across jobs on a service worker.
     */
    SaScratch::Impl &sc_;
    double total_;
    std::uint64_t cur_stamp_ = 0;
    double part_delta_[2] = {0.0, 0.0}; ///< per-qubit partial deltas
    int num_parts_ = 0;
    bool prop_is_swap_ = false;
    int prop_a_ = -1;
    int prop_b_ = -1;
    TrapId prop_old_trap_ = kInvalidTrapId;
};

/**
 * RNG seed of stream @p s: stream 0 is the user seed itself (so a
 * single-seed run reproduces the pre-batch output exactly), stream
 * s > 0 is the s-th SplitMix64 output from that seed — decorrelated
 * from stream 0 and from each other (the Rng constructor's own
 * SplitMix seeding would make adjacent raw seeds share state words).
 */
std::uint64_t
seedForStream(std::uint64_t seed, int s)
{
    if (s == 0)
        return seed;
    return splitMix64Mix(
        seed + kSplitMix64Gamma * static_cast<std::uint64_t>(s));
}

} // namespace

std::vector<TrapRef>
storageTrapsByProximity(const Architecture &arch)
{
    const std::vector<TrapRef> &all = arch.allStorageTraps();
    if (all.empty())
        fatal("storageTrapsByProximity: no storage traps");
    // Row distance to the nearest Rydberg-site row decides the order;
    // column index breaks ties so filling proceeds left to right. Site
    // rows are deduplicated (a zone shares one y per row), and the
    // distance is computed once per storage row (a trap's y depends on
    // its SLM and row only; allStorageTraps() lists each row's traps
    // together) rather than per trap or inside the sort comparator.
    std::vector<double> site_rows;
    for (const RydbergSite &s : arch.sites())
        site_rows.push_back(s.pos_left.y);
    std::sort(site_rows.begin(), site_rows.end());
    site_rows.erase(std::unique(site_rows.begin(), site_rows.end()),
                    site_rows.end());
    struct Keyed
    {
        TrapRef t;
        double d;
    };
    std::vector<Keyed> keyed;
    keyed.reserve(all.size());
    TrapRef row{};
    double row_d = 0.0;
    for (const TrapRef &t : all) {
        if (t.slm != row.slm || t.r != row.r) {
            row = t;
            const double y = arch.trapPosition(t).y;
            row_d = std::numeric_limits<double>::max();
            for (double sy : site_rows)
                row_d = std::min(row_d, std::abs(sy - y));
        }
        keyed.push_back({t, row_d});
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const Keyed &a, const Keyed &b) {
                         if (std::abs(a.d - b.d) > 1e-9)
                             return a.d < b.d;
                         if (a.t.r != b.t.r)
                             return a.t.r < b.t.r;
                         return a.t.c < b.t.c;
                     });
    std::vector<TrapRef> traps;
    traps.reserve(keyed.size());
    for (const Keyed &k : keyed)
        traps.push_back(k.t);
    return traps;
}

std::vector<TrapRef>
trivialInitialPlacement(const Architecture &arch, int num_qubits)
{
    return trivialInitialPlacementPrepared(storageTrapsByProximity(arch),
                                           num_qubits);
}

std::vector<TrapRef>
trivialInitialPlacementPrepared(const std::vector<TrapRef> &order,
                                int num_qubits)
{
    if (static_cast<int>(order.size()) < num_qubits)
        fatal("trivialInitialPlacement: " + std::to_string(num_qubits) +
              " qubits exceed " + std::to_string(order.size()) +
              " storage traps");
    return std::vector<TrapRef>(
        order.begin(), order.begin() + num_qubits);
}

double
initialPlacementCost(const Architecture &arch, const StagedCircuit &staged,
                     const std::vector<TrapRef> &traps)
{
    double total = 0.0;
    for (const WeightedGate &g : weightedGates(staged))
        total += weightedGateCost(
            arch, g, arch.trapId(traps[static_cast<std::size_t>(g.q0)]),
            arch.trapId(traps[static_cast<std::size_t>(g.q1)]));
    return total;
}

std::vector<TrapRef>
saInitialPlacement(const Architecture &arch, const StagedCircuit &staged,
                   const SaOptions &opts)
{
    return saInitialPlacement(arch, staged, opts, {}, nullptr);
}

std::vector<TrapRef>
saInitialPlacement(const Architecture &arch, const StagedCircuit &staged,
                   const SaOptions &opts,
                   const std::function<void()> &checkpoint,
                   SaSeedReport *report)
{
    return saInitialPlacementPrepared(arch, staged, opts,
                                      storageTrapsByProximity(arch),
                                      checkpoint, report, nullptr);
}

std::vector<TrapRef>
saInitialPlacementPrepared(const Architecture &arch,
                           const StagedCircuit &staged,
                           const SaOptions &opts,
                           const std::vector<TrapRef> &order,
                           const std::function<void()> &checkpoint,
                           SaSeedReport *report, SaScratch *scratch)
{
    const int n = staged.numQubits;
    if (static_cast<int>(order.size()) < n)
        fatal("saInitialPlacement: " + std::to_string(n) +
              " qubits exceed " + std::to_string(order.size()) +
              " storage traps");
    std::vector<TrapRef> init(order.begin(), order.begin() + n);
    const int num_seeds = std::max(1, opts.num_seeds);
    if (staged.count2Q() == 0 || n < 2) {
        if (report != nullptr) {
            report->seed_costs.assign(
                static_cast<std::size_t>(num_seeds), 0.0);
            report->best_seed = 0;
        }
        return init;
    }

    const SaShared shared(arch, staged, init, order);

    std::vector<std::vector<TrapId>> bests(
        static_cast<std::size_t>(num_seeds));
    std::vector<double> costs(static_cast<std::size_t>(num_seeds), 0.0);

    int workers = opts.num_threads > 0
                      ? opts.num_threads
                      : static_cast<int>(
                            std::thread::hardware_concurrency());
    workers = std::clamp(workers, 1, num_seeds);

    if (checkpoint)
        checkpoint();
    if (workers == 1) {
        SaScratch local_scratch;
        SaScratch &sc = scratch != nullptr ? *scratch : local_scratch;
        SeedAnnealer annealer(shared, opts, sc.impl());
        for (int s = 0; s < num_seeds; ++s) {
            if (s > 0 && checkpoint)
                checkpoint();
            costs[static_cast<std::size_t>(s)] = annealer.run(
                seedForStream(opts.seed, s),
                bests[static_cast<std::size_t>(s)]);
        }
    } else {
        // Lightweight internal pool: workers pull seed indices from a
        // shared counter; every stream is independent and
        // deterministic, so the outputs do not depend on which worker
        // runs which seed. The checkpoint runs on each worker before
        // every seed (it must be thread-safe here — the compiler's
        // CompileControl::poll is an atomic load plus a clock read),
        // so cancellation lands at seed granularity in the parallel
        // batch too. Exceptions are captured and rethrown (the lowest
        // seed index wins, deterministically).
        std::atomic<int> next{0};
        std::vector<std::exception_ptr> errors(
            static_cast<std::size_t>(num_seeds));
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(workers));
        for (int w = 0; w < workers; ++w) {
            pool.emplace_back([&] {
                SaScratch local_scratch;
                SeedAnnealer annealer(shared, opts,
                                      local_scratch.impl());
                for (;;) {
                    const int s =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (s >= num_seeds)
                        return;
                    try {
                        if (s > 0 && checkpoint)
                            checkpoint();
                        costs[static_cast<std::size_t>(s)] =
                            annealer.run(
                                seedForStream(opts.seed, s),
                                bests[static_cast<std::size_t>(s)]);
                    } catch (...) {
                        errors[static_cast<std::size_t>(s)] =
                            std::current_exception();
                    }
                }
            });
        }
        for (std::thread &t : pool)
            t.join();
        for (const std::exception_ptr &e : errors)
            if (e)
                std::rethrow_exception(e);
    }

    // Best cost wins; ties break to the lowest seed index (the strict
    // '<' scan makes the selection independent of evaluation order).
    int best_seed = 0;
    for (int s = 1; s < num_seeds; ++s)
        if (costs[static_cast<std::size_t>(s)] <
            costs[static_cast<std::size_t>(best_seed)])
            best_seed = s;
    if (report != nullptr) {
        report->seed_costs = costs;
        report->best_seed = best_seed;
    }

    const std::vector<TrapId> &best_ids =
        bests[static_cast<std::size_t>(best_seed)];
    std::vector<TrapRef> best(best_ids.size());
    for (std::size_t i = 0; i < best_ids.size(); ++i)
        best[i] = arch.trapRef(best_ids[i]);
    return best;
}

} // namespace zac
