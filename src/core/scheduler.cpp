#include "core/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <queue>
#include <tuple>

#include "common/logging.hpp"
#include "zair/machine.hpp"

namespace zac
{

namespace
{

/**
 * Book-keeping for the list scheduler.
 *
 * Every TrapId is resolved once when a job is lowered and carried
 * alongside its QLocs. Intra-group trap dependencies resolve through an
 * indegree-counted topological worklist, 1Q-gate and Rydberg grouping
 * run on sorted scratch, and AOD availability is a min-tracked heap.
 * The emitted programs, timings and job phase markers included, are
 * pinned by golden digests (tests/test_scheduler.cpp).
 *
 * All growable buffers live in the caller-provided SchedulerScratch;
 * the constructor resets their *values* while their capacity persists
 * across jobs on the same worker.
 */
struct SchedulerState
{
    const Architecture &arch;
    ZairInstrSink &sink;
    SchedulerScratch &sc;
    /**
     * Min-tracked AOD availability: one (available-at, aod id) entry
     * per AOD at all times. Ties pop the lowest id, exactly like the
     * strict-less linear argmin it replaces. Per-run (a handful of
     * entries), so it stays a plain member.
     */
    std::priority_queue<std::pair<double, int>,
                        std::vector<std::pair<double, int>>,
                        std::greater<std::pair<double, int>>>
        aod_avail;
    double raman_avail = 0.0;           ///< sequential 1Q laser

    using U3Key = std::tuple<long long, long long, long long>;

    SchedulerState(const Architecture &a, ZairInstrSink &s,
                   SchedulerScratch &scratch, int num_qubits)
        : arch(a), sink(s), sc(scratch)
    {
        sc.last_end.assign(static_cast<std::size_t>(num_qubits), 0.0);
        sc.vacate.assign(static_cast<std::size_t>(a.numTraps()), 0.0);
        sc.vacated_by_scratch.assign(
            static_cast<std::size_t>(a.numTraps()), -1);
        // Defensive re-clear: emitRydberg leaves these empty, but a
        // compile aborted mid-run (panic, cancellation) must not leak
        // stale qubits into the next job on this worker.
        sc.zone_qubits.resize(a.entanglementZones().size());
        for (std::vector<int> &zq : sc.zone_qubits)
            zq.clear();
        sc.zones_touched.clear();
        for (int id = 0; id < static_cast<int>(a.aods().size()); ++id)
            aod_avail.push({0.0, id});
    }

    QLoc
    qloc(int q, TrapRef t) const
    {
        return {q, t.slm, t.r, t.c};
    }

    /** Emit the 1Q stage as grouped OneQGate instructions. */
    void
    emitOneQStage(const OneQStage &stage,
                  const std::vector<TrapRef> &pos)
    {
        if (stage.ops.empty())
            return;
        // Group by (rounded) unitary: one ZAIR 1qGate per distinct U3.
        // Sorting (key, op index) pairs yields the groups in ascending
        // key order with ops in encounter order inside each group —
        // the exact iteration order of the std::map this replaces.
        auto key_of = [](const U3Angles &a) {
            const double s = 1e9;
            return U3Key{std::llround(a.theta * s),
                         std::llround(a.phi * s),
                         std::llround(a.lambda * s)};
        };
        sc.oneq_keys.clear();
        for (std::size_t i = 0; i < stage.ops.size(); ++i)
            sc.oneq_keys.emplace_back(key_of(stage.ops[i].angles),
                                      static_cast<int>(i));
        std::sort(sc.oneq_keys.begin(), sc.oneq_keys.end());

        for (std::size_t lo = 0; lo < sc.oneq_keys.size();) {
            std::size_t hi = lo;
            while (hi < sc.oneq_keys.size() &&
                   sc.oneq_keys[hi].first == sc.oneq_keys[lo].first)
                ++hi;
            ZairInstr in;
            in.kind = ZairKind::OneQGate;
            in.unitary =
                stage.ops[static_cast<std::size_t>(
                              sc.oneq_keys[lo].second)]
                    .angles;
            in.locs.reserve(hi - lo);
            double ready = raman_avail;
            for (std::size_t k = lo; k < hi; ++k) {
                const StagedU3 &op = stage.ops[static_cast<std::size_t>(
                    sc.oneq_keys[k].second)];
                in.locs.push_back(qloc(
                    op.qubit, pos[static_cast<std::size_t>(op.qubit)]));
                ready = std::max(
                    ready,
                    sc.last_end[static_cast<std::size_t>(op.qubit)]);
            }
            in.begin_time_us = ready;
            in.end_time_us =
                ready + arch.params().t_1q_us *
                            static_cast<double>(hi - lo);
            raman_avail = in.end_time_us;
            for (std::size_t k = lo; k < hi; ++k)
                sc.last_end[static_cast<std::size_t>(
                    stage.ops[static_cast<std::size_t>(
                                  sc.oneq_keys[k].second)]
                        .qubit)] = in.end_time_us;
            sink.onInstr(std::move(in));
            lo = hi;
        }
    }

    /**
     * Emit one transition direction: split into jobs, then assign
     * longest-first to the earliest available AOD.
     */
    void
    emitJobs(const std::vector<Movement> &movements,
             std::vector<TrapRef> &pos)
    {
        if (movements.empty())
            return;
        // Resolve every movement endpoint exactly once: flat TrapId
        // plus its cached position, shared by the conflict-graph split
        // below and the per-job lowering.
        const std::size_t nm = movements.size();
        sc.move_from_ids.resize(nm);
        sc.move_to_ids.resize(nm);
        sc.split_scratch.begin.resize(nm);
        sc.split_scratch.end.resize(nm);
        for (std::size_t i = 0; i < nm; ++i) {
            const Movement &m = movements[i];
            sc.move_from_ids[i] = arch.trapId(m.from);
            sc.move_to_ids[i] = arch.trapId(m.to);
            sc.split_scratch.begin[i] =
                arch.trapPosition(sc.move_from_ids[i]);
            sc.split_scratch.end[i] =
                arch.trapPosition(sc.move_to_ids[i]);
        }
        const int num_groups =
            splitIntoJobGroupsPrepared(nm, sc.split_scratch);

        // Pre-lower each job to get its duration for load balancing.
        // The resolved TrapIds are carried next to the QLocs so no
        // later loop re-derives them.
        struct Pending
        {
            ZairInstr instr;
            JobPhases phases;
            std::vector<TrapId> begin_ids;
            std::vector<TrapId> end_ids;
        };
        std::vector<Pending> pending;
        pending.reserve(static_cast<std::size_t>(num_groups));
        for (int g = 0; g < num_groups; ++g) {
            const std::vector<int> &group =
                sc.split_scratch.groups[static_cast<std::size_t>(g)];
            Pending p;
            p.instr.kind = ZairKind::RearrangeJob;
            p.instr.begin_locs.reserve(group.size());
            p.instr.end_locs.reserve(group.size());
            p.begin_ids.reserve(group.size());
            p.end_ids.reserve(group.size());
            sc.lower_scratch.begin.resize(group.size());
            sc.lower_scratch.end.resize(group.size());
            for (std::size_t k = 0; k < group.size(); ++k) {
                const std::size_t mi =
                    static_cast<std::size_t>(group[k]);
                const Movement &m = movements[mi];
                p.instr.begin_locs.push_back(qloc(m.qubit, m.from));
                p.instr.end_locs.push_back(qloc(m.qubit, m.to));
                p.begin_ids.push_back(sc.move_from_ids[mi]);
                p.end_ids.push_back(sc.move_to_ids[mi]);
                sc.lower_scratch.begin[k] = sc.split_scratch.begin[mi];
                sc.lower_scratch.end[k] = sc.split_scratch.end[mi];
            }
            p.phases = lowerRearrangeJobPrepared(p.instr, arch,
                                                 sc.lower_scratch);
            pending.push_back(std::move(p));
        }
        // Longest-first, by std::sort over job positions. Tied jobs keep
        // the order std::sort gives these positions, which the golden
        // programs pin: keep the comparator and the input order.
        const std::size_t nj = pending.size();
        sc.sort_idx.resize(nj);
        std::iota(sc.sort_idx.begin(), sc.sort_idx.end(), 0);
        std::sort(sc.sort_idx.begin(), sc.sort_idx.end(),
                  [&pending](int a, int b) {
                      return pending[static_cast<std::size_t>(a)]
                                 .phases.total() >
                             pending[static_cast<std::size_t>(b)]
                                 .phases.total();
                  });
        auto at = [&](std::size_t i) -> Pending & {
            return pending[static_cast<std::size_t>(
                sc.sort_idx[static_cast<std::size_t>(i)])];
        };

        // Intra-group trap dependencies (possible with direct in-zone
        // reuse): a job occupying a trap that another job of this group
        // vacates schedules after the vacating job. An indegree-counted
        // topological worklist picks the lowest ready position (the
        // longest ready job) from a min-heap. Cycles (jobs exchanging
        // traps) fall back to the longest-first order: the lowest
        // unscheduled position is force-scheduled.
        sc.touched.clear();
        for (std::size_t i = 0; i < nj; ++i)
            for (const TrapId t : at(i).begin_ids) {
                if (sc.vacated_by_scratch[static_cast<std::size_t>(t)] <
                    0)
                    sc.touched.push_back(t);
                sc.vacated_by_scratch[static_cast<std::size_t>(t)] =
                    static_cast<std::int32_t>(i);
            }
        sc.dep_count.assign(nj, 0);
        if (sc.dep_succ.size() < nj)
            sc.dep_succ.resize(nj);
        for (std::size_t i = 0; i < nj; ++i)
            sc.dep_succ[i].clear();
        for (std::size_t i = 0; i < nj; ++i)
            for (const TrapId t : at(i).end_ids) {
                const std::int32_t v =
                    sc.vacated_by_scratch[static_cast<std::size_t>(t)];
                if (v >= 0 && static_cast<std::size_t>(v) != i) {
                    ++sc.dep_count[i];
                    sc.dep_succ[static_cast<std::size_t>(v)].push_back(
                        static_cast<int>(i));
                }
            }
        for (const TrapId t : sc.touched)
            sc.vacated_by_scratch[static_cast<std::size_t>(t)] = -1;

        sc.scheduled.assign(nj, 0);
        sc.order.clear();
        sc.ready_heap.clear();
        const auto heap_cmp = std::greater<int>();
        for (std::size_t i = 0; i < nj; ++i)
            if (sc.dep_count[i] == 0)
                sc.ready_heap.push_back(static_cast<int>(i));
        std::make_heap(sc.ready_heap.begin(), sc.ready_heap.end(),
                       heap_cmp);
        // The smallest unscheduled position never decreases, so the
        // cycle fallback advances a cursor instead of rescanning.
        std::size_t cursor = 0;
        while (sc.order.size() < nj) {
            int chosen = -1;
            while (!sc.ready_heap.empty()) {
                std::pop_heap(sc.ready_heap.begin(),
                              sc.ready_heap.end(), heap_cmp);
                const int c = sc.ready_heap.back();
                sc.ready_heap.pop_back();
                if (!sc.scheduled[static_cast<std::size_t>(c)]) {
                    chosen = c;
                    break;
                }
            }
            if (chosen < 0) {
                // Dependency cycle: take the first unscheduled job.
                while (sc.scheduled[cursor])
                    ++cursor;
                chosen = static_cast<int>(cursor);
            }
            sc.scheduled[static_cast<std::size_t>(chosen)] = 1;
            sc.order.push_back(chosen);
            for (const int s :
                 sc.dep_succ[static_cast<std::size_t>(chosen)]) {
                if (--sc.dep_count[static_cast<std::size_t>(s)] == 0 &&
                    !sc.scheduled[static_cast<std::size_t>(s)]) {
                    sc.ready_heap.push_back(s);
                    std::push_heap(sc.ready_heap.begin(),
                                   sc.ready_heap.end(), heap_cmp);
                }
            }
        }

        for (const int oi : sc.order) {
            Pending &p = at(static_cast<std::size_t>(oi));
            // Earliest-available AOD (load balancing).
            const auto [avail, best_aod] = aod_avail.top();
            aod_avail.pop();
            p.instr.aod_id = best_aod;

            double start = avail;
            for (const QLoc &l : p.instr.begin_locs)
                start = std::max(
                    start, sc.last_end[static_cast<std::size_t>(l.q)]);
            // Trap dependency: move must end after the vacating pickup.
            const double lead =
                p.instr.move_done_us; // pickup + move (relative)
            for (const TrapId t : p.end_ids) {
                const double v =
                    sc.vacate[static_cast<std::size_t>(t)];
                start = std::max(start, v - lead);
            }

            p.instr.begin_time_us = start;
            p.instr.end_time_us = start + p.phases.total();
            aod_avail.push({p.instr.end_time_us, best_aod});
            const double pickup_end = start + p.phases.pickup_us;
            for (const TrapId t : p.begin_ids)
                sc.vacate[static_cast<std::size_t>(t)] = pickup_end;
            for (const QLoc &l : p.instr.end_locs) {
                sc.last_end[static_cast<std::size_t>(l.q)] =
                    p.instr.end_time_us;
                pos[static_cast<std::size_t>(l.q)] = l.trap();
            }
            sink.onInstr(std::move(p.instr));
        }
    }

    /** Emit the Rydberg pulse(s) of one stage, one per zone used. */
    void
    emitRydberg(const RydbergStage &stage,
                const std::vector<int> &sites)
    {
        for (std::size_t i = 0; i < stage.gates.size(); ++i) {
            const int zone = arch.site(sites[i]).zone_index;
            std::vector<int> &zq =
                sc.zone_qubits[static_cast<std::size_t>(zone)];
            if (zq.empty())
                sc.zones_touched.push_back(zone);
            zq.push_back(stage.gates[i].q0);
            zq.push_back(stage.gates[i].q1);
        }
        // Ascending zone id, the iteration order of the std::map the
        // per-zone scratch replaces.
        std::sort(sc.zones_touched.begin(), sc.zones_touched.end());
        for (const int zone : sc.zones_touched) {
            std::vector<int> &qubits =
                sc.zone_qubits[static_cast<std::size_t>(zone)];
            ZairInstr in;
            in.kind = ZairKind::Rydberg;
            in.zone_id = zone;
            in.gate_qubits = qubits;
            double ready = 0.0;
            for (const int q : qubits)
                ready = std::max(
                    ready, sc.last_end[static_cast<std::size_t>(q)]);
            in.begin_time_us = ready;
            in.end_time_us = ready + arch.params().t_rydberg_us;
            for (const int q : qubits)
                sc.last_end[static_cast<std::size_t>(q)] =
                    in.end_time_us;
            sink.onInstr(std::move(in));
            qubits.clear();
        }
        sc.zones_touched.clear();
    }
};

/** Sink appending to a ZairProgram (the DOM-building entry point). */
class DomSink final : public ZairInstrSink
{
  public:
    explicit DomSink(ZairProgram &program) : program_(program) {}

    void
    onInstr(ZairInstr &&instr) override
    {
        program_.instrs.push_back(std::move(instr));
    }

  private:
    ZairProgram &program_;
};

} // namespace

void
scheduleProgramToSink(const Architecture &arch,
                      const StagedCircuit &staged,
                      const PlacementPlan &plan, ZairInstrSink &sink,
                      SchedulerScratch *scratch)
{
    SchedulerScratch local;
    SchedulerScratch &sc = scratch ? *scratch : local;
    SchedulerState st(arch, sink, sc, staged.numQubits);

    // Position tracking for 1Q qlocs.
    sc.pos.assign(plan.initial.begin(), plan.initial.end());
    std::vector<TrapRef> &pos = sc.pos;

    ZairInstr init;
    init.kind = ZairKind::Init;
    for (int q = 0; q < staged.numQubits; ++q)
        init.init_locs.push_back(
            st.qloc(q, plan.initial[static_cast<std::size_t>(q)]));
    sink.onInstr(std::move(init));

    const int num_stages = staged.numRydbergStages();
    for (int t = 0; t < num_stages; ++t) {
        st.emitJobs(
            plan.transitions[static_cast<std::size_t>(t)].move_out,
            pos);
        st.emitOneQStage(staged.oneQ[static_cast<std::size_t>(t)], pos);
        st.emitJobs(
            plan.transitions[static_cast<std::size_t>(t)].move_in, pos);
        st.emitRydberg(staged.rydberg[static_cast<std::size_t>(t)],
                       plan.gate_sites[static_cast<std::size_t>(t)]);
    }
    st.emitOneQStage(staged.oneQ.back(), pos);
}

ZairProgram
scheduleProgram(const Architecture &arch, const StagedCircuit &staged,
                const PlacementPlan &plan)
{
    ZairProgram program;
    program.circuit_name = staged.name;
    program.arch_name = arch.name();
    program.num_qubits = staged.numQubits;

    DomSink sink(program);
    scheduleProgramToSink(arch, staged, plan, sink, nullptr);

    program.checkInvariants();
    return program;
}

} // namespace zac
