/**
 * @file
 * Instruction scheduling with trap/qubit dependencies and multi-AOD
 * load balancing (paper Sec. VI).
 *
 * Produces the final timed ZAIR program. Dependencies:
 *  - qubit dependency: instructions on the same qubit never overlap;
 *  - trap dependency: a job moving a qubit onto an SLM trap must finish
 *    its move no earlier than the pickup of the job vacating that trap
 *    (partial overlap allowed);
 *  - the Raman (1Q) laser is a single sequential resource, matching the
 *    paper's conservative sequential-1Q assumption;
 *  - each rearrangement job occupies one AOD for its whole duration;
 *    parallelizable jobs are assigned longest-first to the earliest
 *    available AOD.
 *
 * The implementation resolves each TrapId once, orders trap
 * dependencies with a topological worklist, groups on sorted scratch,
 * splits and lowers jobs in reusable scratch, and tracks AOD
 * availability in a min-heap. Its output is pinned by golden digests
 * (tests/test_scheduler.cpp).
 *
 * Two entry points share one implementation: scheduleProgram() builds
 * the ZairProgram DOM, scheduleProgramToSink() hands each instruction
 * to a ZairInstrSink as it is finalized (the compiler's staged body
 * uses it for every entry point). The instruction sequence is
 * identical either way.
 */

#ifndef ZAC_CORE_SCHEDULER_HPP
#define ZAC_CORE_SCHEDULER_HPP

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "core/jobs.hpp"
#include "core/movement.hpp"
#include "transpile/stages.hpp"
#include "zair/machine.hpp"
#include "zair/program.hpp"

namespace zac
{

/**
 * Receives scheduled instructions in emission order. Implementations
 * may serialize, accumulate statistics, or append to a DOM; the
 * scheduler never revisits an instruction once handed over.
 */
class ZairInstrSink
{
  public:
    virtual ~ZairInstrSink() = default;
    virtual void onInstr(ZairInstr &&instr) = 0;
};

/**
 * Reusable scheduling buffers. A worker keeps one instance across jobs
 * so per-compile allocation drops to amortized zero; every field is
 * re-initialized (values, not capacity) at the start of each run, so
 * results are independent of what ran before.
 */
struct SchedulerScratch
{
    std::vector<double> last_end;
    std::vector<double> vacate;
    std::vector<std::int32_t> vacated_by_scratch;
    std::vector<std::pair<std::tuple<long long, long long, long long>,
                          int>>
        oneq_keys;
    std::vector<std::vector<int>> zone_qubits;
    std::vector<int> zones_touched;
    JobSplitScratch split_scratch;
    RearrangeLowerScratch lower_scratch;
    std::vector<int> sort_idx;
    std::vector<int> dep_count;
    std::vector<std::vector<int>> dep_succ;
    std::vector<char> scheduled;
    std::vector<int> order;
    std::vector<int> ready_heap;
    std::vector<TrapId> touched;
    std::vector<TrapId> move_from_ids;
    std::vector<TrapId> move_to_ids;
    std::vector<TrapRef> pos;
};

/**
 * Schedule a placement plan into a timed ZAIR program.
 *
 * @param arch   the architecture (supplies AOD count and durations).
 * @param staged the staged circuit.
 * @param plan   the placement plan from runDynamicPlacement.
 */
ZairProgram scheduleProgram(const Architecture &arch,
                            const StagedCircuit &staged,
                            const PlacementPlan &plan);

/**
 * Schedule a placement plan, emitting each instruction to @p sink as it
 * is finalized instead of materializing a ZairProgram. Emits the exact
 * instruction sequence scheduleProgram() stores, but performs no
 * whole-program invariant check (stream a ZairInvariantChecker for
 * that). @p scratch may be null for one-shot use.
 */
void scheduleProgramToSink(const Architecture &arch,
                           const StagedCircuit &staged,
                           const PlacementPlan &plan,
                           ZairInstrSink &sink,
                           SchedulerScratch *scratch = nullptr);

} // namespace zac

#endif // ZAC_CORE_SCHEDULER_HPP
