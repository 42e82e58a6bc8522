/**
 * @file
 * ZAC: the zoned-architecture compiler (paper Sec. IV).
 *
 * Pipeline: preprocessing (resynthesis to {CZ, U3}, 1Q optimization,
 * ASAP staging) -> reuse-aware placement -> load-balancing scheduling ->
 * timed ZAIR program + fidelity report.
 *
 * Every entry point runs one staged body: validate the staged circuit,
 * SA initial placement on the context's cached storage-proximity order,
 * dynamic placement, then scheduleProgramToSink() into one sink. For
 * each instruction the scheduler finalizes, the sink checks the ZAIR
 * invariants, counts the program statistics and accumulates the
 * fidelity estimate, then serializes the instruction into the compact
 * ZAIR/JSON bytes, appends it to a ZairProgram DOM, or both, as the
 * entry point asks:
 *  - compile() / compileStaged(): the DOM only (ZacResult);
 *  - compileStreamed(): the bytes only (ZacStreamedResult), plus the
 *    DOM in verify_with_dom test mode, where the bytes are compared
 *    against the DOM dump after the timed region.
 * Both outputs come from one instruction stream. ZairStreamWriter
 * writes the bytes straight from each instruction, not through the
 * DOM, so their equality with zairProgramToJson(program).dump() is
 * checked, not built in: by the unit tests and by verify_with_dom.
 */

#ifndef ZAC_CORE_COMPILER_HPP
#define ZAC_CORE_COMPILER_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "arch/spec.hpp"
#include "circuit/circuit.hpp"
#include "core/movement.hpp"
#include "core/options.hpp"
#include "core/sa_placer.hpp"
#include "core/scheduler.hpp"
#include "fidelity/model.hpp"
#include "transpile/stages.hpp"
#include "zair/program.hpp"

namespace zac
{

/**
 * Thrown by the compile entry points when a CompileControl reports
 * cancellation or an expired deadline between pipeline phases. Distinct
 * from FatalError/PanicError: the inputs and the compiler are both fine,
 * the caller simply asked for the work to stop.
 */
class CompileCancelled : public std::runtime_error
{
  public:
    explicit CompileCancelled(bool timed_out)
        : std::runtime_error(timed_out ? "compile deadline exceeded"
                                       : "compile cancelled"),
          timed_out_(timed_out)
    {
    }

    /** @return true when the deadline (not an explicit cancel) fired. */
    bool timedOut() const { return timed_out_; }

  private:
    bool timed_out_;
};

/**
 * Cooperative control handle for one compilation, checked at phase
 * boundaries (preprocess, SA, placement, scheduling, fidelity). The
 * granularity is deliberately coarse: phases are short (milliseconds on
 * the paper circuits), and checking only between them keeps the hot
 * paths free of any synchronization.
 *
 * The pointed-to flag must outlive the compile call; the compile-service
 * worker owns one per job.
 */
struct CompileControl
{
    using Clock = std::chrono::steady_clock;

    /** When non-null and true, the compile aborts with CompileCancelled. */
    const std::atomic<bool> *cancel = nullptr;
    /** Absolute deadline; Clock::time_point::max() means none. */
    Clock::time_point deadline = Clock::time_point::max();
    /** Invoked on entry to each phase with its name (may be empty). */
    std::function<void(const char *phase)> on_phase;

    /** Throw CompileCancelled if cancelled or past the deadline. */
    void
    checkpoint(const char *phase) const
    {
        poll();
        if (on_phase) {
            on_phase(phase);
            // The hook itself may request cancellation (the service's
            // fault-injection harness flips the cancel flag from
            // on_phase to test mid-compile aborts deterministically);
            // honor it at this boundary, not one phase later.
            poll();
        }
    }

    /**
     * Cancellation/deadline check without a phase announcement: used
     * for intra-phase checks (e.g. between SA seed-batch streams)
     * where on_phase must keep firing once per phase.
     */
    void
    poll() const
    {
        if (cancel != nullptr &&
            cancel->load(std::memory_order_relaxed))
            throw CompileCancelled(false);
        if (deadline != Clock::time_point::max() &&
            Clock::now() > deadline)
            throw CompileCancelled(true);
    }
};

/** Wall-clock breakdown of one compilation (always filled). */
struct CompilePhaseTimings
{
    double sa_seconds = 0.0;          ///< initial placement (SA/trivial)
    double placement_seconds = 0.0;   ///< runDynamicPlacement total
    /** scheduleProgramToSink plus the per-instruction sink work
     *  (checks, stats, fidelity, serialization or DOM append). */
    double scheduling_seconds = 0.0;
    double fidelity_seconds = 0.0;    ///< finishing the accumulators
    /** Fine-grained dynamic-placement breakdown (reuse matching, gate
     *  placement, movement) measured inside runDynamicPlacement. */
    PlacementProfile placement;
};

/** Everything produced by one compilation. */
struct ZacResult
{
    StagedCircuit staged;          ///< preprocessed, staged circuit
    PlacementPlan plan;            ///< placement decisions
    ZairProgram program;           ///< timed ZAIR output
    FidelityBreakdown fidelity;    ///< five-term fidelity estimate
    double compile_seconds = 0.0;  ///< wall-clock compilation time
    CompilePhaseTimings phases;    ///< per-phase wall-clock breakdown
};

/**
 * Everything produced by one zero-DOM (streamed) compilation: the
 * compact ZAIR/JSON bytes, which equal zairProgramToJson(program).dump()
 * of the DOM path (checked by the unit tests and verify_with_dom), plus
 * the summary statistics and fidelity breakdown accumulated while
 * streaming. The (name_off, name_len) span locates the circuit-name
 * string literal in program_json so a cached result can be re-labeled
 * by byte splice.
 */
struct ZacStreamedResult
{
    std::string circuit_name;
    std::string arch_name;
    int num_qubits = 0;
    std::string program_json;      ///< compact ZAIR/JSON bytes
    std::size_t name_off = 0;      ///< circuit-name literal offset
    std::size_t name_len = 0;      ///< circuit-name literal length
    ZairStats stats;               ///< accumulated program statistics
    FidelityBreakdown fidelity;    ///< five-term fidelity estimate
    double compile_seconds = 0.0;  ///< wall-clock compilation time
    CompilePhaseTimings phases;    ///< per-phase wall-clock breakdown
};

/**
 * Everything about one architecture that every compile re-derived
 * before warm contexts existed: the finalized Architecture itself
 * (with its cached trap/site/zone tables) plus the storage-proximity
 * order the placement phase needs. Built once per distinct
 * architectureFingerprint() and shared read-only across workers.
 */
struct ArchContext
{
    Architecture arch;
    /** storageTrapsByProximity(arch), cached for Prepared placement. */
    std::vector<TrapRef> storage_by_proximity;
    std::uint64_t fingerprint = 0;  ///< architectureFingerprint(arch)
    double build_seconds = 0.0;     ///< wall-clock cost of build()
    /** Validate @p arch and derive the shared tables. */
    static std::shared_ptr<const ArchContext> build(Architecture arch);
};

/**
 * Per-worker reusable compile buffers (SA annealer state, placement and
 * matching buffers, scheduler grouping/dependency scratch), the only
 * owner of buffers reused across compiles. Value-reset at every use;
 * capacity persists across the jobs a worker runs.
 */
struct CompileScratch
{
    SaScratch sa;
    PlacementScratch placement;
    SchedulerScratch scheduler;
    /** The buffer compileStreamed() serializes into. The result gets an
     *  exact-size copy; the capacity stays here for the next job. */
    std::string zair_bytes;
};

/**
 * The ZAC compiler, bound to one architecture and option set.
 *
 * Thread-compatible: compile() is const and re-entrant, so multiple
 * circuits may be compiled concurrently from different threads, each
 * with its own CompileScratch (or none).
 */
class ZacCompiler
{
  public:
    /**
     * @throws zac::FatalError naming the option when `lookahead_alpha`
     *         is not finite and >= 0 or `candidate_k` is negative.
     */
    explicit ZacCompiler(Architecture arch, ZacOptions opts = {});

    /**
     * Bind to a prebuilt (possibly pool-shared) architecture context —
     * the warm path: no Architecture copy, no table derivation. Checks
     * the options as above.
     */
    explicit ZacCompiler(std::shared_ptr<const ArchContext> context,
                         ZacOptions opts = {});

    const Architecture &arch() const { return context_->arch; }
    const std::shared_ptr<const ArchContext> &context() const
    {
        return context_;
    }
    const ZacOptions &options() const { return opts_; }

    /**
     * Full pipeline from a raw (any gate set) circuit to the ZairProgram
     * DOM. @p control is checkpointed between phases and may cancel the
     * compile (throws CompileCancelled) or observe phase progress.
     */
    ZacResult compile(const Circuit &circuit,
                      const CompileControl &control = {}) const;

    /**
     * Pipeline from an already-staged circuit (used by the FTQC logical
     * compilation, which stages transversal gates itself).
     */
    ZacResult compileStaged(const StagedCircuit &staged,
                            const CompileControl &control = {}) const;

    /**
     * Full pipeline to the compact ZAIR/JSON bytes, the production path:
     * no ZairProgram is materialized. Byte-identical to serializing
     * compile()'s program.
     *
     * @param scratch         reusable per-worker buffers (may be null).
     * @param verify_with_dom also build the DOM and panic unless the
     *        streamed bytes equal its dump (test mode; the comparison
     *        runs after the timed region).
     */
    ZacStreamedResult compileStreamed(const Circuit &circuit,
                                      const CompileControl &control = {},
                                      CompileScratch *scratch = nullptr,
                                      bool verify_with_dom = false) const;

  private:
    /**
     * The one staged body behind every entry point. The result's bytes
     * are filled when @p serialize is set; the instructions are
     * appended to @p dom when it is non-null; with both, the bytes are
     * checked against the DOM dump after the last timestamp. @p plan,
     * when non-null, receives the placement plan.
     */
    ZacStreamedResult runStaged(const StagedCircuit &staged,
                                const CompileControl &control,
                                CompileScratch *scratch, bool serialize,
                                ZairProgram *dom,
                                PlacementPlan *plan) const;

    std::shared_ptr<const ArchContext> context_;
    ZacOptions opts_;
};

} // namespace zac

#endif // ZAC_CORE_COMPILER_HPP
