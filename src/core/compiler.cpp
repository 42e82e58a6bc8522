#include "core/compiler.hpp"

#include <chrono>
#include <cmath>
#include <sstream>
#include <utility>

#include "arch/serialize.hpp"
#include "common/logging.hpp"
#include "core/sa_placer.hpp"
#include "core/scheduler.hpp"
#include "transpile/optimize.hpp"
#include "zair/serialize.hpp"

namespace zac
{

namespace
{

using CompileClock = std::chrono::steady_clock;

double
secondsSince(CompileClock::time_point t0, CompileClock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/**
 * The pipeline's one sink: every finalized instruction is checked,
 * counted and fidelity-accumulated, then serialized when @p writer is
 * non-null and appended to the DOM when @p dom is non-null.
 */
class PipelineSink final : public ZairInstrSink
{
  public:
    PipelineSink(const Architecture &arch, int num_qubits,
                 ZairStreamWriter *writer, ZairProgram *dom)
        : checker(num_qubits), fid(arch, num_qubits), writer_(writer),
          dom_(dom)
    {
    }

    void
    onInstr(ZairInstr &&instr) override
    {
        checker.feed(instr);
        stats.feed(instr);
        fid.feed(instr);
        if (writer_ != nullptr)
            writer_->add(instr);
        if (dom_ != nullptr)
            dom_->instrs.push_back(std::move(instr));
    }

    ZairInvariantChecker checker;
    ZairStatsAccumulator stats;
    FidelityAccumulator fid;

  private:
    ZairStreamWriter *writer_;
    ZairProgram *dom_;
};

/**
 * Reject a circuit wider than storage. The entry points that
 * preprocess run it first, before any per-qubit allocation.
 */
void
checkFitsStorage(const Architecture &arch, int num_qubits)
{
    if (num_qubits > arch.numStorageTraps())
        fatal("ZacCompiler: more qubits than storage traps");
}

} // namespace

std::shared_ptr<const ArchContext>
ArchContext::build(Architecture arch)
{
    if (!arch.finalized())
        fatal("ZacCompiler: architecture must be finalized");
    if (arch.storageZones().empty())
        fatal("ZacCompiler: a zoned architecture needs a storage zone");
    const auto t0 = CompileClock::now();
    auto ctx = std::make_shared<ArchContext>();
    ctx->arch = std::move(arch);
    ctx->storage_by_proximity = storageTrapsByProximity(ctx->arch);
    ctx->fingerprint = architectureFingerprint(ctx->arch);
    ctx->build_seconds = secondsSince(t0, CompileClock::now());
    return ctx;
}

ZacCompiler::ZacCompiler(Architecture arch, ZacOptions opts)
    : ZacCompiler(ArchContext::build(std::move(arch)), opts)
{
}

ZacCompiler::ZacCompiler(std::shared_ptr<const ArchContext> context,
                         ZacOptions opts)
    : context_(std::move(context)), opts_(opts)
{
    if (context_ == nullptr)
        fatal("ZacCompiler: null architecture context");
    // Eq. 3's lookahead weight; storage placement's candidate bounds
    // also rely on it being non-negative.
    if (!(std::isfinite(opts_.lookahead_alpha) &&
          opts_.lookahead_alpha >= 0.0))
        fatal("ZacCompiler: lookahead_alpha must be finite and >= 0, got " +
              std::to_string(opts_.lookahead_alpha));
    if (opts_.candidate_k < 0)
        fatal("ZacCompiler: candidate_k must be >= 0, got " +
              std::to_string(opts_.candidate_k));
}

ZacResult
ZacCompiler::compile(const Circuit &circuit,
                     const CompileControl &control) const
{
    checkFitsStorage(arch(), circuit.numQubits());
    control.checkpoint("preprocess");
    const Circuit pre = preprocess(circuit);
    return compileStaged(scheduleStages(pre, arch().numSites()), control);
}

ZacResult
ZacCompiler::compileStaged(const StagedCircuit &staged,
                           const CompileControl &control) const
{
    ZacResult result;
    const ZacStreamedResult r = runStaged(staged, control, nullptr, false,
                                          &result.program, &result.plan);
    result.staged = staged;
    result.fidelity = r.fidelity;
    result.compile_seconds = r.compile_seconds;
    result.phases = r.phases;
    return result;
}

ZacStreamedResult
ZacCompiler::compileStreamed(const Circuit &circuit,
                             const CompileControl &control,
                             CompileScratch *scratch,
                             bool verify_with_dom) const
{
    checkFitsStorage(arch(), circuit.numQubits());
    control.checkpoint("preprocess");
    const Circuit pre = preprocess(circuit);
    const StagedCircuit staged = scheduleStages(pre, arch().numSites());
    ZairProgram dom;
    return runStaged(staged, control, scratch, true,
                     verify_with_dom ? &dom : nullptr, nullptr);
}

ZacStreamedResult
ZacCompiler::runStaged(const StagedCircuit &staged,
                       const CompileControl &control,
                       CompileScratch *scratch, bool serialize,
                       ZairProgram *dom, PlacementPlan *plan_out) const
{
    const Architecture &arch_ = context_->arch;
    checkFitsStorage(arch_, staged.numQubits);
    for (const RydbergStage &s : staged.rydberg)
        if (static_cast<int>(s.gates.size()) > arch_.numSites())
            fatal("ZacCompiler: a stage exceeds the Rydberg site count; "
                  "re-stage with the architecture's capacity");

    const auto start = CompileClock::now();

    control.checkpoint("sa");
    SaOptions sa;
    sa.max_iterations = opts_.sa_iterations;
    sa.seed = opts_.seed;
    sa.num_seeds = opts_.sa_num_seeds;
    sa.num_threads = opts_.sa_threads;
    // The proximity order comes from the shared context and the
    // annealer buffers from the caller's scratch; both are value-reset
    // per compile. The per-seed poll keeps multi-seed SA batches
    // cancellable at seed granularity without re-announcing the phase.
    const std::vector<TrapRef> initial =
        opts_.use_sa_init
            ? saInitialPlacementPrepared(
                  arch_, staged, sa, context_->storage_by_proximity,
                  [&control] { control.poll(); }, nullptr,
                  scratch != nullptr ? &scratch->sa : nullptr)
            : trivialInitialPlacementPrepared(
                  context_->storage_by_proximity, staged.numQubits);
    const auto t_sa = CompileClock::now();

    control.checkpoint("placement");
    ZacStreamedResult result;
    PlacementPlan plan = runDynamicPlacement(
        arch_, staged, initial, opts_, &result.phases.placement,
        scratch != nullptr ? &scratch->placement : nullptr);
    const auto t_place = CompileClock::now();

    control.checkpoint("scheduling");
    result.circuit_name = staged.name;
    result.arch_name = arch_.name();
    result.num_qubits = staged.numQubits;
    if (dom != nullptr) {
        dom->circuit_name = result.circuit_name;
        dom->arch_name = result.arch_name;
        dom->num_qubits = result.num_qubits;
    }
    // Serialize into the scratch's buffer, so a worker does not regrow
    // (and free) a buffer the size of its output on every compile.
    std::string buffer;
    if (scratch != nullptr) {
        buffer = std::move(scratch->zair_bytes);
        buffer.clear();
    }
    std::ostringstream os(std::move(buffer));
    ZairStreamWriter writer(os, 0);
    PipelineSink sink(arch_, staged.numQubits,
                      serialize ? &writer : nullptr, dom);
    if (serialize)
        writer.begin(result.circuit_name, result.arch_name,
                     result.num_qubits);
    scheduleProgramToSink(
        arch_, staged, plan, sink,
        scratch != nullptr ? &scratch->scheduler : nullptr);
    if (serialize)
        writer.end();
    sink.checker.finish();
    const auto t_sched = CompileClock::now();

    control.checkpoint("fidelity");
    result.fidelity = sink.fid.finish();
    result.stats = sink.stats.finish();
    if (serialize) {
        result.program_json = os.str();
        if (scratch != nullptr)
            scratch->zair_bytes = std::move(os).str();
        const ZairNameSpan span =
            zairCompactNameSpan(result.circuit_name, result.arch_name);
        result.name_off = span.offset;
        result.name_len = span.length;
        if (result.program_json.compare(
                result.name_off, result.name_len,
                json::Value(result.circuit_name).dump()) != 0)
            panic("ZacCompiler: compact name span mismatch");
    }

    const auto end = CompileClock::now();
    result.phases.sa_seconds = secondsSince(start, t_sa);
    result.phases.placement_seconds = secondsSince(t_sa, t_place);
    result.phases.scheduling_seconds = secondsSince(t_place, t_sched);
    result.phases.fidelity_seconds = secondsSince(t_sched, end);
    result.compile_seconds = secondsSince(start, end);

    // Test mode compares after the last timestamp, so the timings
    // above measure the production path even here.
    if (serialize && dom != nullptr &&
        zairProgramToJson(*dom).dump() != result.program_json)
        panic("ZacCompiler: streamed bytes differ from the DOM dump");
    if (plan_out != nullptr)
        *plan_out = std::move(plan);
    return result;
}

} // namespace zac
