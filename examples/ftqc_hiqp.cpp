/**
 * @file
 * Fault-tolerant compilation example (paper Sec. VIII): compile the
 * hypercube IQP circuit on [[8,3,2]] code blocks at the logical level
 * and inspect how ZAC moves whole code blocks to realize transversal
 * CNOTs.
 *
 *   $ ./ftqc_hiqp [num_blocks]     (power of two, default 32)
 *
 * A block count that is not an integer in [2, storage traps of the
 * logical architecture] is a usage error (exit 2); one in range that
 * is not a power of two is a compile error (exit 1).
 */

#include <cstdio>

#include "arch/presets.hpp"
#include "cli_flags.hpp"
#include "common/logging.hpp"
#include "core/compiler.hpp"
#include "ftqc/code832.hpp"
#include "ftqc/hiqp.hpp"
#include "ftqc/logical.hpp"

namespace
{

void
usage()
{
    std::printf("usage: ftqc_hiqp [num_blocks]   (a power of two, "
                "default 32)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace zac;
    using namespace zac::ftqc;

    // Compile at block level: each block is one movable unit; the
    // logical architecture scales the reference machine's entanglement
    // zone down to floor(7/2) x floor(20/4) = 3x5 block sites.
    const Architecture arch = presets::logicalBlockArch();
    const cli::FlagParser flags{"ftqc_hiqp", usage};
    const int blocks =
        argc > 1 ? static_cast<int>(flags.intFlag(
                       "num_blocks", argv[1], 2, arch.numStorageTraps()))
                 : 32;

    try {
        // The [[8,3,2]] block: 8 physical qubits in 2x4, 3 logical qubits.
        std::printf("[[8,3,2]] block: %d physical qubits (%dx%d), %d "
                    "logical qubits, distance %d\n",
                    Code832::kPhysicalQubits, Code832::kRows,
                    Code832::kCols, Code832::kLogicalQubits,
                    Code832::kDistance);

        const HiqpCircuit circuit = makeHiqpCircuit(blocks);
        std::printf("hIQP instance: %d blocks = %d logical qubits, %d "
                    "in-block layers, %d CNOT layers (stride 1..%d), %d "
                    "transversal CNOTs\n\n",
                    circuit.num_blocks, circuit.numLogicalQubits(),
                    circuit.numInBlockLayers(), circuit.numCnotLayers(),
                    circuit.num_blocks / 2,
                    circuit.numTransversalCnots());

        ZacOptions opts;
        opts.sa_iterations = 400;
        const FtqcResult result = compileHiqp(circuit, arch, opts);

        std::printf("compiled with ZAC on '%s' (%d logical sites):\n",
                    arch.name().c_str(), result.logical_sites);
        std::printf("  Rydberg stages      %d\n", result.rydberg_stages);
        std::printf("  block reuses        %d\n",
                    result.zac.plan.reused_qubits);
        std::printf("  physical duration   %.2f ms\n", result.duration_ms);
        std::printf("  physical qubits     %d\n", result.physical_qubits);

        // Show the first transversal CNOT as physical qubit pairs.
        const auto pairs =
            transversalCnotPairs(0, 1, Code832::kPhysicalQubits);
        std::printf("\nfirst inter-block CNOT = physical CNOTs on pairs:");
        for (const auto &[a, b] : pairs)
            std::printf(" (%d,%d)", a, b);
        std::printf("\n");

        if (blocks == 128)
            std::printf("\npaper reference for 128 blocks: 35 Rydberg "
                        "stages, 117.847 ms\n");
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
