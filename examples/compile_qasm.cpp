/**
 * @file
 * Command-line compiler: compile an OpenQASM 2.0 file (or a built-in
 * paper benchmark) for a zoned architecture and report fidelity.
 *
 *   usage: compile_qasm <circuit.qasm | benchmark-name>
 *                       [--arch <spec.json | reference | arch1 | arch2>]
 *                       [--aods N] [--no-sa] [--no-reuse] [--vanilla]
 *                       [--out zair.json]
 *
 * Examples:
 *   $ ./compile_qasm ghz_n40
 *   $ ./compile_qasm my_circuit.qasm --aods 2 --out routed.json
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "arch/presets.hpp"
#include "arch/serialize.hpp"
#include "circuit/generators.hpp"
#include "circuit/qasm_parser.hpp"
#include "cli_flags.hpp"
#include "common/logging.hpp"
#include "core/compiler.hpp"
#include "zair/serialize.hpp"

namespace
{

void
usage()
{
    std::printf(
        "usage: compile_qasm <circuit.qasm | benchmark> [options]\n"
        "  --arch <file.json|reference|arch1|arch2>  target (default "
        "reference)\n"
        "  --aods N       number of AODs on the reference arch (1-16)\n"
        "  --no-sa        disable SA initial placement\n"
        "  --no-reuse     disable qubit reuse\n"
        "  --vanilla      trivial static placement (ablation "
        "baseline)\n"
        "  --out <file>   write the timed ZAIR program as JSON\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace zac;
    if (argc < 2) {
        usage();
        return 1;
    }

    std::string input = argv[1];
    std::string arch_name = "reference";
    std::string out_path;
    int aods = 1;
    ZacOptions opts = ZacOptions::full();
    const cli::FlagParser flags{"compile_qasm", usage};
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--arch" && i + 1 < argc)
            arch_name = argv[++i];
        else if (arg == "--aods" && i + 1 < argc)
            aods = static_cast<int>(flags.intFlag(
                "--aods", argv[++i], 1, presets::kMaxReferenceAods));
        else if (arg == "--no-sa")
            opts.use_sa_init = false;
        else if (arg == "--no-reuse")
            opts.use_reuse = false;
        else if (arg == "--vanilla")
            opts = ZacOptions::vanilla();
        else if (arg == "--out" && i + 1 < argc)
            out_path = argv[++i];
        else {
            usage();
            return 1;
        }
    }

    try {
        // Circuit: .qasm file or a built-in benchmark name.
        const bool is_file = input.size() > 5 &&
                             input.substr(input.size() - 5) == ".qasm";
        const Circuit circuit =
            is_file ? qasm::parseFile(input)
                    : bench_circuits::paperBenchmark(input);

        Architecture arch;
        if (arch_name == "reference")
            arch = presets::referenceZoned(aods);
        else if (arch_name == "arch1")
            arch = presets::multiZoneArch1();
        else if (arch_name == "arch2")
            arch = presets::multiZoneArch2();
        else
            arch = loadArchitecture(arch_name);

        ZacCompiler compiler(arch, opts);
        const ZacResult result = compiler.compile(circuit);
        const FidelityBreakdown &f = result.fidelity;
        const ZairStats stats = result.program.stats();

        std::printf("circuit        %s (%d qubits)\n",
                    circuit.name().c_str(), circuit.numQubits());
        std::printf("architecture   %s\n", arch.name().c_str());
        std::printf("gates          %d 2Q + %d 1Q in %d Rydberg "
                    "stages\n",
                    f.g2, f.g1, result.staged.numRydbergStages());
        std::printf("reuses         %d qubits across %d boundaries\n",
                    result.plan.reused_qubits,
                    result.plan.reuse_boundaries);
        std::printf("rearrangements %d jobs, %d atom transfers, "
                    "%.1f um total motion\n",
                    stats.num_rearrange_jobs, stats.num_atom_transfers,
                    stats.total_move_distance_um);
        std::printf("duration       %.3f ms\n", f.duration_us / 1e3);
        std::printf("fidelity       %.4f  (2Q %.4f | 1Q %.4f | "
                    "transfer %.4f | decoherence %.4f | excitation "
                    "%.4f)\n",
                    f.total, f.f_2q_gates, f.f_1q, f.f_transfer,
                    f.f_decoherence, f.f_excitation);
        std::printf("compile time   %.3f s\n", result.compile_seconds);
        if (!out_path.empty()) {
            saveZairProgram(out_path, result.program);
            std::printf("ZAIR written   %s\n", out_path.c_str());
        }
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
