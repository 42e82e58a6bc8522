/**
 * @file
 * Stress test for the documented re-entrancy of ZacCompiler::compile():
 * N threads concurrently compiling across every option preset must
 * produce bit-identical ZAIR programs and fidelity values to a
 * single-threaded reference run. This locks in that a compile's
 * buffers belong to its call (or its caller's CompileScratch) and no
 * state is shared between threads, which the compile service builds
 * on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "arch/presets.hpp"
#include "arch/scaling.hpp"
#include "circuit/generators.hpp"
#include "circuit/scaling.hpp"
#include "core/compiler.hpp"
#include "zair/serialize.hpp"

namespace zac
{
namespace
{

/** Canonical bytes of one compile result (ZAIR + fidelity bits). */
std::string
signatureOf(const ZacResult &r)
{
    std::ostringstream ss;
    streamZairProgram(ss, r.program, 0);
    // Exact bit patterns, not 6-sig-digit ostream formatting: the
    // whole point is catching low-order-bit divergence.
    ss << '|' << std::bit_cast<std::uint64_t>(r.fidelity.total) << '|'
       << std::bit_cast<std::uint64_t>(r.fidelity.duration_us);
    return ss.str();
}

TEST(CompileReentrancy, BitIdenticalAcrossThreadsAndPresets)
{
    const std::vector<std::pair<const char *, ZacOptions>> presets_{
        {"vanilla", ZacOptions::vanilla()},
        {"dynplace", ZacOptions::dynPlace()},
        {"dynplace_reuse", ZacOptions::dynPlaceReuse()},
        {"full", ZacOptions::full()},
    };
    // Paper circuits on the reference architecture, plus a scaled
    // qaoa3r whose storage placement takes the expanded sparse solve
    // under the reuse presets, so the threads race its scratch too.
    const std::vector<Architecture> archs{presets::referenceZoned(),
                                          scaledZoned(128)};
    std::vector<std::pair<std::size_t, Circuit>> cases;
    for (const char *name : {"ghz_n23", "qft_n18", "ising_n42"})
        cases.emplace_back(0, bench_circuits::paperBenchmark(name));
    cases.emplace_back(1,
                       scaling::generate(scaling::Family::Qaoa, 128));

    // One compiler per (architecture, preset), shared by every thread
    // (compile() is const and documented re-entrant).
    std::vector<std::vector<ZacCompiler>> compilers(archs.size());
    for (std::size_t a = 0; a < archs.size(); ++a)
        for (const auto &[name, opts] : presets_)
            compilers[a].emplace_back(archs[a], opts);
    auto compile = [&](int p, const std::pair<std::size_t, Circuit> &c) {
        return compilers[c.first][static_cast<std::size_t>(p)].compile(
            c.second);
    };

    // Single-threaded reference signatures.
    std::map<std::pair<int, std::string>, std::string> reference;
    for (std::size_t p = 0; p < presets_.size(); ++p)
        for (const auto &c : cases) {
            const ZacResult r = compile(static_cast<int>(p), c);
            reference[{static_cast<int>(p), c.second.name()}] =
                signatureOf(r);
            if (c.first == 1 && presets_[p].second.use_reuse) {
                EXPECT_GT(r.phases.placement.qubit_placer.expanded_solves,
                          0)
                    << presets_[p].first;
            }
        }

    constexpr int kThreads = 8;
    constexpr int kRepsPerThread = 2;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Each thread walks the (preset, circuit) grid from a
            // different offset so distinct presets overlap in time.
            const int n =
                static_cast<int>(presets_.size() * cases.size());
            for (int rep = 0; rep < kRepsPerThread; ++rep) {
                for (int k = 0; k < n; ++k) {
                    const int i = (k + t) % n;
                    const int p = i / static_cast<int>(cases.size());
                    const auto &c =
                        cases[static_cast<std::size_t>(i) % cases.size()];
                    const ZacResult r = compile(p, c);
                    // .at(): a concurrent-read-safe const lookup
                    // (operator[] could default-insert, a data race).
                    if (signatureOf(r) !=
                        reference.at({p, c.second.name()}))
                        ++mismatches;
                }
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(mismatches.load(), 0)
        << "concurrent compile() output diverged from the "
           "single-threaded reference";
}

} // namespace
} // namespace zac
