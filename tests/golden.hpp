/**
 * @file
 * Golden digests: 64-bit FNV-1a fingerprints of placement plans, ZAIR
 * programs, fidelity breakdowns, SA trap assignments and Eq. 2 costs,
 * checked against a committed table (golden_table.cpp) keyed by the
 * input that produced them.
 *
 * The table pins the compiler's output bits on fixed or seeded inputs,
 * so a change that alters a plan, a program, a fidelity term, an SA
 * placement or a cost's last bit fails the test that names the key.
 * An intended output change edits the entry (the failure prints the
 * new digest) and says why in CHANGES.md.
 */

#ifndef ZAC_TESTS_GOLDEN_HPP
#define ZAC_TESTS_GOLDEN_HPP

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.hpp"
#include "core/movement.hpp"
#include "fidelity/model.hpp"
#include "zair/program.hpp"
#include "zair/serialize.hpp"

namespace zac::golden
{

inline void
hashTrap(Fnv1a &h, const TrapRef &t)
{
    h.i64(t.slm);
    h.i64(t.r);
    h.i64(t.c);
}

inline void
hashQLocs(Fnv1a &h, const std::vector<QLoc> &locs)
{
    h.u64(locs.size());
    for (const QLoc &l : locs) {
        h.i64(l.q);
        h.i64(l.a);
        h.i64(l.r);
        h.i64(l.c);
    }
}

/** A trap assignment (SA placements, trap orders, query results). */
inline std::uint64_t
trapsDigest(const std::vector<TrapRef> &traps)
{
    Fnv1a h;
    h.u64(traps.size());
    for (const TrapRef &t : traps)
        hashTrap(h, t);
    return h.digest();
}

/** The bits of one Eq. 2 cost. */
inline std::uint64_t
costDigest(double cost)
{
    Fnv1a h;
    h.f64(cost);
    return h.digest();
}

/** Every PlacementPlan field. */
inline std::uint64_t
planDigest(const PlacementPlan &plan)
{
    Fnv1a h;
    h.u64(plan.initial.size());
    for (const TrapRef &t : plan.initial)
        hashTrap(h, t);
    h.u64(plan.gate_sites.size());
    for (const std::vector<int> &stage : plan.gate_sites) {
        h.u64(stage.size());
        for (int site : stage)
            h.i64(site);
    }
    h.u64(plan.transitions.size());
    for (const StageTransition &tr : plan.transitions)
        for (const std::vector<Movement> *moves :
             {&tr.move_out, &tr.move_in}) {
            h.u64(moves->size());
            for (const Movement &m : *moves) {
                h.i64(m.qubit);
                hashTrap(h, m.from);
                hashTrap(h, m.to);
            }
        }
    h.i64(plan.reused_qubits);
    h.i64(plan.reuse_boundaries);
    h.i64(plan.direct_moves);
    return h.digest();
}

/**
 * The serialized JSON bytes, plus every instruction's scheduled fields
 * whatever its kind. That covers the fields the JSON does not carry:
 * each rearrange job's pickup_done_us and move_done_us, and the fields
 * an instruction's kind leaves unused.
 */
inline std::uint64_t
programDigest(const ZairProgram &program)
{
    Fnv1a h;
    h.str(zairProgramToJson(program).dump());
    for (const ZairInstr &in : program.instrs) {
        h.u8(static_cast<std::uint8_t>(in.kind));
        hashQLocs(h, in.init_locs);
        h.f64(in.unitary.theta);
        h.f64(in.unitary.phi);
        h.f64(in.unitary.lambda);
        hashQLocs(h, in.locs);
        h.i64(in.zone_id);
        h.u64(in.gate_qubits.size());
        for (int q : in.gate_qubits)
            h.i64(q);
        h.i64(in.aod_id);
        hashQLocs(h, in.begin_locs);
        hashQLocs(h, in.end_locs);
        h.u64(in.insts.size());
        h.f64(in.pickup_done_us);
        h.f64(in.move_done_us);
        h.f64(in.begin_time_us);
        h.f64(in.end_time_us);
    }
    return h.digest();
}

/** Every FidelityBreakdown field, counts included. */
inline std::uint64_t
fidelityDigest(const FidelityBreakdown &f)
{
    Fnv1a h;
    for (double term : {f.f_1q, f.f_2q_gates, f.f_excitation, f.f_2q,
                        f.f_transfer, f.f_decoherence, f.total,
                        f.duration_us})
        h.f64(term);
    for (int count : {f.g1, f.g2, f.n_excitation, f.n_transfer})
        h.i64(count);
    return h.digest();
}

/** The committed digest for @p key, or null when there is none. */
const std::uint64_t *findGolden(std::string_view key);

/**
 * Check @p digest against the table's entry for @p key. A failure
 * names the key and prints the actual digest in hex.
 */
inline void
expectGolden(const std::string &key, std::uint64_t digest)
{
    const auto hex = [](std::uint64_t d) {
        char buf[19];
        std::snprintf(buf, sizeof buf, "0x%016" PRIx64, d);
        return std::string(buf);
    };
    const std::uint64_t *want = findGolden(key);
    if (want == nullptr)
        ADD_FAILURE() << "golden: no entry for key '" << key
                      << "' (actual digest " << hex(digest) << ")";
    else if (*want != digest)
        ADD_FAILURE() << "golden: digest mismatch for key '" << key
                      << "': expected " << hex(*want) << ", actual "
                      << hex(digest);
}

} // namespace zac::golden

#endif // ZAC_TESTS_GOLDEN_HPP
