#include "service/cache_store.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "zair/serialize.hpp"

namespace zac::service
{

namespace
{

std::uint64_t
parseHex(const std::string &s)
{
    return std::strtoull(s.c_str(), nullptr, 16);
}

/**
 * Record checksum over the key AND the payload bytes: a flipped bit in
 * either must invalidate the record (a valid payload under a mutated
 * key would serve the wrong bytes for that key, which is worse than a
 * skip).
 */
std::uint64_t
recordChecksum(const CacheKey &key, const std::string &payload)
{
    Fnv1a h;
    h.u64(key.circuit_hash);
    h.u64(key.arch_fingerprint);
    h.u64(key.options_digest);
    h.str(payload);
    return h.digest();
}

/** The protocol-visible surface of one ZacStreamedResult as JSON. */
json::Value
payloadFromResult(const ZacStreamedResult &r)
{
    json::Object p;
    p["compile_seconds"] = r.compile_seconds;
    p["phases"] = json::Object{
        {"sa", r.phases.sa_seconds},
        {"placement", r.phases.placement_seconds},
        {"scheduling", r.phases.scheduling_seconds},
        {"fidelity", r.phases.fidelity_seconds},
    };
    const FidelityBreakdown &f = r.fidelity;
    p["fidelity"] = json::Object{
        {"f_1q", f.f_1q},
        {"f_2q_gates", f.f_2q_gates},
        {"f_excitation", f.f_excitation},
        {"f_2q", f.f_2q},
        {"f_transfer", f.f_transfer},
        {"f_decoherence", f.f_decoherence},
        {"total", f.total},
        {"g1", f.g1},
        {"g2", f.g2},
        {"n_excitation", f.n_excitation},
        {"n_transfer", f.n_transfer},
        {"duration_us", f.duration_us},
    };
    const ZairStats &s = r.stats;
    p["stats"] = json::Object{
        {"num_zair_instrs", s.num_zair_instrs},
        {"num_machine_instrs", s.num_machine_instrs},
        {"num_1q_gates", s.num_1q_gates},
        {"num_2q_gates", s.num_2q_gates},
        {"num_rydberg_stages", s.num_rydberg_stages},
        {"num_rearrange_jobs", s.num_rearrange_jobs},
        {"num_atom_transfers", s.num_atom_transfers},
        {"total_move_distance_um", s.total_move_distance_um},
        {"makespan_us", s.makespan_us},
    };
    p["circuit_name"] = r.circuit_name;
    p["arch_name"] = r.arch_name;
    p["num_qubits"] = r.num_qubits;
    // Verbatim compact bytes, not a re-parsed object: a loaded hit
    // must serve the exact bytes the streamed compile produced.
    p["zair_json"] = r.program_json;
    return p;
}

/** Inverse of payloadFromResult; throws on shape mismatches. */
std::shared_ptr<const ZacStreamedResult>
resultFromPayload(const json::Value &p)
{
    auto r = std::make_shared<ZacStreamedResult>();
    r->compile_seconds = p.at("compile_seconds").asDouble();
    const json::Value &ph = p.at("phases");
    r->phases.sa_seconds = ph.at("sa").asDouble();
    r->phases.placement_seconds = ph.at("placement").asDouble();
    r->phases.scheduling_seconds = ph.at("scheduling").asDouble();
    r->phases.fidelity_seconds = ph.at("fidelity").asDouble();
    const json::Value &f = p.at("fidelity");
    r->fidelity.f_1q = f.at("f_1q").asDouble();
    r->fidelity.f_2q_gates = f.at("f_2q_gates").asDouble();
    r->fidelity.f_excitation = f.at("f_excitation").asDouble();
    r->fidelity.f_2q = f.at("f_2q").asDouble();
    r->fidelity.f_transfer = f.at("f_transfer").asDouble();
    r->fidelity.f_decoherence = f.at("f_decoherence").asDouble();
    r->fidelity.total = f.at("total").asDouble();
    r->fidelity.g1 = f.at("g1").asInt32();
    r->fidelity.g2 = f.at("g2").asInt32();
    r->fidelity.n_excitation = f.at("n_excitation").asInt32();
    r->fidelity.n_transfer = f.at("n_transfer").asInt32();
    r->fidelity.duration_us = f.at("duration_us").asDouble();
    const json::Value &s = p.at("stats");
    r->stats.num_zair_instrs = s.at("num_zair_instrs").asInt32();
    r->stats.num_machine_instrs = s.at("num_machine_instrs").asInt32();
    r->stats.num_1q_gates = s.at("num_1q_gates").asInt32();
    r->stats.num_2q_gates = s.at("num_2q_gates").asInt32();
    r->stats.num_rydberg_stages = s.at("num_rydberg_stages").asInt32();
    r->stats.num_rearrange_jobs = s.at("num_rearrange_jobs").asInt32();
    r->stats.num_atom_transfers = s.at("num_atom_transfers").asInt32();
    r->stats.total_move_distance_um =
        s.at("total_move_distance_um").asDouble();
    r->stats.makespan_us = s.at("makespan_us").asDouble();
    r->circuit_name = p.at("circuit_name").asString();
    r->arch_name = p.at("arch_name").asString();
    r->num_qubits = p.at("num_qubits").asInt32();
    r->program_json = p.at("zair_json").asString();
    // Re-derive the name span and hold the record to it: a snapshot
    // whose bytes disagree with its own names must not be served (the
    // rebind-by-splice path would corrupt the JSON).
    const ZairNameSpan span =
        zairCompactNameSpan(r->circuit_name, r->arch_name);
    r->name_off = span.offset;
    r->name_len = span.length;
    if (r->program_json.compare(
            r->name_off, r->name_len,
            json::Value(r->circuit_name).dump()) != 0)
        throw std::runtime_error(
            "cache snapshot: name span mismatch in zair_json");
    return r;
}

} // namespace

std::size_t
saveCacheSnapshot(const std::string &path, const ResultCache &cache)
{
    const auto entries = cache.entries();
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            fatal("saveCacheSnapshot: cannot write " + tmp);

        json::Object header;
        header["type"] = "zac_cache_snapshot";
        header["version"] = kCacheSnapshotVersion;
        header["records"] = entries.size();
        out << json::Value(std::move(header)).dump() << '\n';

        for (const auto &[key, result] : entries) {
            const std::string payload =
                payloadFromResult(*result).dump();
            // Assemble the line around the pre-dumped payload so the
            // checksum is computed over the exact bytes a loader will
            // re-dump after parsing.
            out << "{\"checksum\":\""
                << hexDigest(recordChecksum(key, payload))
                << "\",\"key\":[\"" << hexDigest(key.circuit_hash)
                << "\",\"" << hexDigest(key.arch_fingerprint)
                << "\",\"" << hexDigest(key.options_digest)
                << "\"],\"payload\":" << payload
                << ",\"type\":\"entry\"}\n";
        }
        out.flush();
        if (!out)
            fatal("saveCacheSnapshot: write failed for " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        fatal("saveCacheSnapshot: cannot rename " + tmp + " -> " +
              path);
    return entries.size();
}

SnapshotLoadStats
loadCacheSnapshot(const std::string &path, ResultCache &cache)
{
    SnapshotLoadStats stats;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return stats;
    stats.file_found = true;

    std::string line;
    bool saw_header = false;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (!saw_header) {
            saw_header = true;
            try {
                const json::Value h = json::parse(line);
                stats.header_ok =
                    h.at("type").asString() == "zac_cache_snapshot" &&
                    h.at("version").asInt() == kCacheSnapshotVersion;
            } catch (const std::exception &) {
                stats.header_ok = false;
            }
            if (!stats.header_ok) {
                // Unknown version or damaged header: the record layout
                // cannot be trusted, count the rest as skipped.
                while (std::getline(in, line))
                    if (!line.empty())
                        ++stats.skipped_version;
                break;
            }
            continue;
        }
        try {
            const json::Value rec = json::parse(line);
            if (rec.at("type").asString() != "entry") {
                ++stats.skipped_corrupt;
                continue;
            }
            const json::Value &payload = rec.at("payload");
            const json::Value &k = rec.at("key");
            const CacheKey key{parseHex(k.at(0).asString()),
                               parseHex(k.at(1).asString()),
                               parseHex(k.at(2).asString())};
            if (parseHex(rec.at("checksum").asString()) !=
                recordChecksum(key, payload.dump())) {
                ++stats.skipped_checksum;
                continue;
            }
            cache.insert(key, resultFromPayload(payload));
            ++stats.records_loaded;
        } catch (const std::exception &) {
            // Parse error, missing field, or malformed program: a
            // truncated tail lands here. Skip, count, keep loading.
            ++stats.skipped_corrupt;
        }
    }
    return stats;
}

} // namespace zac::service
