#include "service/protocol.hpp"

#include "common/hash.hpp"

namespace zac::service
{

json::Value
makeSubmitRecord(std::uint64_t job_id, const std::string &name,
                 const std::string &target_name,
                 std::uint64_t circuit_hash)
{
    json::Object o;
    o["type"] = "submit";
    o["job_id"] = static_cast<std::int64_t>(job_id);
    o["circuit"] = name;
    o["target"] = target_name;
    o["circuit_hash"] = hexDigest(circuit_hash);
    return o;
}

json::Value
makeJobRecord(const JobRecord &record, const std::string &target_name,
              bool include_zair)
{
    json::Object o;
    o["job_id"] = static_cast<std::int64_t>(record.job_id);
    o["circuit"] = record.name;
    o["target"] = target_name;
    o["status"] = jobStatusName(record.status);
    o["attempts"] = record.attempts;
    o["cache_hit"] = record.cache_hit;
    o["circuit_hash"] = hexDigest(record.circuit_hash);
    o["queue_seconds"] = record.queue_seconds;
    o["service_seconds"] = record.service_seconds;

    if (record.status != JobStatus::Done) {
        o["type"] = "error";
        if (!record.error.empty())
            o["error"] = record.error;
        return o;
    }

    o["type"] = "result";
    const ZacStreamedResult &r = *record.result;
    o["compile_seconds"] = r.compile_seconds;
    o["phase_seconds"] = json::Object{
        {"sa", r.phases.sa_seconds},
        {"placement", r.phases.placement_seconds},
        {"scheduling", r.phases.scheduling_seconds},
        {"fidelity", r.phases.fidelity_seconds},
    };
    o["fidelity"] = r.fidelity.total;
    o["makespan_us"] = r.stats.makespan_us;
    // Named "stats" (not "zair_stats") so "zair" is the
    // lexicographically last key: writeJobRecordJsonl() relies on
    // that to append the streamed program at the end of the line.
    o["stats"] = json::Object{
        {"instructions", r.stats.num_zair_instrs},
        {"rydberg_stages", r.stats.num_rydberg_stages},
        {"rearrange_jobs", r.stats.num_rearrange_jobs},
        {"atom_transfers", r.stats.num_atom_transfers},
        {"move_distance_um", r.stats.total_move_distance_um},
    };
    if (include_zair)
        o["zair"] = json::parse(r.program_json);
    return o;
}

void
writeJobRecordJsonl(std::ostream &out, const JobRecord &record,
                    const std::string &target_name, bool include_zair)
{
    const bool with_zair =
        include_zair && record.status == JobStatus::Done;
    // Build the (small) record DOM without the program, then splice
    // the streamed result's verbatim compact bytes into the line — no
    // program DOM is ever parsed or re-dumped on this path. "zair"
    // sorts after every other key, so appending it before the closing
    // brace yields byte-identical output to the DOM path (unit-tested).
    std::string head =
        makeJobRecord(record, target_name, false).dump();
    if (!with_zair) {
        out << head << '\n';
        return;
    }
    head.pop_back(); // drop '}'
    out << head << ",\"zair\":" << record.result->program_json
        << "}\n";
}

json::Value
makeStatsRecord(const CompileService::ServiceStats &stats)
{
    json::Object o;
    o["type"] = "stats";
    const CompileService::Stats &c = stats.counters;
    o["counters"] = json::Object{
        {"submitted", static_cast<std::int64_t>(c.submitted)},
        {"delivered", static_cast<std::int64_t>(c.delivered)},
        {"overloaded", static_cast<std::int64_t>(c.overloaded)},
        {"transient_failures",
         static_cast<std::int64_t>(c.transient_failures)},
        {"retries", static_cast<std::int64_t>(c.retries)},
        {"retries_exhausted",
         static_cast<std::int64_t>(c.retries_exhausted)},
        {"coalesced_served",
         static_cast<std::int64_t>(c.coalesced_served)},
        {"coalesced_requeued",
         static_cast<std::int64_t>(c.coalesced_requeued)},
    };
    o["cache"] = json::Object{
        {"hits", static_cast<std::int64_t>(stats.cache.hits)},
        {"misses", static_cast<std::int64_t>(stats.cache.misses)},
        {"insertions",
         static_cast<std::int64_t>(stats.cache.insertions)},
        {"evictions",
         static_cast<std::int64_t>(stats.cache.evictions)},
        {"entries", static_cast<std::int64_t>(stats.cache.entries)},
    };
    o["warm_contexts"] = json::Object{
        {"hits", static_cast<std::int64_t>(stats.warm.hits)},
        {"misses", static_cast<std::int64_t>(stats.warm.misses)},
        {"evictions",
         static_cast<std::int64_t>(stats.warm.evictions)},
        {"entries", static_cast<std::int64_t>(stats.warm.entries)},
        {"build_seconds", stats.warm.build_seconds},
    };
    o["workers"] = stats.workers;
    o["uptime_seconds"] = stats.uptime_seconds;
    return o;
}

std::string
toJsonl(const json::Value &v)
{
    return v.dump() + "\n";
}

} // namespace zac::service
