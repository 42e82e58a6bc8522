#include "service/manifest.hpp"

#include <algorithm>
#include <cmath>

#include "arch/presets.hpp"
#include "arch/serialize.hpp"
#include "circuit/generators.hpp"
#include "circuit/qasm_parser.hpp"
#include "common/logging.hpp"

namespace zac::service
{

namespace
{

Architecture
archFromRef(const std::string &ref, int aods)
{
    if (ref == "reference")
        return presets::referenceZoned(aods);
    if (ref == "monolithic")
        return presets::monolithic();
    if (ref == "arch1")
        return presets::multiZoneArch1();
    if (ref == "arch2")
        return presets::multiZoneArch2();
    // Anything else is a spec-JSON path.
    return loadArchitecture(ref);
}

/**
 * Warn (once per key) about manifest keys the loader does not read: a
 * typo like "sa_numseeds" would otherwise silently fall back to the
 * default, which is the worst failure mode a config file can have.
 */
void
warnUnknownKeys(const json::Value &v,
                std::initializer_list<const char *> known,
                const std::string &context)
{
    for (const auto &[key, value] : v.asObject()) {
        bool ok = false;
        for (const char *k : known)
            if (key == k)
                ok = true;
        if (!ok)
            warn("manifest: " + context + ": unknown key '" + key +
                 "' is ignored");
    }
}

/**
 * @p v's member @p key as an int, or @p fallback when it is absent. A
 * value that is not an integer within int's range is an error naming
 * the key, never narrowed or wrapped.
 */
int
intMember(const json::Value &v, const char *key, int fallback,
          const std::string &context)
{
    if (!v.contains(key))
        return fallback;
    try {
        return v.at(key).asInt32();
    } catch (const FatalError &e) {
        fatal("manifest: " + context + ": '" + key + "': " + e.what());
    }
}

ZacOptions
optionsFromPreset(const std::string &preset)
{
    if (preset == "full")
        return ZacOptions::full();
    if (preset == "vanilla")
        return ZacOptions::vanilla();
    if (preset == "dynplace")
        return ZacOptions::dynPlace();
    if (preset == "dynplace_reuse")
        return ZacOptions::dynPlaceReuse();
    fatal("manifest: unknown option preset '" + preset +
          "' (expected full, vanilla, dynplace, dynplace_reuse)");
}

} // namespace

Circuit
resolveCircuit(const std::string &ref)
{
    const bool is_qasm =
        ref.size() > 5 && ref.substr(ref.size() - 5) == ".qasm";
    return is_qasm ? qasm::parseFile(ref)
                   : bench_circuits::paperBenchmark(ref);
}

CompileTarget
targetFromJson(const json::Value &v)
{
    CompileTarget t;
    t.name = v.contains("name") ? v.at("name").asString() : "default";
    const std::string context = "target '" + t.name + "'";
    warnUnknownKeys(v,
                    {"name", "arch", "aods", "preset", "seed",
                     "sa_iterations", "sa_num_seeds", "sa_threads"},
                    context);
    const std::string arch_ref =
        v.contains("arch") ? v.at("arch").asString() : "reference";
    const int aods = intMember(v, "aods", 1, context);
    if (aods < 1 || aods > presets::kMaxReferenceAods)
        fatal("manifest: " + context + ": aods " + std::to_string(aods) +
              " out of range [1, " +
              std::to_string(presets::kMaxReferenceAods) + "]");
    t.arch = archFromRef(arch_ref, aods);
    t.opts = optionsFromPreset(
        v.contains("preset") ? v.at("preset").asString() : "full");
    if (v.contains("seed"))
        t.opts.seed =
            static_cast<std::uint64_t>(v.at("seed").asInt());
    t.opts.sa_iterations =
        intMember(v, "sa_iterations", t.opts.sa_iterations, context);
    t.opts.sa_num_seeds =
        intMember(v, "sa_num_seeds", t.opts.sa_num_seeds, context);
    // The SA engine runs one independent chain per seed; zero
    // chains compute nothing and hundreds burn hours per job.
    if (t.opts.sa_num_seeds < 1 || t.opts.sa_num_seeds > 256)
        fatal("manifest: " + context + ": sa_num_seeds " +
              std::to_string(t.opts.sa_num_seeds) +
              " out of range [1, 256]");
    // Service workers already saturate the cores; default the nested
    // SA seed batch to one thread unless the manifest asks otherwise.
    t.opts.sa_threads = intMember(v, "sa_threads", 1, context);
    return t;
}

CompileService::Submission
submissionFromJson(const json::Value &v,
                   const std::vector<std::string> &target_names)
{
    CompileService::Submission s;
    if (!v.contains("circuit"))
        fatal("job needs a 'circuit'");
    const std::string ref = v.at("circuit").asString();
    s.circuit = resolveCircuit(ref);
    s.name = v.contains("label") ? v.at("label").asString()
                                 : s.circuit.name();
    if (s.name.empty())
        s.name = ref;

    if (v.contains("target")) {
        const json::Value &tv = v.at("target");
        if (tv.isString()) {
            const auto it = std::find(target_names.begin(),
                                      target_names.end(), tv.asString());
            if (it == target_names.end())
                fatal("job references unknown target '" +
                      tv.asString() + "'");
            s.target = static_cast<int>(it - target_names.begin());
        } else {
            const std::int64_t index = tv.asInt();
            if (index < 0 ||
                index >= static_cast<std::int64_t>(target_names.size()))
                fatal("job target index " + std::to_string(index) +
                      " out of range");
            s.target = static_cast<int>(index);
        }
    }
    if (v.contains("seed"))
        s.seed = static_cast<std::uint64_t>(v.at("seed").asInt());
    s.timeout_seconds = v.numberOr("timeout_seconds", 0.0);
    if (!std::isfinite(s.timeout_seconds) || s.timeout_seconds < 0.0)
        fatal("job '" + s.name +
              "': timeout_seconds must be a finite value >= 0 " +
              "(0 disables the timeout)");
    return s;
}

Manifest
manifestFromJson(const json::Value &v)
{
    Manifest m;
    warnUnknownKeys(v, {"targets", "jobs"}, "top level");

    if (v.contains("targets")) {
        for (const json::Value &tv : v.at("targets").asArray())
            m.targets.push_back(targetFromJson(tv));
        if (m.targets.empty())
            fatal("manifest: 'targets' must not be empty");
    } else {
        CompileTarget t;
        t.name = "default";
        t.arch = presets::referenceZoned();
        t.opts = ZacOptions::full();
        t.opts.sa_threads = 1; // see targetFromJson
        m.targets.push_back(std::move(t));
    }

    if (!v.contains("jobs"))
        fatal("manifest: missing 'jobs' array");
    std::vector<std::string> target_names;
    for (const CompileTarget &t : m.targets)
        target_names.push_back(t.name);
    for (const json::Value &jv : v.at("jobs").asArray()) {
        ManifestJob job{submissionFromJson(jv, target_names), 1};
        const std::string context = "job '" + job.name + "'";
        job.repeat = intMember(jv, "repeat", 1, context);
        warnUnknownKeys(jv,
                        {"circuit", "label", "target", "repeat",
                         "seed", "timeout_seconds"},
                        context);
        if (job.repeat < 1)
            fatal("manifest: job 'repeat' must be >= 1");
        m.jobs.push_back(std::move(job));
    }
    if (m.jobs.empty())
        fatal("manifest: 'jobs' must not be empty");
    return m;
}

Manifest
loadManifest(const std::string &path)
{
    return manifestFromJson(json::parseFile(path));
}

} // namespace zac::service
