/**
 * @file
 * Batch manifest: the declarative input of the zac_batch frontend.
 *
 * A manifest is one JSON document naming compile targets (architecture
 * preset or spec file + option preset) and jobs (QASM paths or built-in
 * paper benchmarks) against those targets:
 *
 * {
 *   "targets": [
 *     {"name": "ref-full", "arch": "reference", "aods": 1,
 *      "preset": "full", "seed": 1, "sa_iterations": 1000}
 *   ],
 *   "jobs": [
 *     {"circuit": "ghz_n40"},
 *     {"circuit": "path/to/circuit.qasm", "target": "ref-full",
 *      "repeat": 2, "timeout_seconds": 10, "seed": 7}
 *   ]
 * }
 *
 * "targets" may be omitted (one default reference/full target), and a
 * job's "target" defaults to the first target. "arch" accepts the
 * presets reference / monolithic / arch1 / arch2 or a spec-JSON path;
 * "preset" accepts full / vanilla / dynplace / dynplace_reuse.
 *
 * A job's keys other than "repeat" are the submit-record vocabulary
 * zac_serve reads too; submissionFromJson() parses them for both.
 */

#ifndef ZAC_SERVICE_MANIFEST_HPP
#define ZAC_SERVICE_MANIFEST_HPP

#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/json.hpp"
#include "service/service.hpp"

namespace zac::service
{

/** One manifest job entry, resolved against the manifest's targets. */
struct ManifestJob : CompileService::Submission
{
    int repeat = 1; ///< submit this many copies
};

/** A fully resolved batch manifest. */
struct Manifest
{
    std::vector<CompileTarget> targets;
    std::vector<ManifestJob> jobs;
};

/**
 * Resolve a circuit reference: a path ending in ".qasm" is parsed as
 * OpenQASM 2.0; anything else must name a built-in paper benchmark.
 * @throws FatalError on unknown names or parse errors.
 */
Circuit resolveCircuit(const std::string &ref);

/** Build one compile target from its manifest JSON object. */
CompileTarget targetFromJson(const json::Value &v);

/**
 * Parse the keys a manifest job and a zac_serve submit line share:
 * "circuit" (required, see resolveCircuit()), "label" (defaults to
 * the circuit's name, else the reference), "target" (a name in
 * @p target_names or an index into it), "seed" and "timeout_seconds"
 * (finite, >= 0; 0 disables the timeout). Other keys are ignored.
 * @throws FatalError naming the offending key.
 */
CompileService::Submission
submissionFromJson(const json::Value &v,
                   const std::vector<std::string> &target_names);

/** Parse and resolve a manifest document. @throws FatalError. */
Manifest manifestFromJson(const json::Value &v);

/** Load a manifest from a JSON file. @throws FatalError. */
Manifest loadManifest(const std::string &path);

} // namespace zac::service

#endif // ZAC_SERVICE_MANIFEST_HPP
