#include "arch/serialize.hpp"

#include "common/hash.hpp"
#include "common/logging.hpp"

namespace zac
{

namespace
{

Point
pointFrom(const json::Value &v)
{
    return {v.at(0).asDouble(), v.at(1).asDouble()};
}

std::pair<double, double>
sepFrom(const json::Value &v)
{
    if (v.isArray())
        return {v.at(0).asDouble(), v.at(1).asDouble()};
    const double s = v.asDouble();
    return {s, s};
}

SlmSpec
slmFrom(const json::Value &v)
{
    SlmSpec slm;
    slm.id = v.at("id").asInt32();
    const auto [sx, sy] = sepFrom(v.at("site_seperation"));
    slm.sep_x = sx;
    slm.sep_y = sy;
    slm.rows = v.at("r").asInt32();
    slm.cols = v.at("c").asInt32();
    slm.origin = pointFrom(v.at("location"));
    return slm;
}

void
zonesFrom(Architecture &arch, const json::Value &root, const char *key,
          ZoneKind kind)
{
    if (!root.contains(key))
        return;
    for (const json::Value &zv : root.at(key).asArray()) {
        ZoneSpec zone;
        zone.id = zv.at("zone_id").asInt32();
        zone.offset = pointFrom(zv.at("offset"));
        // The artifact JSON spells it "dimenstion" for storage zones.
        const char *dim_key =
            zv.contains("dimension") ? "dimension" : "dimenstion";
        if (zv.contains(dim_key)) {
            zone.width = zv.at(dim_key).at(0).asDouble();
            zone.height = zv.at(dim_key).at(1).asDouble();
        }
        for (const json::Value &sv : zv.at("slms").asArray())
            zone.slm_ids.push_back(arch.addSlm(slmFrom(sv)));
        arch.addZone(kind, zone);
    }
}

} // namespace

Architecture
architectureFromJson(const json::Value &v)
{
    Architecture arch(v.contains("name") ? v.at("name").asString()
                                         : "unnamed");
    zonesFrom(arch, v, "storage_zones", ZoneKind::Storage);
    zonesFrom(arch, v, "entanglement_zones", ZoneKind::Entanglement);
    zonesFrom(arch, v, "readout_zones", ZoneKind::Readout);
    for (const json::Value &av : v.at("aods").asArray()) {
        AodSpec aod;
        aod.id = av.at("id").asInt32();
        aod.min_sep = av.numberOr("site_seperation", 2.0);
        aod.max_rows = av.at("r").asInt32();
        aod.max_cols = av.at("c").asInt32();
        arch.addAod(aod);
    }
    NaHardwareParams &p = arch.params();
    if (v.contains("operation_duration")) {
        const json::Value &d = v.at("operation_duration");
        p.t_rydberg_us = d.numberOr("rydberg", p.t_rydberg_us);
        p.t_1q_us = d.numberOr("1qGate", p.t_1q_us);
        p.t_transfer_us = d.numberOr("atom_transfer", p.t_transfer_us);
    }
    if (v.contains("operation_fidelity")) {
        const json::Value &f = v.at("operation_fidelity");
        p.f_2q = f.numberOr("two_qubit_gate", p.f_2q);
        p.f_1q = f.numberOr("single_qubit_gate", p.f_1q);
        p.f_transfer = f.numberOr("atom_transfer", p.f_transfer);
        p.f_exc = f.numberOr("excitation", p.f_exc);
    }
    if (v.contains("qubit_spec"))
        p.t2_us = v.at("qubit_spec").numberOr("T", p.t2_us);
    arch.finalize();
    return arch;
}

Architecture
loadArchitecture(const std::string &path)
{
    return architectureFromJson(json::parseFile(path));
}

namespace
{

json::Value
slmToJson(const SlmSpec &slm)
{
    json::Object o;
    o["id"] = slm.id;
    o["site_seperation"] = json::Array{slm.sep_x, slm.sep_y};
    o["r"] = slm.rows;
    o["c"] = slm.cols;
    o["location"] = json::Array{slm.origin.x, slm.origin.y};
    return o;
}

json::Value
zonesToJson(const Architecture &arch, const std::vector<ZoneSpec> &zones)
{
    json::Array arr;
    for (const ZoneSpec &z : zones) {
        json::Object o;
        o["zone_id"] = z.id;
        o["offset"] = json::Array{z.offset.x, z.offset.y};
        o["dimension"] = json::Array{z.width, z.height};
        json::Array slms;
        for (int slm_id : z.slm_ids)
            slms.push_back(slmToJson(
                arch.slms()[static_cast<std::size_t>(slm_id)]));
        o["slms"] = std::move(slms);
        arr.push_back(std::move(o));
    }
    return arr;
}

} // namespace

json::Value
architectureToJson(const Architecture &arch)
{
    json::Object o;
    o["name"] = arch.name();
    const NaHardwareParams &p = arch.params();
    o["operation_duration"] = json::Object{
        {"rydberg", p.t_rydberg_us},
        {"1qGate", p.t_1q_us},
        {"atom_transfer", p.t_transfer_us},
    };
    o["operation_fidelity"] = json::Object{
        {"two_qubit_gate", p.f_2q},
        {"single_qubit_gate", p.f_1q},
        {"atom_transfer", p.f_transfer},
        {"excitation", p.f_exc},
    };
    o["qubit_spec"] = json::Object{{"T", p.t2_us}};
    o["storage_zones"] = zonesToJson(arch, arch.storageZones());
    o["entanglement_zones"] = zonesToJson(arch, arch.entanglementZones());
    if (!arch.readoutZones().empty())
        o["readout_zones"] = zonesToJson(arch, arch.readoutZones());
    json::Array aods;
    for (const AodSpec &a : arch.aods()) {
        json::Object ao;
        ao["id"] = a.id;
        ao["site_seperation"] = a.min_sep;
        ao["r"] = a.max_rows;
        ao["c"] = a.max_cols;
        aods.push_back(std::move(ao));
    }
    o["aods"] = std::move(aods);
    return o;
}

void
saveArchitecture(const std::string &path, const Architecture &arch)
{
    json::writeFile(path, architectureToJson(arch));
}

std::uint64_t
architectureFingerprint(const Architecture &arch)
{
    return fnv1a(architectureToJson(arch).dump());
}

} // namespace zac
