#include "zair/serialize.hpp"

#include <fstream>
#include <string_view>

#include "common/logging.hpp"

namespace zac
{

namespace
{

json::Value
qlocToJson(const QLoc &loc)
{
    return json::Array{loc.q, loc.a, loc.r, loc.c};
}

json::Value
qlocsToJson(const std::vector<QLoc> &locs)
{
    json::Array arr;
    for (const QLoc &l : locs)
        arr.push_back(qlocToJson(l));
    return arr;
}

json::Value
intsToJson(const std::vector<int> &v)
{
    json::Array arr;
    for (int x : v)
        arr.push_back(x);
    return arr;
}

json::Value
doublesToJson(const std::vector<double> &v)
{
    json::Array arr;
    for (double x : v)
        arr.push_back(x);
    return arr;
}

json::Value
machineToJson(const MachineInstr &mi)
{
    json::Object o;
    switch (mi.kind) {
      case MachineKind::Activate:
        o["type"] = "activate";
        o["row_id"] = intsToJson(mi.row_id);
        o["row_y"] = doublesToJson(mi.row_y);
        o["col_id"] = intsToJson(mi.col_id);
        o["col_x"] = doublesToJson(mi.col_x);
        break;
      case MachineKind::Deactivate:
        o["type"] = "deactivate";
        o["row_id"] = intsToJson(mi.row_id);
        o["col_id"] = intsToJson(mi.col_id);
        break;
      case MachineKind::Move:
        o["type"] = "move";
        o["row_id"] = intsToJson(mi.row_id);
        o["row_y_begin"] = doublesToJson(mi.row_y_begin);
        o["row_y_end"] = doublesToJson(mi.row_y_end);
        o["col_id"] = intsToJson(mi.col_id);
        o["col_x_begin"] = doublesToJson(mi.col_x_begin);
        o["col_x_end"] = doublesToJson(mi.col_x_end);
        break;
    }
    o["duration"] = mi.duration_us;
    return o;
}

} // namespace

json::Value
zairInstrToJson(const ZairInstr &instr)
{
    json::Object o;
    switch (instr.kind) {
      case ZairKind::Init:
        o["type"] = "init";
        o["init_locs"] = qlocsToJson(instr.init_locs);
        break;
      case ZairKind::OneQGate:
        o["type"] = "1qGate";
        o["unitary"] = json::Array{instr.unitary.theta,
                                   instr.unitary.phi,
                                   instr.unitary.lambda};
        o["locs"] = qlocsToJson(instr.locs);
        break;
      case ZairKind::Rydberg:
        o["type"] = "rydberg";
        o["zone_id"] = instr.zone_id;
        // Not part of the paper's minimal schema, but kept so a loaded
        // program can be re-evaluated by the fidelity model.
        o["gate_qubits"] = intsToJson(instr.gate_qubits);
        break;
      case ZairKind::RearrangeJob: {
        o["type"] = "rearrangeJob";
        o["aod_id"] = instr.aod_id;
        o["begin_locs"] = qlocsToJson(instr.begin_locs);
        o["end_locs"] = qlocsToJson(instr.end_locs);
        json::Array insts;
        for (const MachineInstr &mi : instr.insts)
            insts.push_back(machineToJson(mi));
        o["insts"] = std::move(insts);
        break;
      }
    }
    o["begin_time"] = instr.begin_time_us;
    o["end_time"] = instr.end_time_us;
    return o;
}

json::Value
zairProgramToJson(const ZairProgram &program)
{
    json::Object o;
    o["circuit"] = program.circuit_name;
    o["architecture"] = program.arch_name;
    o["num_qubits"] = program.num_qubits;
    json::Array instrs;
    for (const ZairInstr &in : program.instrs)
        instrs.push_back(zairInstrToJson(in));
    o["instructions"] = std::move(instrs);
    return o;
}

void
saveZairProgram(const std::string &path, const ZairProgram &program)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("zair: cannot write file '" + path + "'");
    streamZairProgram(out, program, 2);
    out << '\n';
    // A full disk surfaces only when the buffer is flushed.
    out.close();
    if (!out)
        fatal("zair: failed writing file '" + path + "'");
}

namespace
{

QLoc
qlocFromJson(const json::Value &v)
{
    QLoc loc;
    loc.q = v.at(0).asInt32();
    loc.a = v.at(1).asInt32();
    loc.r = v.at(2).asInt32();
    loc.c = v.at(3).asInt32();
    return loc;
}

std::vector<QLoc>
qlocsFromJson(const json::Value &v)
{
    std::vector<QLoc> out;
    for (const json::Value &l : v.asArray())
        out.push_back(qlocFromJson(l));
    return out;
}

std::vector<int>
intsFromJson(const json::Value &v)
{
    std::vector<int> out;
    for (const json::Value &x : v.asArray())
        out.push_back(x.asInt32());
    return out;
}

std::vector<double>
doublesFromJson(const json::Value &v)
{
    std::vector<double> out;
    for (const json::Value &x : v.asArray())
        out.push_back(x.asDouble());
    return out;
}

MachineInstr
machineFromJson(const json::Value &v)
{
    MachineInstr mi;
    const std::string &type = v.at("type").asString();
    if (type == "activate") {
        mi.kind = MachineKind::Activate;
        mi.row_id = intsFromJson(v.at("row_id"));
        mi.row_y = doublesFromJson(v.at("row_y"));
        mi.col_id = intsFromJson(v.at("col_id"));
        mi.col_x = doublesFromJson(v.at("col_x"));
    } else if (type == "deactivate") {
        mi.kind = MachineKind::Deactivate;
        mi.row_id = intsFromJson(v.at("row_id"));
        mi.col_id = intsFromJson(v.at("col_id"));
    } else if (type == "move") {
        mi.kind = MachineKind::Move;
        mi.row_id = intsFromJson(v.at("row_id"));
        mi.row_y_begin = doublesFromJson(v.at("row_y_begin"));
        mi.row_y_end = doublesFromJson(v.at("row_y_end"));
        mi.col_id = intsFromJson(v.at("col_id"));
        mi.col_x_begin = doublesFromJson(v.at("col_x_begin"));
        mi.col_x_end = doublesFromJson(v.at("col_x_end"));
    } else {
        fatal("zair: unknown machine instruction type '" + type + "'");
    }
    mi.duration_us = v.numberOr("duration", 0.0);
    return mi;
}

} // namespace

ZairInstr
zairInstrFromJson(const json::Value &v)
{
    ZairInstr in;
    const std::string &type = v.at("type").asString();
    if (type == "init") {
        in.kind = ZairKind::Init;
        in.init_locs = qlocsFromJson(v.at("init_locs"));
    } else if (type == "1qGate") {
        in.kind = ZairKind::OneQGate;
        const json::Value &u = v.at("unitary");
        in.unitary = {u.at(0).asDouble(), u.at(1).asDouble(),
                      u.at(2).asDouble()};
        in.locs = qlocsFromJson(v.at("locs"));
    } else if (type == "rydberg") {
        in.kind = ZairKind::Rydberg;
        in.zone_id = v.at("zone_id").asInt32();
        if (v.contains("gate_qubits"))
            in.gate_qubits = intsFromJson(v.at("gate_qubits"));
    } else if (type == "rearrangeJob") {
        in.kind = ZairKind::RearrangeJob;
        in.aod_id = v.at("aod_id").asInt32();
        in.begin_locs = qlocsFromJson(v.at("begin_locs"));
        in.end_locs = qlocsFromJson(v.at("end_locs"));
        for (const json::Value &mi : v.at("insts").asArray())
            in.insts.push_back(machineFromJson(mi));
    } else {
        fatal("zair: unknown instruction type '" + type + "'");
    }
    in.begin_time_us = v.numberOr("begin_time", 0.0);
    in.end_time_us = v.numberOr("end_time", 0.0);
    return in;
}

ZairProgram
zairProgramFromJson(const json::Value &v)
{
    ZairProgram program;
    program.circuit_name = v.contains("circuit")
                               ? v.at("circuit").asString()
                               : "";
    program.arch_name = v.contains("architecture")
                            ? v.at("architecture").asString()
                            : "";
    program.num_qubits = v.at("num_qubits").asInt32();
    for (const json::Value &iv : v.at("instructions").asArray())
        program.instrs.push_back(zairInstrFromJson(iv));
    return program;
}

ZairProgram
loadZairProgram(const std::string &path)
{
    return zairProgramFromJson(json::parseFile(path));
}

// ------------------------------------------------------ streaming writer

namespace
{

/**
 * Appends ZAIR/JSON text straight from the instruction fields, laid out
 * byte for byte as zairProgramToJson(...).dump(indent) lays out the
 * DOM: keys in json::Object's (lexicographic) order, numbers through
 * json::appendNumber, and with indent > 0 a newline plus indent * depth
 * spaces before every member, element and closing bracket, as
 * json::Value::dump does. Each writer takes the depth of the value it
 * writes.
 */
class ZairJsonAppender
{
  public:
    ZairJsonAppender(std::string &out, int indent)
        : out_(out), indent_(indent)
    {
    }

    void
    newline(int depth)
    {
        if (indent_ > 0) {
            out_ += '\n';
            out_.append(static_cast<std::size_t>(indent_) *
                            static_cast<std::size_t>(depth),
                        ' ');
        }
    }

    /** Start member @p key of the object at @p depth. */
    void
    member(std::string_view key, int depth, bool first = false)
    {
        if (!first)
            out_ += ',';
        newline(depth + 1);
        out_ += '"';
        out_ += key;
        out_ += indent_ > 0 ? std::string_view("\": ")
                            : std::string_view("\":");
    }

    void
    close(char bracket, int depth)
    {
        newline(depth);
        out_ += bracket;
    }

    void number(double d) { json::appendNumber(out_, d); }

    /** An array of @p n elements; elem(i) writes element i. */
    template <class Elem>
    void
    array(std::size_t n, int depth, Elem &&elem)
    {
        if (n == 0) {
            out_ += "[]";
            return;
        }
        out_ += '[';
        for (std::size_t i = 0; i < n; ++i) {
            if (i > 0)
                out_ += ',';
            newline(depth + 1);
            elem(i);
        }
        close(']', depth);
    }

    template <class T>
    void
    numbers(const T *v, std::size_t n, int depth)
    {
        array(n, depth, [&](std::size_t i) {
            number(static_cast<double>(v[i]));
        });
    }

    template <class T>
    void
    numbers(const std::vector<T> &v, int depth)
    {
        numbers(v.data(), v.size(), depth);
    }

    void
    qlocs(const std::vector<QLoc> &locs, int depth)
    {
        array(locs.size(), depth, [&](std::size_t i) {
            const QLoc &l = locs[i];
            const int fields[4] = {l.q, l.a, l.r, l.c};
            numbers(fields, 4, depth + 1);
        });
    }

    void
    machine(const MachineInstr &mi, int depth)
    {
        out_ += '{';
        member("col_id", depth, true);
        numbers(mi.col_id, depth + 1);
        switch (mi.kind) {
          case MachineKind::Activate:
            member("col_x", depth);
            numbers(mi.col_x, depth + 1);
            break;
          case MachineKind::Deactivate:
            break;
          case MachineKind::Move:
            member("col_x_begin", depth);
            numbers(mi.col_x_begin, depth + 1);
            member("col_x_end", depth);
            numbers(mi.col_x_end, depth + 1);
            break;
        }
        member("duration", depth);
        number(mi.duration_us);
        member("row_id", depth);
        numbers(mi.row_id, depth + 1);
        switch (mi.kind) {
          case MachineKind::Activate:
            member("row_y", depth);
            numbers(mi.row_y, depth + 1);
            member("type", depth);
            out_ += "\"activate\"";
            break;
          case MachineKind::Deactivate:
            member("type", depth);
            out_ += "\"deactivate\"";
            break;
          case MachineKind::Move:
            member("row_y_begin", depth);
            numbers(mi.row_y_begin, depth + 1);
            member("row_y_end", depth);
            numbers(mi.row_y_end, depth + 1);
            member("type", depth);
            out_ += "\"move\"";
            break;
        }
        close('}', depth);
    }

    void
    instr(const ZairInstr &in, int depth)
    {
        out_ += '{';
        if (in.kind == ZairKind::RearrangeJob) {
            member("aod_id", depth, true);
            number(in.aod_id);
            member("begin_locs", depth);
            qlocs(in.begin_locs, depth + 1);
            member("begin_time", depth);
            number(in.begin_time_us);
            member("end_locs", depth);
            qlocs(in.end_locs, depth + 1);
            member("end_time", depth);
            number(in.end_time_us);
            member("insts", depth);
            array(in.insts.size(), depth + 1, [&](std::size_t i) {
                machine(in.insts[i], depth + 2);
            });
            member("type", depth);
            out_ += "\"rearrangeJob\"";
            close('}', depth);
            return;
        }
        member("begin_time", depth, true);
        number(in.begin_time_us);
        member("end_time", depth);
        number(in.end_time_us);
        switch (in.kind) {
          case ZairKind::Init:
            member("init_locs", depth);
            qlocs(in.init_locs, depth + 1);
            member("type", depth);
            out_ += "\"init\"";
            break;
          case ZairKind::OneQGate: {
            member("locs", depth);
            qlocs(in.locs, depth + 1);
            member("type", depth);
            out_ += "\"1qGate\"";
            member("unitary", depth);
            const double u[3] = {in.unitary.theta, in.unitary.phi,
                                 in.unitary.lambda};
            numbers(u, 3, depth + 1);
            break;
          }
          case ZairKind::Rydberg:
            member("gate_qubits", depth);
            numbers(in.gate_qubits, depth + 1);
            member("type", depth);
            out_ += "\"rydberg\"";
            member("zone_id", depth);
            number(in.zone_id);
            break;
          case ZairKind::RearrangeJob:
            break;
        }
        close('}', depth);
    }

  private:
    std::string &out_;
    int indent_;
};

} // namespace

ZairStreamWriter::ZairStreamWriter(std::ostream &out, int indent)
    : out_(out), indent_(indent)
{
    if (indent_ < 0)
        indent_ = 0;
}

void
ZairStreamWriter::flush()
{
    out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
}

void
ZairStreamWriter::begin(const std::string &circuit_name,
                        const std::string &arch_name, int num_qubits)
{
    if (begun_)
        panic("ZairStreamWriter: begin() called twice");
    begun_ = true;
    num_qubits_ = num_qubits;

    // The program object's keys in order are architecture, circuit,
    // instructions (streamed), num_qubits.
    ZairJsonAppender a(buf_, indent_);
    buf_ += '{';
    a.member("architecture", 0, true);
    json::appendString(buf_, arch_name);
    a.member("circuit", 0);
    json::appendString(buf_, circuit_name);
    a.member("instructions", 0);
    // '[' is written lazily by add()/end() so an empty program emits
    // the same "[]" a DOM dump would.
    flush();
}

void
ZairStreamWriter::add(const ZairInstr &instr)
{
    if (!begun_ || ended_)
        panic("ZairStreamWriter: add() outside begin()/end()");
    ZairJsonAppender a(buf_, indent_);
    buf_ += count_ == 0 ? '[' : ',';
    a.newline(2);
    a.instr(instr, 2);
    ++count_;
    flush();
}

void
ZairStreamWriter::end()
{
    if (!begun_ || ended_)
        panic("ZairStreamWriter: end() outside begin()");
    ended_ = true;
    ZairJsonAppender a(buf_, indent_);
    if (count_ == 0)
        buf_ += "[]";
    else
        a.close(']', 1);
    a.member("num_qubits", 0);
    a.number(num_qubits_);
    a.close('}', 0);
    flush();
}

void
streamZairProgram(std::ostream &out, const ZairProgram &program,
                  int indent)
{
    ZairStreamWriter w(out, indent);
    w.begin(program.circuit_name, program.arch_name,
            program.num_qubits);
    for (const ZairInstr &in : program.instrs)
        w.add(in);
    w.end();
}

ZairNameSpan
zairCompactNameSpan(const std::string &circuit_name,
                    const std::string &arch_name)
{
    // {"architecture":<arch>,"circuit":<name>  — 16 and 11 bytes of
    // fixed syntax around the architecture-name literal.
    ZairNameSpan span;
    span.offset = 16 + json::Value(arch_name).dump().size() + 11;
    span.length = json::Value(circuit_name).dump().size();
    return span;
}

} // namespace zac
