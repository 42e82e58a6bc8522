/**
 * @file
 * JSON serialization of ZAIR programs in the paper's artifact format
 * (Fig. 17 / Fig. 19).
 */

#ifndef ZAC_ZAIR_SERIALIZE_HPP
#define ZAC_ZAIR_SERIALIZE_HPP

#include <ostream>
#include <string>

#include "common/json.hpp"
#include "zair/program.hpp"

namespace zac
{

/** Serialize one instruction to its JSON object form. */
json::Value zairInstrToJson(const ZairInstr &instr);

/** Serialize a whole program (array of instruction objects + header). */
json::Value zairProgramToJson(const ZairProgram &program);

/**
 * Write a program to @p path as pretty-printed JSON, streamed through a
 * ZairStreamWriter: the bytes of json::writeFile(path,
 * zairProgramToJson(program)).
 * @throws zac::FatalError naming @p path when a write fails.
 */
void saveZairProgram(const std::string &path, const ZairProgram &program);

/** Parse one instruction from its JSON object form. */
ZairInstr zairInstrFromJson(const json::Value &v);

/** Parse a whole program (inverse of zairProgramToJson). */
ZairProgram zairProgramFromJson(const json::Value &v);

/** Load a program from a JSON file written by saveZairProgram. */
ZairProgram loadZairProgram(const std::string &path);

/**
 * Incremental ZAIR/JSON writer: streams a program to an std::ostream one
 * instruction at a time, so a compile-service worker can emit output as
 * instructions are produced instead of buffering the whole program DOM.
 *
 * Each call appends its JSON bytes straight from the instruction fields
 * into a reused buffer and hands them to the stream in one write; no
 * json::Value is built. The bytes are meant to equal
 * zairProgramToJson(p).dump(indent) at every indent. That DOM dump is
 * the reference the unit tests and ZacCompiler's verify_with_dom mode
 * compare them against.
 *
 * Usage: begin(...); add(instr) for each instruction; end().
 */
class ZairStreamWriter
{
  public:
    /**
     * @param out    destination stream (kept by reference).
     * @param indent pretty-print width; 0 writes one compact line.
     */
    explicit ZairStreamWriter(std::ostream &out, int indent = 2);

    /** Write the program header and open the instruction array. */
    void begin(const std::string &circuit_name,
               const std::string &arch_name, int num_qubits);

    /** Append one instruction. */
    void add(const ZairInstr &instr);

    /** Close the instruction array and the document. */
    void end();

  private:
    /** Write buf_ to out_ and clear it. */
    void flush();

    std::ostream &out_;
    int indent_;
    std::string buf_; ///< one call's bytes; capacity is kept
    int num_qubits_ = 0;
    bool begun_ = false;
    bool ended_ = false;
    std::size_t count_ = 0;
};

/** Stream a whole program through a ZairStreamWriter. */
void streamZairProgram(std::ostream &out, const ZairProgram &program,
                       int indent = 2);

/** Byte range of the circuit-name JSON string inside a compact dump. */
struct ZairNameSpan
{
    std::size_t offset = 0; ///< first byte of the quoted name literal
    std::size_t length = 0; ///< bytes of the quoted name literal
};

/**
 * Locate the circuit-name string literal (including quotes) inside the
 * compact (indent 0) byte stream ZairStreamWriter produces. The layout
 * is fixed — {"architecture":<a>,"circuit":<c>,... — so the span is
 * computed arithmetically; callers can splice a replacement name into
 * a stored compact dump without reparsing it.
 */
ZairNameSpan zairCompactNameSpan(const std::string &circuit_name,
                                 const std::string &arch_name);

} // namespace zac

#endif // ZAC_ZAIR_SERIALIZE_HPP
