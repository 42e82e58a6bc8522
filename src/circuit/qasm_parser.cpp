#include "circuit/qasm_parser.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numbers>
#include <sstream>
#include <stdexcept>

#include "circuit/qasm_lexer.hpp"
#include "common/logging.hpp"

namespace zac::qasm
{

namespace
{

/** A user-defined gate body: formal parameter and qubit names + ops. */
struct GateDef
{
    std::vector<std::string> params;
    std::vector<std::string> qubits;
    struct BodyOp
    {
        std::string name;
        // Expressions are re-parsed per call with actual parameter
        // bindings, so we store them as token ranges.
        std::vector<std::vector<Token>> arg_exprs;
        std::vector<std::string> arg_qubits;
    };
    std::vector<BodyOp> body;
};

class Parser
{
  public:
    Parser(const std::string &source, const std::string &name)
        : tokens_(lex(source)), name_(name)
    {
    }

    Circuit
    run()
    {
        parseHeader();
        while (!at(TokKind::End))
            parseStatement();
        Circuit circuit(totalQubits_, name_);
        for (Gate &g : out_)
            circuit.add(std::move(g));
        return circuit;
    }

  private:
    // ----- token helpers ---------------------------------------------
    const Token &cur() const { return tokens_[pos_]; }

    bool
    at(TokKind k, const std::string &text = "") const
    {
        return cur().kind == k && (text.empty() || cur().text == text);
    }

    Token
    take()
    {
        Token t = cur();
        if (t.kind != TokKind::End)
            ++pos_;
        return t;
    }

    [[noreturn]] void
    error(const std::string &msg) const
    {
        errorAt(cur(), msg);
    }

    [[noreturn]] static void
    errorAt(const Token &t, const std::string &msg)
    {
        fatal("qasm parse error at line " + std::to_string(t.line) +
              ", col " + std::to_string(t.col) + ": " + msg +
              " (near '" + t.text + "')");
    }

    Token
    expect(TokKind k, const std::string &text = "")
    {
        if (!at(k, text))
            error("expected " + (text.empty() ? "token" : "'" + text + "'"));
        return take();
    }

    std::string
    expectIdent()
    {
        if (!at(TokKind::Identifier))
            error("expected identifier");
        return take().text;
    }

    /**
     * Take an Integer token as an int. std::stoi throws
     * std::out_of_range on overflowing literals (e.g. a qreg sized
     * 99999999999999999999), which would escape the parser's
     * fatal()/FatalError contract — convert while the token is still
     * current so error() reports its line/column.
     */
    int
    expectInt()
    {
        if (!at(TokKind::Integer))
            error("expected integer literal");
        int value = 0;
        try {
            std::size_t used = 0;
            value = std::stoi(cur().text, &used);
            if (used != cur().text.size())
                error("malformed integer literal");
        } catch (const std::out_of_range &) {
            error("integer literal out of range");
        } catch (const std::invalid_argument &) {
            error("malformed integer literal");
        }
        take();
        return value;
    }

    // ----- grammar ----------------------------------------------------
    void
    parseHeader()
    {
        if (at(TokKind::Identifier, "OPENQASM")) {
            take();
            take(); // version number
            expect(TokKind::Symbol, ";");
        }
    }

    void
    parseStatement()
    {
        if (at(TokKind::Identifier, "include")) {
            take();
            expect(TokKind::String);
            expect(TokKind::Symbol, ";");
            return;
        }
        if (at(TokKind::Identifier, "qreg")) {
            take();
            const std::string reg = expectIdent();
            expect(TokKind::Symbol, "[");
            const int size = expectInt();
            expect(TokKind::Symbol, "]");
            expect(TokKind::Symbol, ";");
            if (qregs_.count(reg))
                error("duplicate qreg '" + reg + "'");
            qregs_[reg] = {totalQubits_, size};
            totalQubits_ += size;
            return;
        }
        if (at(TokKind::Identifier, "creg")) {
            take();
            expectIdent();
            expect(TokKind::Symbol, "[");
            expect(TokKind::Integer);
            expect(TokKind::Symbol, "]");
            expect(TokKind::Symbol, ";");
            return;
        }
        if (at(TokKind::Identifier, "gate")) {
            parseGateDef();
            return;
        }
        if (at(TokKind::Identifier, "opaque"))
            error("opaque gates are not supported");
        if (at(TokKind::Identifier, "if"))
            error("classically-controlled gates are not supported");
        if (at(TokKind::Identifier, "measure")) {
            take();
            auto qubits = parseQubitOperand();
            expect(TokKind::Symbol, "->");
            // Classical target: ident or ident[i]; ignored.
            expectIdent();
            if (at(TokKind::Symbol, "[")) {
                take();
                expect(TokKind::Integer);
                expect(TokKind::Symbol, "]");
            }
            expect(TokKind::Symbol, ";");
            for (int q : qubits)
                out_.emplace_back(Op::Measure, std::vector<int>{q});
            return;
        }
        if (at(TokKind::Identifier, "reset")) {
            take();
            auto qubits = parseQubitOperand();
            expect(TokKind::Symbol, ";");
            for (int q : qubits)
                out_.emplace_back(Op::Reset, std::vector<int>{q});
            return;
        }
        if (at(TokKind::Identifier, "barrier")) {
            take();
            // Operands are irrelevant for our IR; consume them.
            while (!at(TokKind::Symbol, ";"))
                take();
            expect(TokKind::Symbol, ";");
            out_.emplace_back(Op::Barrier, std::vector<int>{});
            return;
        }
        if (at(TokKind::Identifier))
            return parseGateCall();
        error("unexpected statement");
    }

    void
    parseGateDef()
    {
        expect(TokKind::Identifier, "gate");
        const std::string name = expectIdent();
        GateDef def;
        if (at(TokKind::Symbol, "(")) {
            take();
            if (!at(TokKind::Symbol, ")")) {
                def.params.push_back(expectIdent());
                while (at(TokKind::Symbol, ",")) {
                    take();
                    def.params.push_back(expectIdent());
                }
            }
            expect(TokKind::Symbol, ")");
        }
        def.qubits.push_back(expectIdent());
        while (at(TokKind::Symbol, ",")) {
            take();
            def.qubits.push_back(expectIdent());
        }
        expect(TokKind::Symbol, "{");
        while (!at(TokKind::Symbol, "}")) {
            GateDef::BodyOp op;
            if (at(TokKind::Identifier, "barrier")) {
                // barriers inside gate bodies are no-ops for us
                while (!at(TokKind::Symbol, ";"))
                    take();
                take();
                continue;
            }
            op.name = expectIdent();
            if (at(TokKind::Symbol, "(")) {
                take();
                if (!at(TokKind::Symbol, ")")) {
                    op.arg_exprs.push_back(captureExpr());
                    while (at(TokKind::Symbol, ",")) {
                        take();
                        op.arg_exprs.push_back(captureExpr());
                    }
                }
                expect(TokKind::Symbol, ")");
            }
            op.arg_qubits.push_back(expectIdent());
            while (at(TokKind::Symbol, ",")) {
                take();
                op.arg_qubits.push_back(expectIdent());
            }
            expect(TokKind::Symbol, ";");
            def.body.push_back(std::move(op));
        }
        expect(TokKind::Symbol, "}");
        gateDefs_[name] = std::move(def);
    }

    /** Capture an expression as raw tokens (until , or ) at depth 0). */
    std::vector<Token>
    captureExpr()
    {
        std::vector<Token> toks;
        int depth = 0;
        while (true) {
            if (at(TokKind::End))
                error("unterminated expression");
            if (depth == 0 &&
                (at(TokKind::Symbol, ",") || at(TokKind::Symbol, ")")))
                break;
            if (at(TokKind::Symbol, "("))
                ++depth;
            if (at(TokKind::Symbol, ")"))
                --depth;
            toks.push_back(take());
        }
        Token end;
        end.kind = TokKind::End;
        toks.push_back(end);
        return toks;
    }

    // Expression evaluation over captured tokens with a binding map.
    double
    evalExpr(const std::vector<Token> &toks,
             const std::map<std::string, double> &bindings) const
    {
        std::size_t p = 0;
        double v = evalAddSub(toks, p, bindings);
        if (toks[p].kind != TokKind::End)
            fatal("qasm: trailing tokens in expression");
        return v;
    }

    double
    evalAddSub(const std::vector<Token> &toks, std::size_t &p,
               const std::map<std::string, double> &b) const
    {
        double v = evalMulDiv(toks, p, b);
        while (toks[p].kind == TokKind::Symbol &&
               (toks[p].text == "+" || toks[p].text == "-")) {
            const bool add = toks[p].text == "+";
            ++p;
            const double rhs = evalMulDiv(toks, p, b);
            v = add ? v + rhs : v - rhs;
        }
        return v;
    }

    double
    evalMulDiv(const std::vector<Token> &toks, std::size_t &p,
               const std::map<std::string, double> &b) const
    {
        double v = evalPow(toks, p, b);
        while (toks[p].kind == TokKind::Symbol &&
               (toks[p].text == "*" || toks[p].text == "/")) {
            const bool mul = toks[p].text == "*";
            ++p;
            const double rhs = evalPow(toks, p, b);
            v = mul ? v * rhs : v / rhs;
        }
        return v;
    }

    double
    evalPow(const std::vector<Token> &toks, std::size_t &p,
            const std::map<std::string, double> &b) const
    {
        const double base = evalUnary(toks, p, b);
        if (toks[p].kind == TokKind::Symbol && toks[p].text == "^") {
            ++p;
            const double exp = evalPow(toks, p, b); // right-assoc
            return std::pow(base, exp);
        }
        return base;
    }

    double
    evalUnary(const std::vector<Token> &toks, std::size_t &p,
              const std::map<std::string, double> &b) const
    {
        if (toks[p].kind == TokKind::Symbol && toks[p].text == "-") {
            ++p;
            return -evalUnary(toks, p, b);
        }
        if (toks[p].kind == TokKind::Symbol && toks[p].text == "+") {
            ++p;
            return evalUnary(toks, p, b);
        }
        return evalAtom(toks, p, b);
    }

    double
    evalAtom(const std::vector<Token> &toks, std::size_t &p,
             const std::map<std::string, double> &b) const
    {
        const Token &t = toks[p];
        if (t.kind == TokKind::Real || t.kind == TokKind::Integer) {
            ++p;
            // strtod, not std::stod, which throws std::out_of_range
            // past the FatalError contract (see expectInt()): an
            // underflowing literal takes its rounded value, an
            // overflowing one is an error at its line and column.
            const double v = std::strtod(t.text.c_str(), nullptr);
            if (std::isinf(v))
                errorAt(t, "real literal out of range");
            return v;
        }
        if (t.kind == TokKind::Symbol && t.text == "(") {
            ++p;
            const double v = evalAddSub(toks, p, b);
            if (toks[p].kind != TokKind::Symbol || toks[p].text != ")")
                fatal("qasm: expected ')' in expression");
            ++p;
            return v;
        }
        if (t.kind == TokKind::Identifier) {
            ++p;
            if (t.text == "pi")
                return std::numbers::pi;
            auto it = b.find(t.text);
            if (it != b.end())
                return it->second;
            // function call?
            if (toks[p].kind == TokKind::Symbol && toks[p].text == "(") {
                ++p;
                const double arg = evalAddSub(toks, p, b);
                if (toks[p].kind != TokKind::Symbol ||
                    toks[p].text != ")")
                    fatal("qasm: expected ')' after function arg");
                ++p;
                if (t.text == "sin") return std::sin(arg);
                if (t.text == "cos") return std::cos(arg);
                if (t.text == "tan") return std::tan(arg);
                if (t.text == "exp") return std::exp(arg);
                if (t.text == "ln") return std::log(arg);
                if (t.text == "sqrt") return std::sqrt(arg);
                fatal("qasm: unknown function '" + t.text + "'");
            }
            fatal("qasm: unknown identifier '" + t.text +
                  "' in expression");
        }
        fatal("qasm: malformed expression");
    }

    /** Parse q, q[i]; returns the expanded list of global indices. */
    std::vector<int>
    parseQubitOperand()
    {
        const std::string reg = expectIdent();
        auto it = qregs_.find(reg);
        if (it == qregs_.end())
            error("unknown quantum register '" + reg + "'");
        const auto [base, size] = it->second;
        if (at(TokKind::Symbol, "[")) {
            take();
            const int idx = expectInt();
            expect(TokKind::Symbol, "]");
            if (idx < 0 || idx >= size)
                error("index " + std::to_string(idx) +
                      " out of range for register '" + reg + "'");
            return {base + idx};
        }
        std::vector<int> all(static_cast<std::size_t>(size));
        for (int i = 0; i < size; ++i)
            all[static_cast<std::size_t>(i)] = base + i;
        return all;
    }

    void
    parseGateCall()
    {
        const std::string name = take().text;
        std::vector<double> params;
        if (at(TokKind::Symbol, "(")) {
            take();
            if (!at(TokKind::Symbol, ")")) {
                params.push_back(evalExpr(captureExpr(), {}));
                while (at(TokKind::Symbol, ",")) {
                    take();
                    params.push_back(evalExpr(captureExpr(), {}));
                }
            }
            expect(TokKind::Symbol, ")");
        }
        std::vector<std::vector<int>> operands;
        operands.push_back(parseQubitOperand());
        while (at(TokKind::Symbol, ",")) {
            take();
            operands.push_back(parseQubitOperand());
        }
        expect(TokKind::Symbol, ";");

        // Broadcast register operands (all same length or length 1).
        std::size_t reps = 1;
        for (const auto &ops : operands)
            reps = std::max(reps, ops.size());
        for (const auto &ops : operands)
            if (ops.size() != 1 && ops.size() != reps)
                error("mismatched register sizes in gate call");
        for (std::size_t r = 0; r < reps; ++r) {
            std::vector<int> qubits;
            qubits.reserve(operands.size());
            for (const auto &ops : operands)
                qubits.push_back(ops.size() == 1 ? ops[0] : ops[r]);
            emitGate(name, params, qubits);
        }
    }

    void
    emitGate(const std::string &name, const std::vector<double> &params,
             const std::vector<int> &qubits)
    {
        Op op;
        if (opFromName(name, op)) {
            out_.emplace_back(op, qubits, params);
            return;
        }
        auto it = gateDefs_.find(name);
        if (it == gateDefs_.end())
            fatal("qasm: unknown gate '" + name + "'");
        const GateDef &def = it->second;
        if (def.params.size() != params.size() ||
            def.qubits.size() != qubits.size())
            fatal("qasm: arity mismatch calling gate '" + name + "'");
        std::map<std::string, double> bind;
        for (std::size_t i = 0; i < def.params.size(); ++i)
            bind[def.params[i]] = params[i];
        std::map<std::string, int> qbind;
        for (std::size_t i = 0; i < def.qubits.size(); ++i)
            qbind[def.qubits[i]] = qubits[i];
        for (const GateDef::BodyOp &body_op : def.body) {
            std::vector<double> sub_params;
            sub_params.reserve(body_op.arg_exprs.size());
            for (const auto &expr : body_op.arg_exprs)
                sub_params.push_back(evalExpr(expr, bind));
            std::vector<int> sub_qubits;
            sub_qubits.reserve(body_op.arg_qubits.size());
            for (const std::string &qn : body_op.arg_qubits) {
                auto qit = qbind.find(qn);
                if (qit == qbind.end())
                    fatal("qasm: unknown qubit '" + qn +
                          "' in body of gate '" + name + "'");
                sub_qubits.push_back(qit->second);
            }
            emitGate(body_op.name, sub_params, sub_qubits);
        }
    }

    std::vector<Token> tokens_;
    std::size_t pos_ = 0;
    std::string name_;
    std::map<std::string, std::pair<int, int>> qregs_; // name -> base,size
    std::map<std::string, GateDef> gateDefs_;
    int totalQubits_ = 0;
    std::vector<Gate> out_;
};

} // namespace

Circuit
parse(const std::string &source, const std::string &name)
{
    Parser p(source, name);
    return p.run();
}

Circuit
parseFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("qasm: cannot open file '" + path + "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string name = path;
    const std::size_t slash = name.find_last_of('/');
    if (slash != std::string::npos)
        name = name.substr(slash + 1);
    const std::size_t dot = name.find_last_of('.');
    if (dot != std::string::npos)
        name = name.substr(0, dot);
    return parse(ss.str(), name);
}

} // namespace zac::qasm
