/**
 * @file
 * Unit tests for the circuit IR, the OpenQASM 2.0 parser, and the
 * benchmark circuit generators.
 */

#include <gtest/gtest.h>

#include "circuit/circuit.hpp"
#include "circuit/generators.hpp"
#include "circuit/qasm_parser.hpp"
#include "common/logging.hpp"

namespace zac
{
namespace
{

// ------------------------------------------------------------- circuit

TEST(Circuit, BuildersValidateOperands)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.ccx(0, 1, 2);
    EXPECT_EQ(c.size(), 3u);
    EXPECT_THROW(c.h(3), FatalError);            // out of range
    EXPECT_THROW(c.cx(1, 1), FatalError);        // duplicate operand
    EXPECT_THROW(c.add(Op::CZ, {0}), FatalError); // arity
    EXPECT_THROW(c.add(Op::RZ, {0}, {}), FatalError); // missing param
}

TEST(Circuit, CountsAndDepth)
{
    Circuit c(3);
    c.h(0);
    c.h(1);
    c.cx(0, 1);
    c.cx(1, 2);
    c.rz(2, 0.5);
    EXPECT_EQ(c.count1Q(), 3);
    EXPECT_EQ(c.count2Q(), 2);
    EXPECT_EQ(c.count3Q(), 0);
    // depth: h(0)/h(1) level 1, cx(0,1) level 2, cx(1,2) level 3, rz 4.
    EXPECT_EQ(c.depth(), 4);
}

TEST(Circuit, ContentHashIsOrderStableAndNameBlind)
{
    Circuit a(3, "first");
    a.h(0);
    a.cx(0, 1);
    a.rz(2, 0.5);
    Circuit b(3, "second"); // same gates, different name
    b.h(0);
    b.cx(0, 1);
    b.rz(2, 0.5);
    EXPECT_EQ(a.contentHash(), b.contentHash());
    EXPECT_EQ(a.contentHash(), a.contentHash()); // deterministic

    Circuit reordered(3);
    reordered.cx(0, 1); // same multiset of gates, different order
    reordered.h(0);
    reordered.rz(2, 0.5);
    EXPECT_NE(a.contentHash(), reordered.contentHash());
}

TEST(Circuit, ContentHashSeparatesContent)
{
    Circuit base(3);
    base.h(0);
    base.rz(1, 0.5);

    Circuit param(3); // parameter change
    param.h(0);
    param.rz(1, 0.25);
    EXPECT_NE(base.contentHash(), param.contentHash());

    Circuit operand(3); // operand change
    operand.h(0);
    operand.rz(2, 0.5);
    EXPECT_NE(base.contentHash(), operand.contentHash());

    Circuit opcode(3); // opcode change
    opcode.h(0);
    opcode.rx(1, 0.5);
    EXPECT_NE(base.contentHash(), opcode.contentHash());

    Circuit wider(4); // qubit-count change, same gates
    wider.h(0);
    wider.rz(1, 0.5);
    EXPECT_NE(base.contentHash(), wider.contentHash());

    EXPECT_NE(Circuit(3).contentHash(), Circuit(4).contentHash());
}

TEST(Circuit, ContentHashMatchesAcrossConstructionRoutes)
{
    // The generator and a manual rebuild of the same gate list agree.
    const Circuit gen = bench_circuits::ghz(5);
    Circuit manual(5, "renamed");
    manual.h(0);
    for (int q = 0; q < 4; ++q)
        manual.cx(q, q + 1);
    EXPECT_EQ(gen.contentHash(), manual.contentHash());
    // Zero params hash equally regardless of sign (canonicalized).
    Circuit z1(1), z2(1);
    z1.rz(0, 0.0);
    z2.rz(0, -0.0);
    EXPECT_EQ(z1.contentHash(), z2.contentHash());
}

TEST(Circuit, InteractionEdges)
{
    Circuit c(4);
    c.cx(0, 1);
    c.cz(2, 3);
    c.cx(0, 1);
    const auto edges = c.interactionEdges();
    ASSERT_EQ(edges.size(), 3u);
    EXPECT_EQ(edges[0], std::make_pair(0, 1));
    EXPECT_EQ(edges[1], std::make_pair(2, 3));
}

TEST(Circuit, OpNameRoundTrip)
{
    for (Op op : {Op::H, Op::X, Op::RZ, Op::U3, Op::CX, Op::CZ,
                  Op::SWAP, Op::CP, Op::CCX, Op::CSWAP}) {
        Op back;
        ASSERT_TRUE(opFromName(opName(op), back));
        EXPECT_EQ(back, op);
    }
    Op dummy;
    EXPECT_FALSE(opFromName("notagate", dummy));
}

TEST(Circuit, QasmDumpReparses)
{
    Circuit c(3, "dump_test");
    c.h(0);
    c.rz(1, 0.25);
    c.cx(0, 2);
    c.u3(2, 0.1, 0.2, 0.3);
    const Circuit back = qasm::parse(c.toQasm());
    ASSERT_EQ(back.size(), c.size());
    EXPECT_EQ(back.numQubits(), 3);
    EXPECT_EQ(back[3].op, Op::U3);
    EXPECT_DOUBLE_EQ(back[1].params[0], 0.25);
}

// ---------------------------------------------------------- QASM parse

TEST(QasmParser, ParsesBasicProgram)
{
    const Circuit c = qasm::parse(R"(
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0], q[1];
rz(pi/4) q[2];
measure q[0] -> c[0];
)");
    ASSERT_EQ(c.size(), 4u);
    EXPECT_EQ(c[0].op, Op::H);
    EXPECT_EQ(c[1].op, Op::CX);
    EXPECT_NEAR(c[2].params[0], 3.14159265 / 4.0, 1e-8);
    EXPECT_EQ(c[3].op, Op::Measure);
}

TEST(QasmParser, FlattensMultipleRegisters)
{
    const Circuit c = qasm::parse(R"(
qreg a[2];
qreg b[2];
cx a[1], b[0];
)");
    EXPECT_EQ(c.numQubits(), 4);
    EXPECT_EQ(c[0].qubits, (std::vector<int>{1, 2}));
}

TEST(QasmParser, BroadcastsRegisterOperands)
{
    const Circuit c = qasm::parse(R"(
qreg q[3];
h q;
)");
    EXPECT_EQ(c.size(), 3u);
    EXPECT_EQ(c[2].qubits[0], 2);
}

TEST(QasmParser, BroadcastsTwoQubitGateOverRegisters)
{
    const Circuit c = qasm::parse(R"(
qreg a[3];
qreg b[3];
cx a, b;
)");
    EXPECT_EQ(c.size(), 3u);
    EXPECT_EQ(c[1].qubits, (std::vector<int>{1, 4}));
}

TEST(QasmParser, ExpandsUserGateDefinitions)
{
    const Circuit c = qasm::parse(R"(
qreg q[2];
gate mygate(theta) a, b {
  h a;
  rz(theta/2) b;
  cx a, b;
}
mygate(pi) q[0], q[1];
)");
    ASSERT_EQ(c.size(), 3u);
    EXPECT_EQ(c[0].op, Op::H);
    EXPECT_NEAR(c[1].params[0], 3.14159265 / 2.0, 1e-8);
    EXPECT_EQ(c[2].op, Op::CX);
}

TEST(QasmParser, NestedGateDefinitions)
{
    const Circuit c = qasm::parse(R"(
qreg q[2];
gate inner a { x a; }
gate outer a, b { inner a; cx a, b; inner b; }
outer q[0], q[1];
)");
    ASSERT_EQ(c.size(), 3u);
    EXPECT_EQ(c[0].op, Op::X);
    EXPECT_EQ(c[2].qubits[0], 1);
}

TEST(QasmParser, EvaluatesExpressions)
{
    const Circuit c = qasm::parse(R"(
qreg q[1];
rz(2*pi - pi/2) q[0];
rz(-(1+1)^3) q[0];
rz(sin(0)) q[0];
rz(sqrt(4)) q[0];
)");
    EXPECT_NEAR(c[0].params[0], 3.0 * 3.14159265 / 2.0, 1e-7);
    EXPECT_NEAR(c[1].params[0], -8.0, 1e-12);
    EXPECT_NEAR(c[2].params[0], 0.0, 1e-12);
    EXPECT_NEAR(c[3].params[0], 2.0, 1e-12);
}

TEST(QasmParser, RejectsBadPrograms)
{
    EXPECT_THROW(qasm::parse("qreg q[2]; h q[5];"), FatalError);
    EXPECT_THROW(qasm::parse("h q[0];"), FatalError); // unknown reg
    EXPECT_THROW(qasm::parse("qreg q[1]; unknown q[0];"), FatalError);
    EXPECT_THROW(qasm::parse("qreg q[1]; qreg q[2];"), FatalError);
    EXPECT_THROW(qasm::parse("qreg q[2]; if (c==0) x q[0];"),
                 FatalError);
    EXPECT_THROW(qasm::parse("opaque foo a;"), FatalError);
}

// Integer literals that overflow int used to escape the parser as an
// uncaught std::out_of_range from std::stoi — every lexically valid
// but unrepresentable integer must surface as the parser's own
// FatalError (regression: ISSUE 9).
TEST(QasmParser, OverflowingIntegerLiteralsAreFatalErrors)
{
    // qreg size (qasm_parser parseStatement).
    EXPECT_THROW(qasm::parse("qreg q[99999999999999999999];"),
                 FatalError);
    EXPECT_THROW(qasm::parse("qreg q[2147483648];"), FatalError);
    // qubit index (parseQubitOperand).
    EXPECT_THROW(
        qasm::parse("qreg q[2]; h q[99999999999999999999];"),
        FatalError);
    // The message must carry the parser's line/col diagnostics, not a
    // bare stoi what() string.
    try {
        qasm::parse("qreg q[99999999999999999999];");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("qasm parse error"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("out of range"),
                  std::string::npos);
    }
}

// Real literals past the double range used to escape the expression
// evaluator as std::out_of_range from std::stod.
TEST(QasmParser, RealLiteralsPastTheDoubleRange)
{
    try {
        qasm::parse("qreg q[1];\nrz(pi + 1e999) q[0];");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("qasm parse error at line 2, col 9"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("out of range"), std::string::npos) << what;
    }
    EXPECT_THROW(qasm::parse("qreg q[1]; rz(-2e400) q[0];"), FatalError);
    // In a gate body, evaluated at the call.
    EXPECT_THROW(qasm::parse("qreg q[1]; gate g(a) x { rz(a * 1e999) x; }"
                             " g(1) q[0];"),
                 FatalError);
    // Underflow rounds, as strtod does.
    const Circuit c = qasm::parse("qreg q[1]; rz(1e-400) q[0];");
    EXPECT_EQ(c[0].params[0], 0.0);
}

TEST(QasmParser, NonNumericSizeIsFatalError)
{
    EXPECT_THROW(qasm::parse("qreg q[abc];"), FatalError);
    EXPECT_THROW(qasm::parse("qreg q[];"), FatalError);
    EXPECT_THROW(qasm::parse("qreg q[2]; h q[x];"), FatalError);
}

TEST(QasmParser, HandlesCommentsAndBarriers)
{
    const Circuit c = qasm::parse(R"(
// leading comment
qreg q[2];
h q[0]; // trailing comment
barrier q;
x q[1];
)");
    ASSERT_EQ(c.size(), 3u);
    EXPECT_EQ(c[1].op, Op::Barrier);
}

// ---------------------------------------------------------- generators

TEST(Generators, PaperRecordsCoverAllSeventeen)
{
    const auto &records = bench_circuits::paperBenchmarkRecords();
    EXPECT_EQ(records.size(), 17u);
    for (const auto &rec : records) {
        const Circuit c = bench_circuits::paperBenchmark(rec.name);
        EXPECT_GT(c.numQubits(), 0) << rec.name;
        EXPECT_GT(c.size(), 0u) << rec.name;
    }
    EXPECT_THROW(bench_circuits::paperBenchmark("nope_n5"), FatalError);
}

TEST(Generators, QubitCountsMatchNames)
{
    for (const auto &rec : bench_circuits::paperBenchmarkRecords()) {
        const Circuit c = bench_circuits::paperBenchmark(rec.name);
        const std::size_t pos = rec.name.rfind('n');
        const int n = std::stoi(rec.name.substr(pos + 1));
        EXPECT_EQ(c.numQubits(), n) << rec.name;
    }
}

TEST(Generators, GhzIsHPlusCxChain)
{
    const Circuit c = bench_circuits::ghz(5);
    ASSERT_EQ(c.size(), 5u);
    EXPECT_EQ(c[0].op, Op::H);
    for (int i = 1; i < 5; ++i) {
        EXPECT_EQ(c[static_cast<std::size_t>(i)].op, Op::CX);
        EXPECT_EQ(c[static_cast<std::size_t>(i)].qubits,
                  (std::vector<int>{i - 1, i}));
    }
}

TEST(Generators, BvUsesSecretBits)
{
    const std::vector<bool> secret{true, false, true};
    const Circuit c = bench_circuits::bernsteinVazirani(4, secret);
    int cx_count = 0;
    for (const Gate &g : c.gates())
        if (g.op == Op::CX)
            ++cx_count;
    EXPECT_EQ(cx_count, 2); // two set bits
    EXPECT_THROW(bench_circuits::bernsteinVazirani(4, {true}),
                 FatalError);
}

TEST(Generators, QftHasAllControlledPhases)
{
    const Circuit c = bench_circuits::qft(6);
    int cp = 0, h = 0;
    for (const Gate &g : c.gates()) {
        cp += g.op == Op::CP;
        h += g.op == Op::H;
    }
    EXPECT_EQ(cp, 6 * 5 / 2);
    EXPECT_EQ(h, 6);
}

TEST(Generators, IsingTouchesEveryBondOnce)
{
    const Circuit c = bench_circuits::ising(10);
    std::set<std::pair<int, int>> bonds;
    for (const auto &[a, b] : c.interactionEdges())
        bonds.insert({std::min(a, b), std::max(a, b)});
    EXPECT_EQ(bonds.size(), 9u); // n-1 neighbour bonds
    EXPECT_EQ(c.count2Q(), 18);  // 2 CX per bond
}

TEST(Generators, SwapTestAndKnnRequireOddQubits)
{
    EXPECT_THROW(bench_circuits::swapTest(24), FatalError);
    EXPECT_THROW(bench_circuits::knn(30), FatalError);
    EXPECT_EQ(bench_circuits::swapTest(25).numQubits(), 25);
}

TEST(Generators, GateCountsTrackPaperAfterPreprocessing)
{
    // Checked more precisely in test_transpile; here: raw circuits are
    // deterministic.
    const Circuit a = bench_circuits::paperBenchmark("wstate_n27");
    const Circuit b = bench_circuits::paperBenchmark("wstate_n27");
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].op, b[i].op);
        EXPECT_EQ(a[i].qubits, b[i].qubits);
    }
}

} // namespace
} // namespace zac
