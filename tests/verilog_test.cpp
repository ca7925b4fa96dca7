// Tests for the structural Verilog emitter: an exact golden-file match on
// a hand-built netlist exercising every construct (gates, mux, DFFs with
// enable/reset, ROM case block, constants, name sanitization), plus
// structural checks on synthesized wrapper output and determinism.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "lis/system.hpp"
#include "netlist/buses.hpp"
#include "netlist/generate.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"
#include "test_util.hpp"

using namespace lis::netlist;

namespace {

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

/// The golden netlist: a ROM-fed datapath with an enabled counter, every
/// gate type, a constant output, and names that need sanitizing
/// ("vgold mix", "da ta") or collide with Verilog keywords ("case").
Netlist goldenNetlist() {
  Netlist nl("vgold mix");
  BusBuilder bb(nl);
  const NodeId a = nl.addInput("a");
  const NodeId b = nl.addInput("da ta");
  const NodeId sel = nl.addInput("case");
  const NodeId en = nl.addInput("en");
  const std::uint32_t rom = nl.addRom(4, {0xA, 0x3, 0x7, 0xC}, "tbl");
  const Bus cnt = bb.registerBus(2, /*resetValue=*/1, "cnt");
  bb.connectRegister(cnt, bb.incrementer(cnt), en);
  const Bus word = bb.romRead(rom, cnt);
  const NodeId g1 = nl.mkAnd(a, b);
  const NodeId g2 = nl.mkXor(g1, word[0]);
  const NodeId g3 = nl.mkMux(sel, g2, nl.mkNot(word[3]));
  nl.addOutput("y", nl.mkOr(g3, word[1]));
  nl.addOutput("q0", cnt[0]);
  nl.addOutput("k1", nl.constant(true));
  return nl;
}

void testGoldenFile() {
  const std::string emitted = emitVerilog(goldenNetlist());
  std::ifstream in(std::string(LIS_GOLDEN_DIR) + "/vgold_mix.v");
  CHECK(in.good());
  std::ostringstream golden;
  golden << in.rdbuf();
  if (emitted != golden.str()) {
    std::printf("--- emitted ---\n%s--- golden ---\n%s", emitted.c_str(),
                golden.str().c_str());
  }
  CHECK(emitted == golden.str());
}

void testWrapperEmission() {
  const lis::sync::System w = lis::sync::buildSystem(
      lis::sync::wrapperSpec({2, 1, 4, 2, lis::sync::Encoding::Binary}));
  const std::string v = emitVerilog(w.netlist);
  CHECK(contains(v, "module wrapper_n2m1d2_binary"));
  CHECK(contains(v, "input wire clk;"));
  CHECK(contains(v, "input wire rst;"));
  CHECK(contains(v, "always @(posedge clk)"));
  // Every port of the netlist appears in the emission.
  for (const NodeId id : w.netlist.inputs()) {
    CHECK(contains(v, w.netlist.node(id).name));
  }
  for (const NodeId id : w.netlist.outputs()) {
    CHECK(contains(v, w.netlist.node(id).name));
  }
  // Registers carry synchronous resets and (for the gated datapath)
  // clock enables.
  CHECK(contains(v, "if (rst)"));
  CHECK(contains(v, "else if ("));
  // Deterministic: same netlist, same text.
  CHECK(v == emitVerilog(w.netlist));
}

void testCombinationalHasNoClock() {
  const std::string v = emitVerilog(gen::adder(4));
  CHECK(!contains(v, "clk"));
  CHECK(!contains(v, "rst"));
  CHECK(contains(v, "assign"));
  CHECK(contains(v, "endmodule"));
}

void testRomEmission() {
  const std::string v = emitVerilog(gen::romReader(3, 8, /*seed=*/3));
  CHECK(contains(v, "case ({"));
  CHECK(contains(v, "endcase"));
  CHECK(contains(v, "default:"));
}

} // namespace

int main() {
  testGoldenFile();
  testWrapperEmission();
  testCombinationalHasNoClock();
  testRomEmission();
  return testExit();
}
