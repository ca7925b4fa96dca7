#include "netlist/verilog.hpp"

#include <sstream>
#include <unordered_set>
#include <vector>

namespace lis::netlist {

namespace {

bool isIdentChar(char c, bool first) {
  if (c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')) {
    return true;
  }
  return !first && c >= '0' && c <= '9';
}

/// Every IEEE 1364-2001 keyword, plus the clock and reset port names.
const std::unordered_set<std::string>& reservedWords() {
  static const std::unordered_set<std::string> words = {
      "always", "and", "assign", "automatic", "begin", "buf", "bufif0",
      "bufif1", "case", "casex", "casez", "cell", "cmos", "config",
      "deassign", "default", "defparam", "design", "disable", "edge",
      "else", "end", "endcase", "endconfig", "endfunction", "endgenerate",
      "endmodule", "endprimitive", "endspecify", "endtable", "endtask",
      "event", "for", "force", "forever", "fork", "function", "generate",
      "genvar", "highz0", "highz1", "if", "ifnone", "incdir", "include",
      "initial", "inout", "input", "instance", "integer", "join", "large",
      "liblist", "library", "localparam", "macromodule", "medium", "module",
      "nand", "negedge", "nmos", "nor", "noshowcancelled", "not", "notif0",
      "notif1", "or", "output", "parameter", "pmos", "posedge", "primitive",
      "pull0", "pull1", "pulldown", "pullup", "pulsestyle_ondetect",
      "pulsestyle_onevent", "rcmos", "real", "realtime", "reg", "release",
      "repeat", "rnmos", "rpmos", "rtran", "rtranif0", "rtranif1",
      "scalared", "showcancelled", "signed", "small", "specify",
      "specparam", "strong0", "strong1", "supply0", "supply1", "table",
      "task", "time", "tran", "tranif0", "tranif1", "tri", "tri0", "tri1",
      "triand", "trior", "trireg", "unsigned", "use", "vectored", "wait",
      "wand", "weak0", "weak1", "while", "wire", "wor", "xnor", "xor",
      "clk", "rst"};
  return words;
}

std::string sanitize(const std::string& raw) {
  std::string out = "_"; // placeholder lead, dropped when raw starts legally
  out.reserve(raw.size() + 1);
  for (char c : raw) {
    out.push_back(isIdentChar(c, out.size() == 1) ? c : '_');
  }
  if (out.size() > 1 && isIdentChar(out[1], true)) out.erase(0, 1);
  return out;
}

/// Allocates legal, unique identifiers; collisions and reserved words get
/// a _n<tag> suffix.
class NameTable {
public:
  std::string claim(const std::string& preferred, const std::string& tag) {
    std::string name = sanitize(preferred);
    if (reservedWords().count(name) != 0 || !used_.insert(name).second) {
      name += "_" + tag;
      while (!used_.insert(name).second) name += "_";
    }
    return name;
  }

private:
  std::unordered_set<std::string> used_;
};

} // namespace

std::string emitVerilog(const Netlist& nl) {
  const std::vector<Node>& nodes = nl.nodes();
  NameTable names;
  const std::string moduleName = names.claim(nl.name(), "top");

  // Node identifiers: ports and named registers keep their names, every
  // other node is n<id>. Constants are inlined at use sites.
  std::vector<std::string> ident(nodes.size());
  for (NodeId id = 0; id < nodes.size(); ++id) {
    const Node& n = nodes[id];
    if (n.op == Op::Const0 || n.op == Op::Const1) continue;
    std::string fallback = "n";
    fallback += std::to_string(id);
    ident[id] = names.claim(n.name.empty() ? fallback : n.name,
                            std::to_string(id));
  }
  auto ref = [&](NodeId id) -> std::string {
    if (nodes[id].op == Op::Const0) return "1'b0";
    if (nodes[id].op == Op::Const1) return "1'b1";
    return ident[id];
  };

  const bool sequential = !nl.dffs().empty();
  std::ostringstream os;
  os << "// Structural netlist \"" << nl.name() << "\" emitted by lis\n";
  os << "module " << moduleName << " (\n";
  {
    std::vector<std::string> ports;
    if (sequential) {
      ports.push_back("clk");
      ports.push_back("rst");
    }
    for (NodeId id : nl.inputs()) ports.push_back(ident[id]);
    for (NodeId id : nl.outputs()) ports.push_back(ident[id]);
    for (std::size_t i = 0; i < ports.size(); ++i) {
      os << "  " << ports[i] << (i + 1 < ports.size() ? ",\n" : "\n");
    }
  }
  os << ");\n";
  if (sequential) os << "  input wire clk;\n  input wire rst;\n";
  for (NodeId id : nl.inputs()) os << "  input wire " << ident[id] << ";\n";
  for (NodeId id : nl.outputs()) os << "  output wire " << ident[id] << ";\n";
  os << "\n";

  // Declarations.
  for (NodeId id = 0; id < nodes.size(); ++id) {
    switch (nodes[id].op) {
      case Op::Not:
      case Op::And:
      case Op::Or:
      case Op::Xor:
      case Op::Mux:
        os << "  wire " << ident[id] << ";\n";
        break;
      case Op::Dff:
        os << "  reg " << ident[id] << ";\n";
        break;
      default:
        break;
    }
  }
  os << "\n";

  // Combinational gates.
  for (NodeId id = 0; id < nodes.size(); ++id) {
    const Node& n = nodes[id];
    switch (n.op) {
      case Op::Not:
        os << "  assign " << ident[id] << " = ~" << ref(n.fanin[0]) << ";\n";
        break;
      case Op::And:
        os << "  assign " << ident[id] << " = " << ref(n.fanin[0]) << " & "
           << ref(n.fanin[1]) << ";\n";
        break;
      case Op::Or:
        os << "  assign " << ident[id] << " = " << ref(n.fanin[0]) << " | "
           << ref(n.fanin[1]) << ";\n";
        break;
      case Op::Xor:
        os << "  assign " << ident[id] << " = " << ref(n.fanin[0]) << " ^ "
           << ref(n.fanin[1]) << ";\n";
        break;
      case Op::Mux:
        os << "  assign " << ident[id] << " = " << ref(n.fanin[0]) << " ? "
           << ref(n.fanin[2]) << " : " << ref(n.fanin[1]) << ";\n";
        break;
      default:
        break;
    }
  }

  // Registers: synchronous reset, optional clock enable.
  for (NodeId id : nl.dffs()) {
    const Node& n = nodes[id];
    os << "  always @(posedge clk) begin\n"
       << "    if (rst) " << ident[id] << " <= 1'b"
       << (n.resetValue ? 1 : 0) << ";\n";
    if (n.hasEnable) {
      os << "    else if (" << ref(n.fanin[1]) << ") " << ident[id]
         << " <= " << ref(n.fanin[0]) << ";\n";
    } else {
      os << "    else " << ident[id] << " <= " << ref(n.fanin[0]) << ";\n";
    }
    os << "  end\n";
  }

  // Output ports.
  for (NodeId id : nl.outputs()) {
    os << "  assign " << ident[id] << " = " << ref(nodes[id].fanin[0])
       << ";\n";
  }
  os << "endmodule\n";
  return os.str();
}

} // namespace lis::netlist
