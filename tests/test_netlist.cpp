#include "netlist/netlist.h"

#include <gtest/gtest.h>

#include <functional>

#include "circuits/circuits.h"
#include "netlist/builder.h"
#include "netlist/hash.h"
#include "netlist/query.h"
#include "netlist/reader.h"
#include "netlist/writer.h"

namespace desyn::nl {
namespace {

using cell::Kind;
using cell::V;

TEST(Netlist, AddAndConnect) {
  Netlist nl("t");
  NetId a = nl.add_input("a");
  NetId b = nl.add_input("b");
  NetId y = nl.add_net("y");
  CellId g = nl.add_cell(Kind::And, "g", {a, b}, {y});
  nl.mark_output(y);

  EXPECT_EQ(nl.net(y).driver, g);
  ASSERT_EQ(nl.net(a).fanout.size(), 1u);
  EXPECT_EQ(nl.net(a).fanout[0].cell, g);
  EXPECT_TRUE(nl.is_primary_input(a));
  EXPECT_FALSE(nl.is_primary_input(y));
  nl.check();
}

TEST(Netlist, NameLookupAndUniquification) {
  Netlist nl("t");
  NetId a = nl.add_net("x");
  NetId b = nl.add_net("x");  // duplicate name gets uniquified
  EXPECT_NE(nl.net(a).name, nl.net(b).name);
  EXPECT_EQ(nl.find_net("x"), a);
  EXPECT_FALSE(nl.find_net("nope").valid());
}

TEST(Netlist, RewireInput) {
  Netlist nl("t");
  NetId a = nl.add_input("a");
  NetId b = nl.add_input("b");
  NetId y = nl.add_net("y");
  CellId g = nl.add_cell(Kind::Buf, "g", {a}, {y});
  nl.rewire_input(g, 0, b);
  EXPECT_TRUE(nl.net(a).fanout.empty());
  ASSERT_EQ(nl.net(b).fanout.size(), 1u);
  EXPECT_EQ(nl.cell(g).ins[0], b);
  nl.check();
}

TEST(Netlist, RemoveCellTombstones) {
  Netlist nl("t");
  NetId a = nl.add_input("a");
  NetId y = nl.add_net("y");
  CellId g = nl.add_cell(Kind::Buf, "g", {a}, {y});
  EXPECT_EQ(nl.num_live_cells(), 1u);
  nl.remove_cell(g);
  EXPECT_EQ(nl.num_live_cells(), 0u);
  EXPECT_FALSE(nl.is_live(g));
  EXPECT_FALSE(nl.net(y).driver.valid());
  EXPECT_TRUE(nl.net(a).fanout.empty());
  int count = 0;
  for (CellId c : nl.cells()) {
    (void)c;
    ++count;
  }
  EXPECT_EQ(count, 0);
  nl.check();
}

TEST(Builder, TreeDecompositionForWideGates) {
  Netlist nl("t");
  Builder b(nl);
  std::vector<NetId> ins;
  for (int i = 0; i < 20; ++i) ins.push_back(b.input(cat("i", i)));
  NetId y = b.and_(ins, "y");
  b.output(y);
  nl.check();
  // Every AND cell must be within arity bounds.
  for (CellId c : nl.cells()) {
    EXPECT_LE(nl.cell(c).ins.size(), static_cast<size_t>(cell::kMaxArity));
  }
  // 20 inputs cannot fit one level: expect at least 3 cells.
  EXPECT_GE(nl.num_live_cells(), 3u);
}

TEST(Builder, SingleInputReduction) {
  Netlist nl("t");
  Builder b(nl);
  NetId a = b.input("a");
  NetId y1 = b.and_(std::vector<NetId>{a});
  NetId y2 = b.nand_(std::vector<NetId>{a});
  EXPECT_EQ(nl.cell(nl.net(y1).driver).kind, Kind::Buf);
  EXPECT_EQ(nl.cell(nl.net(y2).driver).kind, Kind::Inv);
}

TEST(Builder, ScopesNestNames) {
  Netlist nl("t");
  Builder b(nl);
  NetId a = b.input("a");
  {
    Builder::Scoped s1(b, "u1");
    {
      Builder::Scoped s2(b, "alu");
      NetId n = b.buf(a, "x");
      EXPECT_EQ(nl.net(n).name, "u1.alu.x");
    }
    NetId m = b.buf(a, "y");
    EXPECT_EQ(nl.net(m).name, "u1.y");
  }
  NetId k = b.buf(a, "z");
  EXPECT_EQ(nl.net(k).name, "z");
}

TEST(Builder, TieCellsShared) {
  Netlist nl("t");
  Builder b(nl);
  EXPECT_EQ(b.lo(), b.lo());
  EXPECT_EQ(b.hi(), b.hi());
  EXPECT_NE(b.lo(), b.hi());
}

TEST(Query, TopoOrderRespectsDependencies) {
  Netlist nl("t");
  Builder b(nl);
  NetId a = b.input("a");
  NetId c = b.input("clk");
  NetId x = b.inv(a);
  NetId q = b.dff(x, c, V::V0);
  NetId y = b.buf(q);
  b.output(y);

  auto order = topo_order(nl);
  EXPECT_EQ(order.size(), nl.num_live_cells());
  std::vector<int> pos(nl.num_cells(), -1);
  for (size_t i = 0; i < order.size(); ++i) pos[order[i].value()] = static_cast<int>(i);
  CellId invc = nl.net(x).driver;
  CellId bufc = nl.net(y).driver;
  CellId dffc = nl.net(q).driver;
  // inv before nothing special; buf must come after DFF is irrelevant (DFF is
  // a cut), but buf reads q so it only needs q's driver to be a cut: check
  // the comb cells are ordered before the storage tail.
  EXPECT_LT(pos[invc.value()], pos[dffc.value()]);
  EXPECT_LT(pos[bufc.value()], pos[dffc.value()]);
}

TEST(Query, CombinationalCycleDetected) {
  Netlist nl("t");
  NetId a = nl.add_input("a");
  NetId n1 = nl.add_net("n1");
  NetId n2 = nl.add_net("n2");
  nl.add_cell(Kind::And, "g1", {a, n2}, {n1});
  nl.add_cell(Kind::Buf, "g2", {n1}, {n2});
  EXPECT_THROW(topo_order(nl), Error);
}

TEST(Query, CycleThroughCElemAllowed) {
  Netlist nl("t");
  NetId a = nl.add_input("a");
  NetId n1 = nl.add_net("n1");
  NetId n2 = nl.add_net("n2");
  nl.add_cell(Kind::CElem, "c1", {a, n2}, {n1});
  nl.add_cell(Kind::Inv, "g2", {n1}, {n2});
  EXPECT_NO_THROW(topo_order(nl));
}

TEST(Query, StatsInventory) {
  Netlist nl("t");
  Builder b(nl);
  NetId a = b.input("a");
  NetId ck = b.input("ck");
  NetId x = b.inv(a);
  NetId q = b.dff(x, ck, V::V1);
  NetId l = b.latch(q, ck, V::V0);
  b.output(l);
  Stats s = stats(nl, cell::Tech::generic90());
  EXPECT_EQ(s.cells, 3u);
  EXPECT_EQ(s.flipflops, 1u);
  EXPECT_EQ(s.latches, 1u);
  EXPECT_EQ(s.count(Kind::Inv), 1u);
  EXPECT_GT(s.area, 0.0);
  EXPECT_NE(s.to_string().find("DFF:1"), std::string::npos);
}

TEST(Query, FaninConeStopsAtStorage) {
  Netlist nl("t");
  Builder b(nl);
  NetId a = b.input("a");
  NetId ck = b.input("ck");
  NetId q = b.dff(a, ck, V::V0);
  NetId x = b.inv(q);
  NetId y = b.buf(x);
  auto cone = combinational_fanin(nl, y);
  // inv and buf, not the DFF.
  EXPECT_EQ(cone.size(), 2u);
}

TEST(Writer, RoundTripSmall) {
  Netlist nl("top");
  Builder b(nl);
  NetId a = b.input("a");
  NetId c = b.input("ck");
  NetId x = b.xor_(a, a, "x");
  NetId q = b.dff(x, c, V::V1, "r0");
  b.output(q);

  std::string v1 = to_verilog(nl);
  Netlist nl2 = read_verilog(v1);
  nl2.check();
  std::string v2 = to_verilog(nl2);
  EXPECT_EQ(v1, v2);
  EXPECT_EQ(nl2.num_live_cells(), nl.num_live_cells());
  EXPECT_EQ(nl2.inputs().size(), 2u);
  EXPECT_EQ(nl2.outputs().size(), 1u);
  // init attribute survived.
  CellId r0 = nl2.net(nl2.outputs()[0]).driver;
  EXPECT_EQ(nl2.cell(r0).init, V::V1);
}

TEST(Writer, RoundTripMacros) {
  Netlist nl("top");
  Builder b(nl);
  std::vector<NetId> addr;
  for (int i = 0; i < 3; ++i) addr.push_back(b.input(cat("a", i)));
  auto data = b.rom(addr, 8, {0x12, 0x34, 0xff, 0x00, 0xab}, "im");
  for (NetId d : data) b.output(d);

  std::string v1 = to_verilog(nl);
  Netlist nl2 = read_verilog(v1);
  nl2.check();
  EXPECT_EQ(to_verilog(nl2), v1);
  CellId rom = nl2.find_cell("im");
  ASSERT_TRUE(rom.valid());
  const auto& pl = nl2.payload(nl2.cell(rom).payload);
  ASSERT_EQ(pl.size(), 8u);
  EXPECT_EQ(pl[1], 0x34u);
  EXPECT_EQ(pl[4], 0xabu);
  EXPECT_EQ(pl[7], 0u);  // zero-padded
}

TEST(Writer, DotContainsCells) {
  Netlist nl("top");
  Builder b(nl);
  NetId a = b.input("a");
  b.output(b.inv(a, "y"));
  std::ostringstream os;
  write_dot(nl, os);
  EXPECT_NE(os.str().find("INV"), std::string::npos);
  EXPECT_NE(os.str().find("digraph"), std::string::npos);
}

TEST(Reader, RejectsMalformed) {
  EXPECT_THROW(read_verilog("garbage"), Error);
  EXPECT_THROW(read_verilog("module \\m ( input \\a ); BOGUS \\u ();"), Error);
  EXPECT_THROW(
      read_verilog("module \\m ( input \\a );\n INV \\u ( .A(\\zzz ), .Y(\\a ) );\nendmodule"),
      Error);  // unknown net zzz
}

/// A tiny valid module with one instance line substituted in.
std::string one_cell_module(const std::string& inst) {
  return cat("module \\m (\n  input \\a ,\n  output \\y \n);\n", inst,
             "\nendmodule\n");
}

TEST(Reader, CorruptNumbersAreReportedNotFatal) {
  // Every case must throw desyn::Error — never an uncaught
  // std::invalid_argument / std::out_of_range or an abort.
  const char* cases[] = {
      // Arity suffix overflowing int (the old std::stoi call site).
      "AND99999999999999999999 \\u ( .A0(\\a ), .A1(\\a ), .Y(\\y ) );",
      // Arity outside the library's [2, 8].
      "AND1 \\u ( .A0(\\a ), .Y(\\y ) );",
      "AND9 \\u ( .A0(\\a ), .Y(\\y ) );",
      // Arity suffix on a fixed-arity kind.
      "INV3 \\u ( .A(\\a ), .Y(\\y ) );",
      // Attribute value garbage / overflow.
      "(* init = 99999999999999999999999999 *) LATCH \\u ( .D(\\a ), .EN(\\a ), .Q(\\y ) );",
      "(* init = 7 *) LATCH \\u ( .D(\\a ), .EN(\\a ), .Q(\\y ) );",
      "(* p0 = 999999 *) ROM \\u ( .A0(\\a ), .D0(\\y ) );",
      // Payload: non-hex word, and word count not matching 2^p0.
      "(* p0 = 1, p1 = 1, payload = \"zz,1\" *) ROM \\u ( .A0(\\a ), .D0(\\y ) );",
      "(* p0 = 2, p1 = 1, payload = \"1,2\" *) ROM \\u ( .A0(\\a ), .A1(\\a ), .D0(\\y ) );",
      // Memory without contents (would index payload(-1) downstream).
      "(* p0 = 1, p1 = 1 *) ROM \\u ( .A0(\\a ), .D0(\\y ) );",
  };
  for (const char* inst : cases) {
    EXPECT_THROW(read_verilog(one_cell_module(inst)), Error) << inst;
  }
}

TEST(Reader, MalformedStructureIsReportedNotFatal) {
  // Netlist::add_cell and cell::num_inputs assert on each of these (an
  // abort would take a server down with it), so the reader must reject
  // them first, with a desyn::Error naming source:line.
  struct Case {
    const char* inst;
    int line;  // the offending instance's line in the module text
  };
  const Case cases[] = {
      // Two cells drive one net.
      {"INV \\u ( .A(\\a ), .Y(\\y ) );\nINV \\v ( .A(\\a ), .Y(\\y ) );",
       6},
      // One cell drives the same net from two outputs.
      {"(* p0 = 1, p1 = 2, payload = \"1,2\" *) ROM \\u ( .A0(\\a ), "
       ".D0(\\y ), .D1(\\y ) );",
       5},
      // A cell drives a primary input.
      {"INV \\u ( .A(\\y ), .Y(\\a ) );", 5},
      // A variable-arity kind without its arity suffix.
      {"AND \\u ( .A0(\\a ), .A1(\\a ), .Y(\\y ) );", 5},
  };
  for (const Case& c : cases) {
    try {
      read_verilog(one_cell_module(c.inst), "x.v");
      ADD_FAILURE() << "expected Error: " << c.inst;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(cat("x.v:", c.line, ":")),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Reader, ErrorsNameSourceAndLine) {
  try {
    read_verilog(one_cell_module("INV3 \\u ( .A(\\a ), .Y(\\y ) );"),
                 "broken.v");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    // The instance sits on line 5 of the synthesized module text.
    EXPECT_NE(std::string(e.what()).find("broken.v:5"), std::string::npos)
        << e.what();
  }
}

TEST(Writer, RoundTripPropertyOverCircuitSuite) {
  // The sweep CLI reads and writes whole netlists; every circuit of the
  // suite must survive a write -> read cycle with ids, cell kinds and pin
  // order preserved (and the second write byte-identical).
  for (const circuits::Suite& s : circuits::scaling_suite()) {
    const Netlist& nl = s.circuit.netlist;
    std::string v1 = to_verilog(nl);
    Netlist back = read_verilog(v1, s.name + ".v");
    back.check();
    EXPECT_EQ(to_verilog(back), v1) << s.name;

    ASSERT_EQ(back.inputs().size(), nl.inputs().size()) << s.name;
    for (size_t i = 0; i < nl.inputs().size(); ++i) {
      EXPECT_EQ(back.net(back.inputs()[i]).name, nl.net(nl.inputs()[i]).name);
    }
    ASSERT_EQ(back.outputs().size(), nl.outputs().size()) << s.name;
    for (size_t i = 0; i < nl.outputs().size(); ++i) {
      EXPECT_EQ(back.net(back.outputs()[i]).name,
                nl.net(nl.outputs()[i]).name);
    }

    std::vector<CellId> orig, rt;
    for (CellId c : nl.cells()) orig.push_back(c);
    for (CellId c : back.cells()) rt.push_back(c);
    ASSERT_EQ(rt.size(), orig.size()) << s.name;
    for (size_t i = 0; i < orig.size(); ++i) {
      const CellData& a = nl.cell(orig[i]);
      const CellData& b = back.cell(rt[i]);
      ASSERT_EQ(b.kind, a.kind) << s.name << " cell " << a.name;
      EXPECT_EQ(b.name, a.name) << s.name;
      EXPECT_EQ(b.init, a.init) << s.name << " cell " << a.name;
      EXPECT_EQ(b.p0, a.p0);
      EXPECT_EQ(b.p1, a.p1);
      EXPECT_EQ(b.group, a.group) << s.name << " cell " << a.name;
      ASSERT_EQ(b.ins.size(), a.ins.size()) << s.name << " cell " << a.name;
      for (size_t k = 0; k < a.ins.size(); ++k) {
        EXPECT_EQ(back.net(b.ins[k]).name, nl.net(a.ins[k]).name)
            << s.name << " cell " << a.name << " pin " << k;
      }
      ASSERT_EQ(b.outs.size(), a.outs.size());
      for (size_t k = 0; k < a.outs.size(); ++k) {
        EXPECT_EQ(back.net(b.outs[k]).name, nl.net(a.outs[k]).name)
            << s.name << " cell " << a.name << " out " << k;
      }
      if (a.payload >= 0) {
        ASSERT_GE(b.payload, 0) << s.name << " cell " << a.name;
        EXPECT_EQ(back.payload(b.payload), nl.payload(a.payload));
      }
    }
  }
}

TEST(Netlist, PayloadStorage) {
  Netlist nl("t");
  int32_t p = nl.add_payload({1, 2, 3});
  EXPECT_EQ(nl.payload(p).size(), 3u);
  EXPECT_EQ(nl.payload(p)[2], 3u);
}

// ---------------------------------------------------------------------------
// content_hash — the flow engine's cache-key primitive. Representation
// independent, content sensitive (see netlist/hash.h).
// ---------------------------------------------------------------------------

/// Two-flip-flop toy with one XOR; `swapped` reverses every insertion
/// order the builder controls without changing the circuit.
Netlist hash_toy(bool swapped, const std::string& module = "toy") {
  Netlist nl(module);
  Builder b(nl);
  if (swapped) {
    NetId d1 = b.input("d1");
    NetId d0 = b.input("d0");
    NetId clk = b.input("clk");
    NetId qb = b.dff(d1, clk, cell::V::V1, "r.b");
    NetId qa = b.dff(d0, clk, cell::V::V0, "r.a");
    NetId x = b.xor_(qa, qb, "x");
    b.output(x);
  } else {
    NetId clk = b.input("clk");
    NetId d0 = b.input("d0");
    NetId d1 = b.input("d1");
    NetId qa = b.dff(d0, clk, cell::V::V0, "r.a");
    NetId qb = b.dff(d1, clk, cell::V::V1, "r.b");
    NetId x = b.xor_(qa, qb, "x");
    b.output(x);
  }
  return nl;
}

CellId cell_named(const Netlist& nl, std::string_view name) {
  for (CellId c : nl.cells()) {
    if (nl.cell(c).name == name) return c;
  }
  return {};
}

TEST(ContentHash, InsertionOrderIndependent) {
  EXPECT_EQ(content_hash(hash_toy(false)), content_hash(hash_toy(true)));
}

TEST(ContentHash, SurvivesVerilogRoundTripOverCircuitSuite) {
  // read_verilog builds a fresh representation (new ids, fresh payload
  // table): the canonical hash must not notice.
  for (const circuits::Suite& s : circuits::scaling_suite()) {
    const Netlist& nl = s.circuit.netlist;
    Netlist back = read_verilog(to_verilog(nl), s.name + ".v");
    EXPECT_EQ(content_hash(back), content_hash(nl)) << s.name;
  }
}

TEST(ContentHash, SensitiveToEveryContentField) {
  const Hash256 base = content_hash(hash_toy(false));

  EXPECT_NE(content_hash(hash_toy(false, "toy2")), base) << "module name";

  Netlist kind = hash_toy(false);
  kind.set_kind(cell_named(kind, "x"), cell::Kind::And);
  EXPECT_NE(content_hash(kind), base) << "cell kind";

  Netlist init = hash_toy(false);
  init.set_init(cell_named(init, "r.a"), cell::V::V1);
  EXPECT_NE(content_hash(init), base) << "init value";

  Netlist rewired(hash_toy(false).name());
  {
    // Same cells, one XOR pin moved from r.a's output to d0 directly.
    Builder b(rewired);
    NetId clk = b.input("clk");
    NetId d0 = b.input("d0");
    NetId d1 = b.input("d1");
    (void)b.dff(d0, clk, cell::V::V0, "r.a");
    NetId qb = b.dff(d1, clk, cell::V::V1, "r.b");
    NetId x = b.xor_(d0, qb, "x");
    b.output(x);
  }
  EXPECT_NE(content_hash(rewired), base) << "pin connectivity";
}

/// Two-word ROM indexed by one address bit; `lut` is the contents.
Netlist rom_toy(std::vector<uint64_t> lut) {
  Netlist nl("romtoy");
  Builder b(nl);
  NetId a = b.input("a");
  std::vector<NetId> addr = {a};
  auto out = b.rom(addr, 2, std::move(lut), "lut");
  b.output(b.xor_(out[0], out[1], "x"));
  return nl;
}

TEST(ContentHash, SensitiveToGroupAndPayload) {
  const Hash256 base = content_hash(rom_toy({2, 1}));

  // Same structure, one ROM bit flipped: only the payload table differs.
  EXPECT_NE(content_hash(rom_toy({3, 1})), base) << "payload word";

  Netlist grouped = rom_toy({2, 1});
  grouped.set_group(cell_named(grouped, "x"), 7);
  EXPECT_NE(content_hash(grouped), base) << "group attribute";
}

// ---------------------------------------------------------------------------
// The hash memo: a netlist keeps its content and census hashes until an
// edit (netlist.h).
// ---------------------------------------------------------------------------

TEST(HashMemo, EveryMutatorRefreshesTheMemo) {
  // Each public mutator in turn, on a netlist whose hashes are memoized:
  // afterwards both hashes must equal those of a never-hashed netlist that
  // received the same edits. `changes` marks the edits that change the
  // content hash, so a stale memo cannot pass by accident.
  struct Edit {
    const char* name;
    bool changes;
    std::function<void(Netlist&)> apply;
  };
  const std::vector<Edit> edits = {
      {"add_net", false, [](Netlist& n) { n.add_net("spare"); }},
      {"add_input", true, [](Netlist& n) { n.add_input("d2"); }},
      {"add_cell", true,
       [](Netlist& n) {
         n.add_cell(Kind::Inv, "inv", {n.find_net("d2")}, {n.find_net("spare")});
       }},
      {"mark_output", true,
       [](Netlist& n) { n.mark_output(n.find_net("spare")); }},
      {"add_payload", false, [](Netlist& n) { n.add_payload({2, 1}); }},
      {"add_cell (ROM)", true,
       [](Netlist& n) {
         n.add_cell(Kind::Rom, "lut", {n.find_net("d2")},
                    {n.add_net("lut0"), n.add_net("lut1")}, V::V0, 0, 1, 2);
       }},
      {"replace_payload", true,
       [](Netlist& n) { n.replace_payload(0, {1, 2}); }},
      {"rewire_input", true,
       [](Netlist& n) {
         n.rewire_input(cell_named(n, "x"), 0, n.find_net("lut0"));
       }},
      {"set_kind", true,
       [](Netlist& n) { n.set_kind(cell_named(n, "x"), Kind::And); }},
      {"set_kind (storage)", true,
       [](Netlist& n) { n.set_kind(cell_named(n, "r.b"), Kind::Latch); }},
      {"set_init", true,
       [](Netlist& n) { n.set_init(cell_named(n, "r.a"), V::V1); }},
      {"set_group", true,
       [](Netlist& n) { n.set_group(cell_named(n, "x"), 3); }},
      {"remove_cell", true,
       [](Netlist& n) { n.remove_cell(cell_named(n, "inv")); }},
  };
  Netlist edited = hash_toy(false);
  for (size_t k = 0; k < edits.size(); ++k) {
    SCOPED_TRACE(edits[k].name);
    const Hash256 before = content_hash(edited);
    (void)census_hash(edited);
    edits[k].apply(edited);
    Netlist fresh = hash_toy(false);
    for (size_t i = 0; i <= k; ++i) edits[i].apply(fresh);
    const uint64_t computed = hash_computations();
    EXPECT_EQ(content_hash(edited), content_hash(fresh));
    EXPECT_EQ(census_hash(edited), census_hash(fresh));
    // The edit cleared the memo, so all four hashes were computed.
    EXPECT_EQ(hash_computations(), computed + 4);
    EXPECT_EQ(content_hash(edited) != before, edits[k].changes);
  }
  // Unchanged content is served from the memo.
  const uint64_t computed = hash_computations();
  (void)content_hash(edited);
  (void)census_hash(edited);
  EXPECT_EQ(hash_computations(), computed);
}

TEST(HashMemo, CopiesNeverReturnTheOriginalsMemo) {
  // A copy edited after the copy, and an original edited after it was
  // copied, hash their own content; so does a copy-assigned netlist.
  Netlist original = hash_toy(false);
  const Hash256 base = content_hash(original);
  const Hash256 edited_hash = [] {
    Netlist n = hash_toy(false);
    n.set_init(cell_named(n, "r.a"), V::V1);
    return content_hash(n);
  }();
  ASSERT_NE(edited_hash, base);

  Netlist copy = original;
  copy.set_init(cell_named(copy, "r.a"), V::V1);
  EXPECT_EQ(content_hash(copy), edited_hash);
  EXPECT_EQ(content_hash(original), base);

  Netlist assigned("other");
  (void)content_hash(assigned);
  assigned = original;
  EXPECT_EQ(content_hash(assigned), base);
  assigned.set_init(cell_named(assigned, "r.a"), V::V1);
  EXPECT_EQ(content_hash(assigned), edited_hash);

  Netlist kept = original;
  Netlist moved = std::move(copy);
  original.set_init(cell_named(original, "r.a"), V::V1);
  EXPECT_EQ(content_hash(original), edited_hash);
  EXPECT_EQ(content_hash(kept), base);
  EXPECT_EQ(content_hash(moved), edited_hash);
  static_assert(std::is_nothrow_move_constructible_v<Netlist>);
}

}  // namespace
}  // namespace desyn::nl
