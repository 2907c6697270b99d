#include "cell/cells.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "cell/liberty.h"
#include "cell/tech.h"

namespace desyn::cell {
namespace {

V v(int x) { return x == 0 ? V::V0 : (x == 1 ? V::V1 : V::VX); }

TEST(Eval, BasicGates) {
  V in01[] = {v(0), v(1)};
  V in11[] = {v(1), v(1)};
  V in00[] = {v(0), v(0)};
  EXPECT_EQ(eval_comb(Kind::And, in01), V::V0);
  EXPECT_EQ(eval_comb(Kind::And, in11), V::V1);
  EXPECT_EQ(eval_comb(Kind::Or, in01), V::V1);
  EXPECT_EQ(eval_comb(Kind::Or, in00), V::V0);
  EXPECT_EQ(eval_comb(Kind::Nand, in11), V::V0);
  EXPECT_EQ(eval_comb(Kind::Nor, in00), V::V1);
  EXPECT_EQ(eval_comb(Kind::Xor, in01), V::V1);
  EXPECT_EQ(eval_comb(Kind::Xnor, in01), V::V0);
}

TEST(Eval, XPropagation) {
  V x1[] = {v(2), v(1)};
  V x0[] = {v(2), v(0)};
  // Controlling values dominate X.
  EXPECT_EQ(eval_comb(Kind::And, x0), V::V0);
  EXPECT_EQ(eval_comb(Kind::Or, x1), V::V1);
  // Non-controlling leave X.
  EXPECT_EQ(eval_comb(Kind::And, x1), V::VX);
  EXPECT_EQ(eval_comb(Kind::Or, x0), V::VX);
  EXPECT_EQ(eval_comb(Kind::Xor, x1), V::VX);
}

TEST(Eval, WideGates) {
  std::vector<V> ins(8, V::V1);
  EXPECT_EQ(eval_comb(Kind::And, ins), V::V1);
  ins[7] = V::V0;
  EXPECT_EQ(eval_comb(Kind::And, ins), V::V0);
  EXPECT_EQ(eval_comb(Kind::Or, ins), V::V1);
}

TEST(Eval, Mux2TruthTable) {
  for (int a = 0; a <= 1; ++a) {
    for (int b = 0; b <= 1; ++b) {
      V ins[] = {v(a), v(b), v(0)};
      EXPECT_EQ(eval_comb(Kind::Mux2, ins), v(a));
      V ins1[] = {v(a), v(b), v(1)};
      EXPECT_EQ(eval_comb(Kind::Mux2, ins1), v(b));
    }
  }
  // X select: known only when both data agree.
  V agree[] = {v(1), v(1), v(2)};
  V differ[] = {v(0), v(1), v(2)};
  EXPECT_EQ(eval_comb(Kind::Mux2, agree), V::V1);
  EXPECT_EQ(eval_comb(Kind::Mux2, differ), V::VX);
}

TEST(Eval, Aoi21Oai21) {
  for (int a = 0; a <= 1; ++a) {
    for (int b = 0; b <= 1; ++b) {
      for (int c = 0; c <= 1; ++c) {
        V ins[] = {v(a), v(b), v(c)};
        int aoi = !((a && b) || c);
        int oai = !((a || b) && c);
        EXPECT_EQ(eval_comb(Kind::Aoi21, ins), v(aoi));
        EXPECT_EQ(eval_comb(Kind::Oai21, ins), v(oai));
      }
    }
  }
}

TEST(Eval, Ties) {
  EXPECT_EQ(eval_comb(Kind::TieLo, {}), V::V0);
  EXPECT_EQ(eval_comb(Kind::TieHi, {}), V::V1);
}

TEST(CElem, RiseFallHold) {
  V all1[] = {v(1), v(1)};
  V all0[] = {v(0), v(0)};
  V mixed[] = {v(0), v(1)};
  EXPECT_EQ(eval_state_holding(Kind::CElem, all1, V::V0), V::V1);
  EXPECT_EQ(eval_state_holding(Kind::CElem, all0, V::V1), V::V0);
  EXPECT_EQ(eval_state_holding(Kind::CElem, mixed, V::V0), V::V0);
  EXPECT_EQ(eval_state_holding(Kind::CElem, mixed, V::V1), V::V1);
  // X input: cannot rise/fall, holds.
  V withx[] = {v(2), v(1)};
  EXPECT_EQ(eval_state_holding(Kind::CElem, withx, V::V0), V::V0);
}

TEST(Gc, SetResetHoldConflict) {
  V set[] = {v(1), v(0)};
  V reset[] = {v(0), v(1)};
  V hold[] = {v(0), v(0)};
  V conflict[] = {v(1), v(1)};
  EXPECT_EQ(eval_state_holding(Kind::Gc, set, V::V0), V::V1);
  EXPECT_EQ(eval_state_holding(Kind::Gc, reset, V::V1), V::V0);
  EXPECT_EQ(eval_state_holding(Kind::Gc, hold, V::V1), V::V1);
  EXPECT_EQ(eval_state_holding(Kind::Gc, hold, V::V0), V::V0);
  EXPECT_EQ(eval_state_holding(Kind::Gc, conflict, V::V0), V::VX);
}

/// Two-valued function of each combinational kind over input bits `x`.
bool boolean_gate(Kind k, const std::vector<bool>& x) {
  auto all = [&x] {
    for (bool b : x) {
      if (!b) return false;
    }
    return true;
  };
  auto any = [&x] {
    for (bool b : x) {
      if (b) return true;
    }
    return false;
  };
  switch (k) {
    case Kind::TieLo: return false;
    case Kind::TieHi: return true;
    case Kind::Buf:
    case Kind::Delay: return x[0];
    case Kind::Inv: return !x[0];
    case Kind::And: return all();
    case Kind::Nand: return !all();
    case Kind::Or: return any();
    case Kind::Nor: return !any();
    case Kind::Xor: return x[0] != x[1];
    case Kind::Xnor: return x[0] == x[1];
    case Kind::Mux2: return x[2] ? x[1] : x[0];
    case Kind::Aoi21: return !((x[0] && x[1]) || x[2]);
    case Kind::Oai21: return !((x[0] || x[1]) && x[2]);
    default: ADD_FAILURE() << kind_name(k); return false;
  }
}

/// Three-valued reference: the value every 0/1 completion of the X inputs
/// agrees on, else X.
V completed_gate(Kind k, const std::vector<V>& ins) {
  std::vector<size_t> xs;
  for (size_t i = 0; i < ins.size(); ++i) {
    if (ins[i] == V::VX) xs.push_back(i);
  }
  std::vector<bool> bits(ins.size());
  int seen = -1;
  for (uint32_t m = 0; m < (1u << xs.size()); ++m) {
    for (size_t i = 0; i < ins.size(); ++i) bits[i] = ins[i] == V::V1;
    for (size_t j = 0; j < xs.size(); ++j) bits[xs[j]] = (m >> j) & 1;
    const int y = boolean_gate(k, bits);
    if (seen >= 0 && y != seen) return V::VX;
    seen = y;
  }
  return from_bool(seen == 1);
}

/// State-holding reference: a C-element switches when its inputs agree, a
/// gC on a lone set or reset; both hold otherwise.
V state_holding_reference(Kind k, const std::vector<V>& ins, V prev) {
  if (k == Kind::Gc) {
    if (ins[0] == V::V1 && ins[1] == V::V1) return V::VX;
    if (ins[0] == V::V1) return V::V1;
    if (ins[1] == V::V1) return V::V0;
    return prev;
  }
  if (std::all_of(ins.begin(), ins.end(), [](V x) { return x == V::V1; })) {
    return V::V1;
  }
  if (std::all_of(ins.begin(), ins.end(), [](V x) { return x == V::V0; })) {
    return V::V0;
  }
  return prev;
}

/// Every three-valued vector of `n` inputs.
std::vector<std::vector<V>> all_vectors(size_t n) {
  std::vector<std::vector<V>> out(1);
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::vector<V>> next;
    for (const std::vector<V>& p : out) {
      for (V x : {V::V0, V::V1, V::VX}) {
        next.push_back(p);
        next.back().push_back(x);
      }
    }
    out = std::move(next);
  }
  return out;
}

TEST(Eval, AccessorFormMatchesSpanFormAndReference) {
  // The simulator evaluates through an accessor over its net values, the
  // settle passes and lint through a span; both must give the reference
  // value on every input vector and arity.
  struct Shape {
    Kind kind;
    size_t lo, hi;  // arities
  };
  const Shape shapes[] = {
      {Kind::TieLo, 0, 0}, {Kind::TieHi, 0, 0}, {Kind::Buf, 1, 1},
      {Kind::Inv, 1, 1},   {Kind::Delay, 1, 1}, {Kind::And, 1, 4},
      {Kind::Nand, 1, 4},  {Kind::Or, 1, 4},    {Kind::Nor, 1, 4},
      {Kind::Xor, 2, 2},   {Kind::Xnor, 2, 2},  {Kind::Mux2, 3, 3},
      {Kind::Aoi21, 3, 3}, {Kind::Oai21, 3, 3}, {Kind::CElem, 1, 4},
      {Kind::Gc, 2, 2},
  };
  size_t checked = 0;
  for (const Shape& sh : shapes) {
    for (size_t n = sh.lo; n <= sh.hi; ++n) {
      for (const std::vector<V>& ins : all_vectors(n)) {
        // Net-indexed values read through pin indices, as the simulator
        // reads them: input i sits at net n - 1 - i.
        std::vector<V> nets(ins.rbegin(), ins.rend());
        auto accessor = [&nets, n](size_t i) { return nets[n - 1 - i]; };
        std::string label = kind_name(sh.kind);
        for (V x : ins) label += to_char(x);
        if (is_state_holding(sh.kind)) {
          for (V prev : {V::V0, V::V1, V::VX}) {
            const V want = state_holding_reference(sh.kind, ins, prev);
            EXPECT_EQ(eval_state_holding(sh.kind, ins, prev), want)
                << label << " prev " << to_char(prev);
            EXPECT_EQ(eval_state_holding(sh.kind, n, accessor, prev), want)
                << label << " prev " << to_char(prev);
            ++checked;
          }
        } else {
          const V want = completed_gate(sh.kind, ins);
          EXPECT_EQ(eval_comb(sh.kind, ins), want) << label;
          EXPECT_EQ(eval_comb(sh.kind, n, accessor), want) << label;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 2u + 3 * 3 + 4 * 120 + 2 * 9 + 3 * 27 +
                         3 * 120 + 3 * 9);
}

TEST(Kinds, Classification) {
  EXPECT_TRUE(is_combinational(Kind::And));
  EXPECT_TRUE(is_combinational(Kind::Rom));
  EXPECT_FALSE(is_combinational(Kind::Ram));
  EXPECT_FALSE(is_combinational(Kind::CElem));
  EXPECT_TRUE(is_storage(Kind::Dff));
  EXPECT_TRUE(is_storage(Kind::Ram));
  EXPECT_TRUE(is_state_holding(Kind::Gc));
  EXPECT_TRUE(is_latch(Kind::LatchN));
  EXPECT_FALSE(is_latch(Kind::Dff));
}

TEST(Kinds, PinCounts) {
  EXPECT_EQ(num_inputs(Kind::Mux2, 3), 3);
  EXPECT_EQ(num_inputs(Kind::And, 5), 5);
  EXPECT_EQ(num_inputs(Kind::Rom, 0, 6, 8), 6);
  EXPECT_EQ(num_inputs(Kind::Ram, 0, 4, 8), 2 + 4 + 8 + 4);
  EXPECT_EQ(num_outputs(Kind::Ram, 4, 8), 8);
  EXPECT_EQ(num_outputs(Kind::And), 1);
}

TEST(Kinds, RamPinNames) {
  EXPECT_EQ(input_pin_name(Kind::Ram, 0, 2, 4), "CK");
  EXPECT_EQ(input_pin_name(Kind::Ram, 1, 2, 4), "WE");
  EXPECT_EQ(input_pin_name(Kind::Ram, 2, 2, 4), "WA0");
  EXPECT_EQ(input_pin_name(Kind::Ram, 4, 2, 4), "WD0");
  EXPECT_EQ(input_pin_name(Kind::Ram, 8, 2, 4), "RA0");
  EXPECT_EQ(output_pin_name(Kind::Ram, 3, 2, 4), "RD3");
}

TEST(Tech, Generic90Loads) {
  const Tech& t = Tech::generic90();
  EXPECT_EQ(t.name(), "generic90");
  EXPECT_GT(t.spec(Kind::Inv).delay, 0);
  EXPECT_GT(t.spec(Kind::Dff).area, t.spec(Kind::Inv).area);
  EXPECT_GT(t.delay_unit(), 0);
}

TEST(Tech, DelayScalesWithArityAndFanout) {
  const Tech& t = Tech::generic90();
  EXPECT_GT(t.delay(Kind::And, 4, 1), t.delay(Kind::And, 2, 1));
  EXPECT_GT(t.delay(Kind::And, 2, 8), t.delay(Kind::And, 2, 1));
  EXPECT_EQ(t.delay(Kind::Inv, 1, 1), t.spec(Kind::Inv).delay);
}

TEST(Tech, MacroAreaScalesWithBits) {
  const Tech& t = Tech::generic90();
  Um2 rom_small = t.area(Kind::Rom, 4, 4, 8);   // 16 x 8
  Um2 rom_big = t.area(Kind::Rom, 5, 5, 8);     // 32 x 8
  EXPECT_DOUBLE_EQ(rom_big, 2.0 * rom_small);
  EXPECT_GT(t.area(Kind::Ram, 4, 4, 8), t.area(Kind::Rom, 4, 4, 8));
}

TEST(Liberty, RejectsMalformed) {
  EXPECT_THROW(parse_liberty("module x {}"), Error);
  EXPECT_THROW(parse_liberty("library x { cell BOGUS { delay 1 } }"), Error);
  EXPECT_THROW(parse_liberty("library x { voltage }"), Error);
  // Missing cells.
  EXPECT_THROW(parse_liberty("library x { voltage 1.0 }"), Error);
}

TEST(Liberty, ParsesCommentsAndValues) {
  std::string text(generic90_liberty_text());
  Tech t = parse_liberty(text);
  EXPECT_EQ(t.name(), "generic90");
  EXPECT_DOUBLE_EQ(t.voltage(), 1.0);
  EXPECT_EQ(t.spec(Kind::Delay).delay, 120);
  EXPECT_EQ(t.dff_setup(), 45);
  EXPECT_EQ(t.latch_setup(), 30);
}

TEST(Liberty, DuplicateCellRejected) {
  std::string text = "library x { cell INV { delay 1 } cell INV { delay 2 } }";
  EXPECT_THROW(parse_liberty(text), Error);
}

}  // namespace
}  // namespace desyn::cell

namespace desyn::cell {
namespace {

TEST(Tech, ClockEnergyAndGlobalWireFactorParsed) {
  const Tech& t = Tech::generic90();
  EXPECT_GT(t.spec(Kind::Dff).clock_energy, 0.0);
  EXPECT_DOUBLE_EQ(t.spec(Kind::Dff).clock_energy,
                   2.0 * t.spec(Kind::Latch).clock_energy);
  EXPECT_DOUBLE_EQ(t.spec(Kind::And).clock_energy, 0.0);
  EXPECT_GT(t.global_wire_factor(), 1.0);
}

TEST(Liberty, CustomClockEnergyAccepted) {
  std::string text(generic90_liberty_text());
  // Patch the DFF clock energy and reparse.
  size_t pos = text.find("clock_energy 2.6");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 16, "clock_energy 9.9");
  Tech t = parse_liberty(text);
  EXPECT_DOUBLE_EQ(t.spec(Kind::Dff).clock_energy, 9.9);
}

}  // namespace
}  // namespace desyn::cell
