#include "cell/cells.h"

namespace desyn::cell {

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::TieLo: return "TIELO";
    case Kind::TieHi: return "TIEHI";
    case Kind::Buf: return "BUF";
    case Kind::Inv: return "INV";
    case Kind::Delay: return "DELAY";
    case Kind::And: return "AND";
    case Kind::Nand: return "NAND";
    case Kind::Or: return "OR";
    case Kind::Nor: return "NOR";
    case Kind::Xor: return "XOR";
    case Kind::Xnor: return "XNOR";
    case Kind::Mux2: return "MUX2";
    case Kind::Aoi21: return "AOI21";
    case Kind::Oai21: return "OAI21";
    case Kind::CElem: return "CELEM";
    case Kind::Gc: return "GC";
    case Kind::Latch: return "LATCH";
    case Kind::LatchN: return "LATCHN";
    case Kind::Dff: return "DFF";
    case Kind::Rom: return "ROM";
    case Kind::Ram: return "RAM";
  }
  return "?";
}

bool is_combinational(Kind k) {
  switch (k) {
    case Kind::TieLo:
    case Kind::TieHi:
    case Kind::Buf:
    case Kind::Inv:
    case Kind::Delay:
    case Kind::And:
    case Kind::Nand:
    case Kind::Or:
    case Kind::Nor:
    case Kind::Xor:
    case Kind::Xnor:
    case Kind::Mux2:
    case Kind::Aoi21:
    case Kind::Oai21:
    case Kind::Rom:
      return true;
    default:
      return false;
  }
}

bool is_variable_arity(Kind k) {
  switch (k) {
    case Kind::And:
    case Kind::Nand:
    case Kind::Or:
    case Kind::Nor:
    case Kind::CElem:
      return true;
    default:
      return false;
  }
}

bool is_storage(Kind k) {
  return k == Kind::Latch || k == Kind::LatchN || k == Kind::Dff ||
         k == Kind::Ram;
}

bool is_state_holding(Kind k) { return k == Kind::CElem || k == Kind::Gc; }

int num_inputs(Kind k, int arity, int p0, int p1) {
  switch (k) {
    case Kind::TieLo:
    case Kind::TieHi:
      return 0;
    case Kind::Buf:
    case Kind::Inv:
    case Kind::Delay:
      return 1;
    case Kind::Xor:
    case Kind::Xnor:
    case Kind::Gc:
      return 2;
    case Kind::Mux2:
    case Kind::Aoi21:
    case Kind::Oai21:
      return 3;
    case Kind::And:
    case Kind::Nand:
    case Kind::Or:
    case Kind::Nor:
    case Kind::CElem:
      DESYN_ASSERT(arity >= 2 && arity <= kMaxArity);
      return arity;
    case Kind::Latch:
    case Kind::LatchN:
    case Kind::Dff:
      return 2;
    case Kind::Rom:
      return p0;
    case Kind::Ram:
      return 2 + p0 + p1 + p0;  // CK, WE, WA, WD, RA
  }
  return 0;
}

int num_outputs(Kind k, int p0, int p1) {
  (void)p0;
  switch (k) {
    case Kind::Rom:
    case Kind::Ram:
      return p1;
    default:
      return 1;
  }
}

std::string input_pin_name(Kind k, int i, int p0, int p1) {
  switch (k) {
    case Kind::Buf:
    case Kind::Inv:
    case Kind::Delay:
      return "A";
    case Kind::Mux2:
      return i == 0 ? "A" : (i == 1 ? "B" : "S");
    case Kind::Aoi21:
    case Kind::Oai21:
      return std::string(1, static_cast<char>('A' + i));
    case Kind::Gc:
      return i == 0 ? "S" : "R";
    case Kind::Latch:
    case Kind::LatchN:
      return i == 0 ? "D" : "EN";
    case Kind::Dff:
      return i == 0 ? "D" : "CK";
    case Kind::Rom:
      return cat("A", i);
    case Kind::Ram: {
      if (i == 0) return "CK";
      if (i == 1) return "WE";
      i -= 2;
      if (i < p0) return cat("WA", i);
      i -= p0;
      if (i < p1) return cat("WD", i);
      i -= p1;
      return cat("RA", i);
    }
    default:
      return cat("A", i);
  }
}

std::string output_pin_name(Kind k, int o, int p0, int p1) {
  (void)p0;
  (void)p1;
  switch (k) {
    case Kind::Latch:
    case Kind::LatchN:
    case Kind::Dff:
      return "Q";
    case Kind::Rom:
      return cat("D", o);
    case Kind::Ram:
      return cat("RD", o);
    default:
      return o == 0 ? "Y" : cat("Y", o);
  }
}

}  // namespace desyn::cell
