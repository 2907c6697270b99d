// Cell kinds and logic evaluation.
//
// The library is deliberately small but covers everything the
// desynchronization flow needs: a standard combinational family, the
// asynchronous-control primitives (Muller C-element, generalized C), level
// latches of both polarities, D flip-flops, tie cells, an explicit DELAY
// buffer used to build matched-delay lines, and behavioral ROM/RAM macros
// (the equivalent of the SRAM macros a commercial flow would place).
//
// Gate evaluation exists once, inline in this header: eval_comb and
// eval_state_holding are templates over an input accessor, so the
// simulator reads its net values in place and every other caller passes
// a span of values through the same code.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "base/common.h"

namespace desyn::cell {

enum class Kind : uint8_t {
  TieLo,   // -> Y = 0
  TieHi,   // -> Y = 1
  Buf,     // A -> Y
  Inv,     // A -> Y
  Delay,   // A -> Y   (a buffer with a deliberately long, well-known delay)
  And,     // A0..A{n-1} -> Y, 2 <= n <= 8
  Nand,    // "
  Or,      // "
  Nor,     // "
  Xor,     // A0,A1 -> Y
  Xnor,    // A0,A1 -> Y
  Mux2,    // A,B,S -> Y = S ? B : A
  Aoi21,   // A,B,C -> Y = !((A&B)|C)
  Oai21,   // A,B,C -> Y = !((A|B)&C)
  CElem,   // A0..A{n-1} -> Y: rises when all 1, falls when all 0, else holds
  Gc,      // S,R -> Y: rises on S, falls on R, holds otherwise (set/reset
           //            simultaneously asserted is a protocol hazard -> X)
  Latch,   // D,EN -> Q: transparent when EN=1
  LatchN,  // D,EN -> Q: transparent when EN=0
  Dff,     // D,CK -> Q: rising edge
  Rom,     // A0..A{p0-1} -> D0..D{p1-1}; combinational; payload = contents
  Ram,     // CK,WE,WA..,WD..,RA.. -> RD..; async read, sync write on CK rise
};

constexpr int kMaxArity = 8;

/// Three-valued logic. X models unknown/uninitialized state.
enum class V : uint8_t { V0 = 0, V1 = 1, VX = 2 };

inline V from_bool(bool b) { return b ? V::V1 : V::V0; }
inline char to_char(V v) { return v == V::V0 ? '0' : (v == V::V1 ? '1' : 'x'); }

const char* kind_name(Kind k);

/// True for cells whose output depends only on current inputs.
bool is_combinational(Kind k);
/// True for kinds whose instances carry a per-instance arity (written as a
/// numeric type suffix, e.g. "AND3"). The single source of truth for the
/// Verilog writer and reader.
bool is_variable_arity(Kind k);
/// True for cells with internal state updated by the simulator (latches,
/// flip-flops, RAM write port).
bool is_storage(Kind k);
/// True for C-elements / gC whose next output depends on the previous output.
bool is_state_holding(Kind k);
/// Latch of either polarity.
inline bool is_latch(Kind k) { return k == Kind::Latch || k == Kind::LatchN; }

/// Number of inputs a cell of kind `k` with parameters (p0, p1) has; for
/// variable-arity kinds `arity` is the instance arity.
int num_inputs(Kind k, int arity, int p0 = 0, int p1 = 0);
/// Number of outputs (1 except for memories).
int num_outputs(Kind k, int p0 = 0, int p1 = 0);

// The gate evaluator. Each template reads input i of an n-input cell as
// `in(i)`; the span overloads below wrap a value array.

namespace detail {

inline V inv(V v) {
  if (v == V::VX) return V::VX;
  return v == V::V0 ? V::V1 : V::V0;
}

// AND over three-valued inputs: 0 dominates, else X dominates, else 1.
template <class In>
V and_all(size_t n, const In& in) {
  bool any_x = false;
  for (size_t i = 0; i < n; ++i) {
    const V v = in(i);
    if (v == V::V0) return V::V0;
    if (v == V::VX) any_x = true;
  }
  return any_x ? V::VX : V::V1;
}

template <class In>
V or_all(size_t n, const In& in) {
  bool any_x = false;
  for (size_t i = 0; i < n; ++i) {
    const V v = in(i);
    if (v == V::V1) return V::V1;
    if (v == V::VX) any_x = true;
  }
  return any_x ? V::VX : V::V0;
}

inline V xor2(V a, V b) {
  if (a == V::VX || b == V::VX) return V::VX;
  return from_bool((a == V::V1) != (b == V::V1));
}

}  // namespace detail

/// Evaluate a purely combinational cell with `n` inputs, input i = in(i).
template <class In>
inline V eval_comb(Kind k, size_t n, const In& in) {
  using detail::inv;
  switch (k) {
    case Kind::TieLo: return V::V0;
    case Kind::TieHi: return V::V1;
    case Kind::Buf:
    case Kind::Delay: return in(0);
    case Kind::Inv: return inv(in(0));
    case Kind::And: return detail::and_all(n, in);
    case Kind::Nand: return inv(detail::and_all(n, in));
    case Kind::Or: return detail::or_all(n, in);
    case Kind::Nor: return inv(detail::or_all(n, in));
    case Kind::Xor: return detail::xor2(in(0), in(1));
    case Kind::Xnor: return inv(detail::xor2(in(0), in(1)));
    case Kind::Mux2: {
      const V s = in(2);
      if (s == V::V0) return in(0);
      if (s == V::V1) return in(1);
      // Unknown select: output known only if both data inputs agree.
      const V a = in(0);
      return a == in(1) ? a : V::VX;
    }
    case Kind::Aoi21: {
      const V t[2] = {detail::and_all(2, in), in(2)};
      return inv(detail::or_all(2, [&t](size_t i) { return t[i]; }));
    }
    case Kind::Oai21: {
      const V t[2] = {detail::or_all(2, in), in(2)};
      return inv(detail::and_all(2, [&t](size_t i) { return t[i]; }));
    }
    default:
      fail("eval_comb on non-combinational cell ", kind_name(k));
  }
}

/// Evaluate a purely combinational cell. `ins.size()` defines the arity.
inline V eval_comb(Kind k, std::span<const V> ins) {
  return eval_comb(k, ins.size(), [ins](size_t i) { return ins[i]; });
}

/// Evaluate a state-holding control cell (CElem/Gc) with `n` inputs,
/// input i = in(i), given its previous output.
template <class In>
inline V eval_state_holding(Kind k, size_t n, const In& in, V prev) {
  if (k == Kind::CElem) {
    bool all1 = true, all0 = true;
    for (size_t i = 0; i < n; ++i) {
      const V v = in(i);
      if (v != V::V1) all1 = false;
      if (v != V::V0) all0 = false;
    }
    if (all1) return V::V1;
    if (all0) return V::V0;
    return prev;
  }
  DESYN_ASSERT(k == Kind::Gc);
  const V s = in(0), r = in(1);
  if (s == V::V1 && r == V::V1) return V::VX;  // set/reset conflict: hazard
  if (s == V::V1) return V::V1;
  if (r == V::V1) return V::V0;
  return prev;  // holds, also under an unknown set or reset
}

/// Evaluate a state-holding control cell (CElem/Gc) given its previous output.
inline V eval_state_holding(Kind k, std::span<const V> ins, V prev) {
  return eval_state_holding(k, ins.size(), [ins](size_t i) { return ins[i]; },
                            prev);
}

/// Human-readable pin name for the writer (input index `i` or output `o`).
std::string input_pin_name(Kind k, int i, int p0 = 0, int p1 = 0);
std::string output_pin_name(Kind k, int o, int p0 = 0, int p1 = 0);

}  // namespace desyn::cell
