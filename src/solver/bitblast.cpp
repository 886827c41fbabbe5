#include "solver/bitblast.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace vsd::solver {

using bv::ExprRef;
using bv::Kind;
using sat::Lit;

BitBlaster::BitBlaster(sat::SatSolver& solver) : solver_(solver) {
  const sat::Var t = solver_.new_var();
  true_lit_ = Lit(t, false);
  solver_.add_clause({true_lit_});
}

Lit BitBlaster::fresh() { return Lit(solver_.new_var(), false); }

Lit BitBlaster::gate_and(Lit a, Lit b) {
  if (a == false_lit() || b == false_lit()) return false_lit();
  if (a == true_lit()) return b;
  if (b == true_lit()) return a;
  if (a == b) return a;
  if (a == ~b) return false_lit();
  const Lit o = fresh();
  solver_.add_clause({~a, ~b, o});
  solver_.add_clause({a, ~o});
  solver_.add_clause({b, ~o});
  return o;
}

Lit BitBlaster::gate_or(Lit a, Lit b) { return ~gate_and(~a, ~b); }

Lit BitBlaster::gate_xor(Lit a, Lit b) {
  if (a == false_lit()) return b;
  if (b == false_lit()) return a;
  if (a == true_lit()) return ~b;
  if (b == true_lit()) return ~a;
  if (a == b) return false_lit();
  if (a == ~b) return true_lit();
  const Lit o = fresh();
  solver_.add_clause({~a, ~b, ~o});
  solver_.add_clause({a, b, ~o});
  solver_.add_clause({~a, b, o});
  solver_.add_clause({a, ~b, o});
  return o;
}

Lit BitBlaster::gate_mux(Lit sel, Lit t, Lit f) {
  if (sel == true_lit()) return t;
  if (sel == false_lit()) return f;
  if (t == f) return t;
  if (t == true_lit() && f == false_lit()) return sel;
  if (t == false_lit() && f == true_lit()) return ~sel;
  const Lit o = fresh();
  solver_.add_clause({~sel, ~t, o});
  solver_.add_clause({~sel, t, ~o});
  solver_.add_clause({sel, ~f, o});
  solver_.add_clause({sel, f, ~o});
  return o;
}

Lit BitBlaster::gate_and_all(const Bits& ls) {
  Lit acc = true_lit();
  for (const Lit l : ls) acc = gate_and(acc, l);
  return acc;
}

Lit BitBlaster::gate_or_all(const Bits& ls) {
  Lit acc = false_lit();
  for (const Lit l : ls) acc = gate_or(acc, l);
  return acc;
}

BitBlaster::Bits BitBlaster::ripple_add(const Bits& a, const Bits& b,
                                        Lit carry_in) {
  assert(a.size() == b.size());
  Bits out(a.size(), false_lit());
  Lit carry = carry_in;
  for (size_t i = 0; i < a.size(); ++i) {
    const Lit axb = gate_xor(a[i], b[i]);
    out[i] = gate_xor(axb, carry);
    // carry' = (a & b) | (carry & (a ^ b))
    carry = gate_or(gate_and(a[i], b[i]), gate_and(carry, axb));
  }
  return out;
}

BitBlaster::Bits BitBlaster::negate(const Bits& a) {
  Bits na(a.size());
  for (size_t i = 0; i < a.size(); ++i) na[i] = ~a[i];
  Bits zero(a.size(), false_lit());
  return ripple_add(na, zero, true_lit());
}

BitBlaster::Bits BitBlaster::multiply(const Bits& a, const Bits& b) {
  const size_t w = a.size();
  Bits acc(w, false_lit());
  for (size_t i = 0; i < w; ++i) {
    // Partial product: (a << i) masked by b[i].
    Bits row(w, false_lit());
    for (size_t j = i; j < w; ++j) row[j] = gate_and(a[j - i], b[i]);
    acc = ripple_add(acc, row, false_lit());
  }
  return acc;
}

void BitBlaster::divide(const Bits& a, const Bits& b, Bits& q, Bits& r) {
  const size_t w = a.size();
  // Restoring long division from MSB to LSB over fresh remainder chains.
  // rem starts at 0; at each step rem = (rem << 1) | a[i]; if rem >= b then
  // rem -= b and q[i] = 1. All arithmetic stays within w bits because
  // rem < b <= 2^w - 1 at every step when b != 0.
  Bits rem(w, false_lit());
  q.assign(w, false_lit());
  for (size_t step = 0; step < w; ++step) {
    const size_t i = w - 1 - step;
    // rem = (rem << 1) | a[i]
    Bits shifted(w, false_lit());
    for (size_t j = w - 1; j >= 1; --j) shifted[j] = rem[j - 1];
    shifted[0] = a[i];
    const Lit ge = ule(b, shifted);  // b <= shifted
    const Bits sub = ripple_add(shifted, [&] {
      Bits nb(w);
      for (size_t j = 0; j < w; ++j) nb[j] = ~b[j];
      return nb;
    }(), true_lit());  // shifted - b
    rem = mux_word(ge, sub, shifted);
    q[i] = ge;
  }
  // SMT-LIB semantics for b == 0: udiv = all ones, urem = a.
  Bits bz_bits(w);
  for (size_t j = 0; j < w; ++j) bz_bits[j] = ~b[j];
  const Lit b_is_zero = gate_and_all(bz_bits);
  Bits ones(w, true_lit());
  q = mux_word(b_is_zero, ones, q);
  r = mux_word(b_is_zero, a, rem);
}

BitBlaster::Bits BitBlaster::shift(const ExprRef& e, const Bits& a,
                                   const Bits& s) {
  const size_t w = a.size();
  const Kind k = e->kind();
  const Lit fill_msb = (k == Kind::AShr) ? a[w - 1] : false_lit();

  // Barrel shifter over the log2(w) meaningful bits of the shift amount.
  Bits cur = a;
  size_t stage_shift = 1;
  for (size_t bit = 0; stage_shift < w; ++bit, stage_shift <<= 1) {
    const Lit sel = s[bit];
    Bits next(w);
    for (size_t i = 0; i < w; ++i) {
      Lit shifted_bit;
      if (k == Kind::Shl) {
        shifted_bit = (i >= stage_shift) ? cur[i - stage_shift] : false_lit();
      } else {
        shifted_bit = (i + stage_shift < w) ? cur[i + stage_shift] : fill_msb;
      }
      next[i] = gate_mux(sel, shifted_bit, cur[i]);
    }
    cur = next;
  }
  // If any higher bit of the shift amount is set, the shift is >= w.
  Bits high;
  for (size_t bit = 0; bit < s.size(); ++bit) {
    if ((size_t{1} << bit) >= w || bit >= 63) high.push_back(s[bit]);
  }
  const Lit oversized = gate_or_all(high);
  Bits overflow(w, fill_msb);
  return mux_word(oversized, overflow, cur);
}

Lit BitBlaster::ult(const Bits& a, const Bits& b) {
  // LSB-to-MSB chain: lt_i = (a_i == b_i) ? lt_{i-1} : b_i.
  Lit lt = false_lit();
  for (size_t i = 0; i < a.size(); ++i) {
    const Lit eq_i = ~gate_xor(a[i], b[i]);
    lt = gate_mux(eq_i, lt, b[i]);
  }
  return lt;
}

Lit BitBlaster::ule(const Bits& a, const Bits& b) { return ~ult(b, a); }

Lit BitBlaster::equal(const Bits& a, const Bits& b) {
  Bits eqs(a.size());
  for (size_t i = 0; i < a.size(); ++i) eqs[i] = ~gate_xor(a[i], b[i]);
  return gate_and_all(eqs);
}

BitBlaster::Bits BitBlaster::mux_word(Lit sel, const Bits& t, const Bits& f) {
  assert(t.size() == f.size());
  Bits out(t.size());
  for (size_t i = 0; i < t.size(); ++i) out[i] = gate_mux(sel, t[i], f[i]);
  return out;
}

const std::vector<Lit>& BitBlaster::blast(const ExprRef& e) {
  auto it = cache_.find(e->uid());
  if (it != cache_.end()) return it->second.bits;
  const sat::Var lo = solver_.num_vars();
  Bits bits = blast_uncached(e);
  assert(bits.size() == e->width());
  const sat::VarRange vars{lo, solver_.num_vars()};
  return cache_.emplace(e->uid(), Lowering{std::move(bits), vars})
      .first->second.bits;
}

BitBlaster::Bits BitBlaster::blast_uncached(const ExprRef& e) {
  const unsigned w = e->width();
  switch (e->kind()) {
    case Kind::Const: {
      Bits out(w);
      for (unsigned i = 0; i < w; ++i) {
        out[i] = const_lit(((e->value() >> i) & 1) != 0);
      }
      return out;
    }
    case Kind::Var: {
      Bits out(w);
      for (unsigned i = 0; i < w; ++i) out[i] = fresh();
      return out;
    }
    case Kind::Not: {
      Bits a = blast(e->operand(0));
      for (auto& l : a) l = ~l;
      return a;
    }
    case Kind::Neg:
      return negate(blast(e->operand(0)));
    case Kind::Add:
      return ripple_add(blast(e->operand(0)), blast(e->operand(1)),
                        false_lit());
    case Kind::Sub: {
      Bits b = blast(e->operand(1));
      for (auto& l : b) l = ~l;
      return ripple_add(blast(e->operand(0)), b, true_lit());
    }
    case Kind::Mul:
      return multiply(blast(e->operand(0)), blast(e->operand(1)));
    case Kind::UDiv:
    case Kind::URem: {
      const bool quotient = e->kind() == Kind::UDiv;
      const ExprRef& d = e->operand(1);
      if (d->kind() == Kind::Const && std::has_single_bit(d->value())) {
        const unsigned k = static_cast<unsigned>(std::countr_zero(d->value()));
        const Bits& a = blast(e->operand(0));
        Bits out(w, false_lit());
        if (quotient) {
          std::copy(a.begin() + k, a.end(), out.begin());
        } else {
          std::copy(a.begin(), a.begin() + k, out.begin());
        }
        return out;
      }
      Bits q, r;
      divide(blast(e->operand(0)), blast(d), q, r);
      return quotient ? q : r;
    }
    case Kind::And: {
      const Bits& a = blast(e->operand(0));
      const Bits b = blast(e->operand(1));
      Bits out(w);
      for (unsigned i = 0; i < w; ++i) out[i] = gate_and(a[i], b[i]);
      return out;
    }
    case Kind::Or: {
      const Bits a = blast(e->operand(0));
      const Bits b = blast(e->operand(1));
      Bits out(w);
      for (unsigned i = 0; i < w; ++i) out[i] = gate_or(a[i], b[i]);
      return out;
    }
    case Kind::Xor: {
      const Bits a = blast(e->operand(0));
      const Bits b = blast(e->operand(1));
      Bits out(w);
      for (unsigned i = 0; i < w; ++i) out[i] = gate_xor(a[i], b[i]);
      return out;
    }
    case Kind::Shl:
    case Kind::LShr:
    case Kind::AShr:
      return shift(e, blast(e->operand(0)), blast(e->operand(1)));
    case Kind::Eq:
      return {equal(blast(e->operand(0)), blast(e->operand(1)))};
    case Kind::Ult:
      return {ult(blast(e->operand(0)), blast(e->operand(1)))};
    case Kind::Ule:
      return {ule(blast(e->operand(0)), blast(e->operand(1)))};
    case Kind::Slt: {
      // Signed compare = unsigned compare with sign bits flipped.
      Bits a = blast(e->operand(0));
      Bits b = blast(e->operand(1));
      a.back() = ~a.back();
      b.back() = ~b.back();
      return {ult(a, b)};
    }
    case Kind::Sle: {
      Bits a = blast(e->operand(0));
      Bits b = blast(e->operand(1));
      a.back() = ~a.back();
      b.back() = ~b.back();
      return {ule(a, b)};
    }
    case Kind::ZExt: {
      Bits a = blast(e->operand(0));
      a.resize(w, false_lit());
      return a;
    }
    case Kind::SExt: {
      Bits a = blast(e->operand(0));
      const Lit msb = a.back();
      a.resize(w, msb);
      return a;
    }
    case Kind::Extract: {
      const Bits& a = blast(e->operand(0));
      Bits out(w);
      for (unsigned i = 0; i < w; ++i) out[i] = a[e->extract_lo() + i];
      return out;
    }
    case Kind::Concat: {
      const Bits lo = blast(e->operand(1));
      const Bits hi = blast(e->operand(0));
      Bits out;
      out.reserve(w);
      out.insert(out.end(), lo.begin(), lo.end());
      out.insert(out.end(), hi.begin(), hi.end());
      return out;
    }
    case Kind::Ite: {
      const Lit sel = blast(e->operand(0))[0];
      return mux_word(sel, blast(e->operand(1)), blast(e->operand(2)));
    }
  }
  assert(false && "unreachable");
  return {};
}

void BitBlaster::assert_true(const ExprRef& e) {
  assert(e->width() == 1);
  const Lit l = blast(e)[0];
  solver_.add_clause({l});
}

uint64_t BitBlaster::model_value(const ExprRef& e) {
  const Bits& bits = blast(e);
  uint64_t v = 0;
  for (size_t i = 0; i < bits.size(); ++i) {
    const bool bit_val = solver_.model_value(bits[i].var());
    const bool effective = bits[i].negated() ? !bit_val : bit_val;
    if (effective) v |= uint64_t{1} << i;
  }
  return v;
}

}  // namespace vsd::solver
