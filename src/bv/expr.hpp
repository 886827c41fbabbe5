// vsd::bv — hash-consed bit-vector expression DAG.
//
// This is the term language shared by the symbolic executor (which builds
// expressions as it interprets dataplane IR) and the solver (which decides
// satisfiability of width-1 expressions). Widths range from 1 to 64 bits.
// Nodes are immutable and interned: structurally equal expressions are the
// same object, so pointer equality is structural equality and the aggressive
// constant folding in the factory functions deduplicates work globally.
//
// Nodes are immortal. Each one is a 64-byte record in a process-wide pool
// that never frees or moves it, so an ExprRef is a plain pointer-sized
// handle: copying one touches no reference count, and a handle stays valid
// for the life of the process. Memory therefore grows with the number of
// distinct nodes and variables ever built (one cache line each), which a
// long-lived process such as `vsd serve` pays for every new expression it
// sees. A hit allocates nothing.
//
// The interner is striped for the parallel walk: a node's hash picks one of
// 64 shards, each an open-addressing table behind its own mutex, so
// workers building different nodes seldom wait for each other. Every node
// lives in one arena that hands each thread 64-node blocks; uid() is the
// node's arena slot. Each thread therefore sees uids grow in the order it
// creates nodes (uids of different threads interleave), and a run in which
// one thread builds every node lays out nodes, uids and variable ids
// exactly in creation order. Node hashes depend on structure and variable
// ids only, never on the shard or the slot.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace vsd::bv {

class Expr;

// Handle to an interned node, or null. Trivially copyable; equality is node
// identity, which hash-consing makes structural equality.
class ExprRef {
 public:
  constexpr ExprRef() = default;
  constexpr ExprRef(std::nullptr_t) {}
  constexpr explicit ExprRef(const Expr* node) : node_(node) {}

  const Expr* get() const { return node_; }
  const Expr* operator->() const { return node_; }
  const Expr& operator*() const { return *node_; }
  explicit operator bool() const { return node_ != nullptr; }

  friend bool operator==(ExprRef, ExprRef) = default;
  friend bool operator==(ExprRef a, std::nullptr_t) {
    return a.node_ == nullptr;
  }

 private:
  const Expr* node_ = nullptr;
};

// Expression node kinds. Comparison kinds always produce width-1 results.
enum class Kind : uint8_t {
  Const,    // literal value
  Var,      // free variable (symbolic input byte, fresh KV read, ...)
  Not,      // bitwise complement (logical not at width 1)
  Neg,      // two's-complement negation
  Add,
  Sub,
  Mul,
  UDiv,     // unsigned division; division by zero is a *verifier event*, the
  URem,     // executor guards it, so the solver semantics never see rhs==0
  And,
  Or,
  Xor,
  Shl,      // shift amounts >= width yield 0 (LLVM-style poison avoided by
  LShr,     // defining the result; the IR verifier bounds amounts anyway)
  AShr,
  Eq,       // width-1 result
  Ult,      // unsigned less-than, width-1 result
  Ule,
  Slt,      // signed less-than, width-1 result
  Sle,
  ZExt,     // zero-extend to wider width
  SExt,     // sign-extend to wider width
  Extract,  // bits [lo .. lo+width-1] of the operand
  Concat,   // hi operand in the high bits, lo operand in the low bits
  Ite,      // if-then-else; condition has width 1
};

const char* kind_name(Kind k);
bool is_comparison(Kind k);

// Immutable interned node. Create only through the factory functions below.
class Expr {
 public:
  static constexpr size_t kMaxOperands = 3;

  Kind kind() const { return kind_; }
  unsigned width() const { return width_; }

  // Const payload.
  uint64_t value() const { return value_; }

  // Var payload.
  uint64_t var_id() const { return value_; }
  const std::string& name() const;

  // Extract payload: low bit index.
  unsigned extract_lo() const { return aux_; }

  size_t num_operands() const { return num_ops_; }
  const ExprRef& operand(size_t i) const { return ops_[i]; }
  std::span<const ExprRef> operands() const { return {ops_.data(), num_ops_}; }

  bool is_const() const { return kind_ == Kind::Const; }
  bool is_const_value(uint64_t v) const {
    return kind_ == Kind::Const && value_ == v;
  }
  bool is_true() const { return width_ == 1 && is_const_value(1); }
  bool is_false() const { return width_ == 1 && is_const_value(0); }

  size_t hash() const { return hash_; }

  // Stable per-process id useful for memo tables keyed by node identity:
  // the node's arena slot, so unique, and growing in creation order within
  // each thread.
  uint64_t uid() const { return uid_; }

  // Public only for the interner; use the mk_* factory functions. `name`
  // points into storage the pool owns (null for every kind but Var).
  Expr(Kind kind, unsigned width, uint64_t value, unsigned aux,
       const std::string* name, std::span<const ExprRef> ops, size_t hash,
       uint64_t uid);

 private:
  std::array<ExprRef, kMaxOperands> ops_;
  uint64_t value_;  // Const value or Var id
  size_t hash_;
  uint64_t uid_;
  const std::string* name_;
  Kind kind_;
  uint8_t num_ops_;
  uint16_t width_;
  uint16_t aux_;  // Extract low index
};

// One cache line per node: the pool places nodes on 64-byte boundaries.
static_assert(sizeof(Expr) <= 64);

// Masks a value to `width` bits. width must be in [1, 64].
uint64_t truncate_to_width(uint64_t v, unsigned width);
// Sign-extends the low `width` bits of v to 64 bits.
int64_t sign_extend_64(uint64_t v, unsigned width);

// --- Factory functions (all fold constants and apply local rewrites) ---

ExprRef mk_const(uint64_t value, unsigned width);
ExprRef mk_bool(bool b);
// Creates a fresh variable with a unique id; `name` is for diagnostics.
ExprRef mk_var(std::string name, unsigned width);

ExprRef mk_not(const ExprRef& a);
ExprRef mk_neg(const ExprRef& a);
ExprRef mk_add(const ExprRef& a, const ExprRef& b);
ExprRef mk_sub(const ExprRef& a, const ExprRef& b);
ExprRef mk_mul(const ExprRef& a, const ExprRef& b);
ExprRef mk_udiv(const ExprRef& a, const ExprRef& b);
ExprRef mk_urem(const ExprRef& a, const ExprRef& b);
ExprRef mk_and(const ExprRef& a, const ExprRef& b);
ExprRef mk_or(const ExprRef& a, const ExprRef& b);
ExprRef mk_xor(const ExprRef& a, const ExprRef& b);
ExprRef mk_shl(const ExprRef& a, const ExprRef& b);
ExprRef mk_lshr(const ExprRef& a, const ExprRef& b);
ExprRef mk_ashr(const ExprRef& a, const ExprRef& b);
ExprRef mk_eq(const ExprRef& a, const ExprRef& b);
ExprRef mk_ne(const ExprRef& a, const ExprRef& b);
ExprRef mk_ult(const ExprRef& a, const ExprRef& b);
ExprRef mk_ule(const ExprRef& a, const ExprRef& b);
ExprRef mk_ugt(const ExprRef& a, const ExprRef& b);
ExprRef mk_uge(const ExprRef& a, const ExprRef& b);
ExprRef mk_slt(const ExprRef& a, const ExprRef& b);
ExprRef mk_sle(const ExprRef& a, const ExprRef& b);
ExprRef mk_sgt(const ExprRef& a, const ExprRef& b);
ExprRef mk_sge(const ExprRef& a, const ExprRef& b);
ExprRef mk_zext(const ExprRef& a, unsigned width);
ExprRef mk_sext(const ExprRef& a, unsigned width);
// Extract `width` bits starting at bit `lo`.
ExprRef mk_extract(const ExprRef& a, unsigned lo, unsigned width);
ExprRef mk_concat(const ExprRef& hi, const ExprRef& lo);
ExprRef mk_ite(const ExprRef& cond, const ExprRef& a, const ExprRef& b);

// Width-1 logical helpers (operate on width-1 expressions).
ExprRef mk_land(const ExprRef& a, const ExprRef& b);
ExprRef mk_lor(const ExprRef& a, const ExprRef& b);
ExprRef mk_lnot(const ExprRef& a);
// Conjunction of a list; empty list is `true`.
ExprRef mk_land_all(std::span<const ExprRef> conjuncts);

// Number of interned non-variable nodes (diagnostics / tests), summed over
// the shards; exact once concurrent builders are done. Every node is
// immortal, so the count never falls.
size_t interned_node_count();

}  // namespace vsd::bv
