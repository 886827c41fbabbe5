#include "bv/expr.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <new>
#include <unordered_set>
#include <vector>

namespace vsd::bv {

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::Const: return "const";
    case Kind::Var: return "var";
    case Kind::Not: return "not";
    case Kind::Neg: return "neg";
    case Kind::Add: return "add";
    case Kind::Sub: return "sub";
    case Kind::Mul: return "mul";
    case Kind::UDiv: return "udiv";
    case Kind::URem: return "urem";
    case Kind::And: return "and";
    case Kind::Or: return "or";
    case Kind::Xor: return "xor";
    case Kind::Shl: return "shl";
    case Kind::LShr: return "lshr";
    case Kind::AShr: return "ashr";
    case Kind::Eq: return "eq";
    case Kind::Ult: return "ult";
    case Kind::Ule: return "ule";
    case Kind::Slt: return "slt";
    case Kind::Sle: return "sle";
    case Kind::ZExt: return "zext";
    case Kind::SExt: return "sext";
    case Kind::Extract: return "extract";
    case Kind::Concat: return "concat";
    case Kind::Ite: return "ite";
  }
  return "?";
}

bool is_comparison(Kind k) {
  switch (k) {
    case Kind::Eq:
    case Kind::Ult:
    case Kind::Ule:
    case Kind::Slt:
    case Kind::Sle:
      return true;
    default:
      return false;
  }
}

uint64_t truncate_to_width(uint64_t v, unsigned width) {
  assert(width >= 1 && width <= 64);
  if (width == 64) return v;
  return v & ((uint64_t{1} << width) - 1);
}

int64_t sign_extend_64(uint64_t v, unsigned width) {
  assert(width >= 1 && width <= 64);
  if (width == 64) return static_cast<int64_t>(v);
  const uint64_t sign_bit = uint64_t{1} << (width - 1);
  const uint64_t masked = truncate_to_width(v, width);
  if (masked & sign_bit) {
    return static_cast<int64_t>(masked | ~((uint64_t{1} << width) - 1));
  }
  return static_cast<int64_t>(masked);
}

Expr::Expr(Kind kind, unsigned width, uint64_t value, unsigned aux,
           const std::string* name, std::span<const ExprRef> ops, size_t hash,
           uint64_t uid)
    : value_(value),
      hash_(hash),
      uid_(uid),
      name_(name),
      kind_(kind),
      num_ops_(static_cast<uint8_t>(ops.size())),
      width_(static_cast<uint16_t>(width)),
      aux_(static_cast<uint16_t>(aux)) {
  assert(ops.size() <= kMaxOperands);
  std::copy(ops.begin(), ops.end(), ops_.begin());
}

const std::string& Expr::name() const {
  static const std::string kNoName;
  return name_ != nullptr ? *name_ : kNoName;
}

namespace {

size_t hash_combine(size_t h, size_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

size_t node_hash(Kind kind, unsigned width, uint64_t value, unsigned aux,
                 std::span<const ExprRef> ops) {
  size_t h =
      hash_combine(static_cast<size_t>(kind), static_cast<size_t>(width));
  h = hash_combine(h, static_cast<size_t>(value));
  h = hash_combine(h, static_cast<size_t>(aux));
  for (const ExprRef& e : ops) h = hash_combine(h, e->hash());
  return h;
}

// Storage for one node, aligned so each node fills one cache line.
struct alignas(64) NodeStorage {
  std::byte bytes[64];
};
static_assert(sizeof(Expr) <= sizeof(NodeStorage));

// A run of free arena slots and the uid of its first one.
struct SlotRun {
  NodeStorage* next = nullptr;
  NodeStorage* end = nullptr;
  uint64_t uid = 1;
};

// The run the calling thread places its nodes in. Slots a thread leaves
// unused when it exits stay unused.
thread_local SlotRun t_block;

// Process-wide interner. Variables are never interned (each mk_var call
// mints a distinct symbol), so the tables hold every other node.
//
// Striped: a node's hash picks one of kShards shards, each an
// open-addressing table with linear probing over (hash, node) slots,
// doubled at half load, behind its own mutex, so walk workers building
// different nodes seldom wait for each other. A shard also stores the
// names of variables whose name hashes to it.
//
// One arena: every node, interned or variable, is placed in fixed-size
// chunks that are never freed or moved. A thread takes arena slots
// kBlockNodes at a time under the arena mutex and fills them without a
// lock; a node's uid is its arena slot index + 1. Blocks are carved in
// increasing order, so each thread sees uids grow in its own creation
// order, and a run where one thread builds every node places and numbers
// nodes and variables exactly in creation order.
class ExprPool {
 public:
  ExprRef intern(Kind kind, unsigned width, uint64_t value, unsigned aux,
                 std::span<const ExprRef> ops) {
    const size_t h = node_hash(kind, width, value, aux, ops);
    const uint64_t spread = spread_hash(h);
    Shard& s = shards_[spread >> (64 - kShardBits)];
    std::lock_guard<std::mutex> lock(s.mu);
    size_t i = s.home(spread);
    for (; s.slots[i].node != nullptr; i = (i + 1) & (s.slots.size() - 1)) {
      const Expr* n = s.slots[i].node;
      if (s.slots[i].hash == h && n->kind() == kind && n->width() == width &&
          n->value() == value && n->extract_lo() == aux &&
          std::ranges::equal(n->operands(), ops)) {
        return ExprRef(n);
      }
    }
    const Expr* node = place(kind, width, value, aux, nullptr, ops, h);
    s.slots[i] = Slot{h, node};
    if (2 * ++s.interned > s.slots.size()) s.grow();
    return ExprRef(node);
  }

  ExprRef fresh_var(std::string name, unsigned width) {
    const uint64_t id = next_var_id_.fetch_add(1, std::memory_order_relaxed);
    const size_t h =
        hash_combine(hash_combine(static_cast<size_t>(Kind::Var), width),
                     static_cast<size_t>(id));
    Shard& s = shards_[std::hash<std::string>{}(name) & (kShards - 1)];
    const std::string* stored;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      stored = &*s.names.insert(std::move(name)).first;
    }
    return ExprRef(place(Kind::Var, width, id, 0, stored, {}, h));
  }

  size_t size() {
    size_t total = 0;
    for (Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      total += s.interned;
    }
    return total;
  }

 private:
  static constexpr unsigned kShardBits = 6;
  static constexpr size_t kShards = size_t{1} << kShardBits;
  // 16 slots per shard: 1,024 in all before any shard grows.
  static constexpr unsigned kShardInitialLog2 = 4;
  static constexpr size_t kChunkNodes = size_t{1} << 12;
  static constexpr size_t kBlockNodes = 64;
  static_assert(kChunkNodes % kBlockNodes == 0);

  struct Slot {
    size_t hash = 0;
    const Expr* node = nullptr;
  };

  // Fibonacci hashing: spreads every bit of the node hash over the top
  // bits, which pick the shard and then the home slot within it.
  static uint64_t spread_hash(size_t h) {
    return uint64_t{h} * 0x9e3779b97f4a7c15ULL;
  }

  struct Shard {
    std::mutex mu;
    std::vector<Slot> slots = std::vector<Slot>(size_t{1} << kShardInitialLog2);
    unsigned shift = 64 - kShardInitialLog2;
    size_t interned = 0;
    std::unordered_set<std::string> names;  // node-based: pointers stay valid

    size_t home(uint64_t spread) const {
      return static_cast<size_t>((spread << kShardBits) >> shift);
    }

    void grow() {
      std::vector<Slot> old(slots.size() * 2);
      old.swap(slots);
      --shift;
      for (const Slot& s : old) {
        if (s.node == nullptr) continue;
        size_t i = home(spread_hash(s.hash));
        while (slots[i].node != nullptr) i = (i + 1) & (slots.size() - 1);
        slots[i] = s;
      }
    }
  };

  // Points `b` at the next kBlockNodes arena slots.
  void refill(SlotRun* b) {
    std::lock_guard<std::mutex> lock(arena_mu_);
    if (chunk_used_ == kChunkNodes) {
      chunks_.push_back(
          std::make_unique_for_overwrite<NodeStorage[]>(kChunkNodes));
      chunk_used_ = 0;
    }
    b->next = &chunks_.back()[chunk_used_];
    b->end = b->next + kBlockNodes;
    b->uid = next_uid_;
    chunk_used_ += kBlockNodes;
    next_uid_ += kBlockNodes;
  }

  // Takes the calling thread's next arena slot; no lock but on a refill.
  const Expr* place(Kind kind, unsigned width, uint64_t value, unsigned aux,
                    const std::string* name, std::span<const ExprRef> ops,
                    size_t h) {
    SlotRun& b = t_block;
    if (b.next == b.end) refill(&b);
    void* at = b.next++;
    return new (at) Expr(kind, width, value, aux, name, ops, h, b.uid++);
  }

  std::array<Shard, kShards> shards_;
  std::atomic<uint64_t> next_var_id_{1};
  std::mutex arena_mu_;  // guards the chunks and next_uid_
  std::vector<std::unique_ptr<NodeStorage[]>> chunks_;
  size_t chunk_used_ = kChunkNodes;
  uint64_t next_uid_ = 1;
};

ExprPool& pool() {
  static ExprPool* p = new ExprPool();  // intentionally immortal
  return *p;
}

ExprRef intern(Kind kind, unsigned width, std::initializer_list<ExprRef> ops,
               uint64_t value = 0, unsigned aux = 0) {
  return pool().intern(kind, width, value, aux, ops);
}

bool same(const ExprRef& a, const ExprRef& b) { return a == b; }

uint64_t all_ones(unsigned width) { return truncate_to_width(~uint64_t{0}, width); }

}  // namespace

size_t interned_node_count() { return pool().size(); }

ExprRef mk_const(uint64_t value, unsigned width) {
  assert(width >= 1 && width <= 64);
  return intern(Kind::Const, width, {}, truncate_to_width(value, width));
}

ExprRef mk_bool(bool b) { return mk_const(b ? 1 : 0, 1); }

ExprRef mk_var(std::string name, unsigned width) {
  assert(width >= 1 && width <= 64);
  return pool().fresh_var(std::move(name), width);
}

ExprRef mk_not(const ExprRef& a) {
  if (a->is_const()) return mk_const(~a->value(), a->width());
  if (a->kind() == Kind::Not) return a->operand(0);
  // De Morgan on width-1 keeps boolean structure shallow for the solver.
  if (a->width() == 1 && a->kind() == Kind::Ite) {
    return mk_ite(a->operand(0), mk_not(a->operand(1)), mk_not(a->operand(2)));
  }
  return intern(Kind::Not, a->width(), {a});
}

ExprRef mk_neg(const ExprRef& a) {
  if (a->is_const()) return mk_const(-a->value(), a->width());
  if (a->kind() == Kind::Neg) return a->operand(0);
  return intern(Kind::Neg, a->width(), {a});
}

ExprRef mk_add(const ExprRef& a, const ExprRef& b) {
  assert(a->width() == b->width());
  if (a->is_const() && b->is_const())
    return mk_const(a->value() + b->value(), a->width());
  if (a->is_const_value(0)) return b;
  if (b->is_const_value(0)) return a;
  // Canonicalize constants to the right so (x+c1)+c2 folds.
  if (a->is_const() && !b->is_const()) return mk_add(b, a);
  if (b->is_const() && a->kind() == Kind::Add && a->operand(1)->is_const()) {
    return mk_add(a->operand(0),
                  mk_const(a->operand(1)->value() + b->value(), a->width()));
  }
  return intern(Kind::Add, a->width(), {a, b});
}

ExprRef mk_sub(const ExprRef& a, const ExprRef& b) {
  assert(a->width() == b->width());
  if (a->is_const() && b->is_const())
    return mk_const(a->value() - b->value(), a->width());
  if (b->is_const_value(0)) return a;
  if (same(a, b)) return mk_const(0, a->width());
  if (b->is_const()) return mk_add(a, mk_const(-b->value(), a->width()));
  return intern(Kind::Sub, a->width(), {a, b});
}

ExprRef mk_mul(const ExprRef& a, const ExprRef& b) {
  assert(a->width() == b->width());
  if (a->is_const() && b->is_const())
    return mk_const(a->value() * b->value(), a->width());
  if (a->is_const_value(0) || b->is_const_value(0))
    return mk_const(0, a->width());
  if (a->is_const_value(1)) return b;
  if (b->is_const_value(1)) return a;
  if (a->is_const() && !b->is_const()) return mk_mul(b, a);
  return intern(Kind::Mul, a->width(), {a, b});
}

ExprRef mk_udiv(const ExprRef& a, const ExprRef& b) {
  assert(a->width() == b->width());
  if (a->is_const() && b->is_const() && b->value() != 0)
    return mk_const(a->value() / b->value(), a->width());
  if (b->is_const_value(1)) return a;
  return intern(Kind::UDiv, a->width(), {a, b});
}

ExprRef mk_urem(const ExprRef& a, const ExprRef& b) {
  assert(a->width() == b->width());
  if (a->is_const() && b->is_const() && b->value() != 0)
    return mk_const(a->value() % b->value(), a->width());
  if (b->is_const_value(1)) return mk_const(0, a->width());
  return intern(Kind::URem, a->width(), {a, b});
}

ExprRef mk_and(const ExprRef& a, const ExprRef& b) {
  assert(a->width() == b->width());
  if (a->is_const() && b->is_const())
    return mk_const(a->value() & b->value(), a->width());
  if (a->is_const_value(0) || b->is_const_value(0))
    return mk_const(0, a->width());
  if (a->is_const_value(all_ones(a->width()))) return b;
  if (b->is_const_value(all_ones(a->width()))) return a;
  if (same(a, b)) return a;
  return intern(Kind::And, a->width(), {a, b});
}

ExprRef mk_or(const ExprRef& a, const ExprRef& b) {
  assert(a->width() == b->width());
  if (a->is_const() && b->is_const())
    return mk_const(a->value() | b->value(), a->width());
  if (a->is_const_value(0)) return b;
  if (b->is_const_value(0)) return a;
  if (a->is_const_value(all_ones(a->width()))) return a;
  if (b->is_const_value(all_ones(a->width()))) return b;
  if (same(a, b)) return a;
  return intern(Kind::Or, a->width(), {a, b});
}

ExprRef mk_xor(const ExprRef& a, const ExprRef& b) {
  assert(a->width() == b->width());
  if (a->is_const() && b->is_const())
    return mk_const(a->value() ^ b->value(), a->width());
  if (a->is_const_value(0)) return b;
  if (b->is_const_value(0)) return a;
  if (same(a, b)) return mk_const(0, a->width());
  if (a->is_const_value(all_ones(a->width()))) return mk_not(b);
  if (b->is_const_value(all_ones(a->width()))) return mk_not(a);
  return intern(Kind::Xor, a->width(), {a, b});
}

namespace {
ExprRef mk_shift(Kind kind, const ExprRef& a, const ExprRef& b) {
  const unsigned w = a->width();
  if (b->is_const()) {
    const uint64_t s = b->value();
    if (s == 0) return a;
    if (a->is_const()) {
      if (s >= w) {
        if (kind == Kind::AShr) {
          const bool neg = sign_extend_64(a->value(), w) < 0;
          return mk_const(neg ? all_ones(w) : 0, w);
        }
        return mk_const(0, w);
      }
      switch (kind) {
        case Kind::Shl: return mk_const(a->value() << s, w);
        case Kind::LShr: return mk_const(truncate_to_width(a->value(), w) >> s, w);
        case Kind::AShr:
          return mk_const(
              static_cast<uint64_t>(sign_extend_64(a->value(), w) >>
                                    static_cast<int64_t>(s)),
              w);
        default: break;
      }
    }
    if (s >= w && kind != Kind::AShr) return mk_const(0, w);
  }
  return intern(kind, w, {a, b});
}
}  // namespace

ExprRef mk_shl(const ExprRef& a, const ExprRef& b) {
  assert(a->width() == b->width());
  return mk_shift(Kind::Shl, a, b);
}
ExprRef mk_lshr(const ExprRef& a, const ExprRef& b) {
  assert(a->width() == b->width());
  return mk_shift(Kind::LShr, a, b);
}
ExprRef mk_ashr(const ExprRef& a, const ExprRef& b) {
  assert(a->width() == b->width());
  return mk_shift(Kind::AShr, a, b);
}

ExprRef mk_eq(const ExprRef& a, const ExprRef& b) {
  assert(a->width() == b->width());
  if (a->is_const() && b->is_const()) return mk_bool(a->value() == b->value());
  if (same(a, b)) return mk_bool(true);
  if (a->width() == 1) {
    // Width-1 equality is xnor; normalize toward not/identity forms.
    if (a->is_true()) return b;
    if (a->is_false()) return mk_not(b);
    if (b->is_true()) return a;
    if (b->is_false()) return mk_not(a);
  }
  // eq(ite(c, k1, k2), k) with distinct constants folds to c or !c.
  const ExprRef* ite = nullptr;
  const ExprRef* k = nullptr;
  if (a->kind() == Kind::Ite && b->is_const()) { ite = &a; k = &b; }
  else if (b->kind() == Kind::Ite && a->is_const()) { ite = &b; k = &a; }
  if (ite != nullptr) {
    const ExprRef& t = (*ite)->operand(1);
    const ExprRef& f = (*ite)->operand(2);
    if (t->is_const() && f->is_const()) {
      const bool t_hit = t->value() == (*k)->value();
      const bool f_hit = f->value() == (*k)->value();
      if (t_hit && f_hit) return mk_bool(true);
      if (t_hit) return (*ite)->operand(0);
      if (f_hit) return mk_not((*ite)->operand(0));
      return mk_bool(false);
    }
  }
  // Canonicalize constant to the right for interning stability.
  if (a->is_const() && !b->is_const()) return intern(Kind::Eq, 1, {b, a});
  return intern(Kind::Eq, 1, {a, b});
}

ExprRef mk_ne(const ExprRef& a, const ExprRef& b) { return mk_not(mk_eq(a, b)); }

ExprRef mk_ult(const ExprRef& a, const ExprRef& b) {
  assert(a->width() == b->width());
  if (a->is_const() && b->is_const()) return mk_bool(a->value() < b->value());
  if (same(a, b)) return mk_bool(false);
  if (b->is_const_value(0)) return mk_bool(false);        // x < 0 (unsigned)
  if (a->is_const_value(all_ones(a->width()))) return mk_bool(false);
  if (b->is_const_value(1)) return mk_eq(a, mk_const(0, a->width()));
  return intern(Kind::Ult, 1, {a, b});
}

ExprRef mk_ule(const ExprRef& a, const ExprRef& b) {
  assert(a->width() == b->width());
  if (a->is_const() && b->is_const()) return mk_bool(a->value() <= b->value());
  if (same(a, b)) return mk_bool(true);
  if (a->is_const_value(0)) return mk_bool(true);
  if (b->is_const_value(all_ones(b->width()))) return mk_bool(true);
  return intern(Kind::Ule, 1, {a, b});
}

ExprRef mk_ugt(const ExprRef& a, const ExprRef& b) { return mk_ult(b, a); }
ExprRef mk_uge(const ExprRef& a, const ExprRef& b) { return mk_ule(b, a); }

ExprRef mk_slt(const ExprRef& a, const ExprRef& b) {
  assert(a->width() == b->width());
  if (a->is_const() && b->is_const()) {
    return mk_bool(sign_extend_64(a->value(), a->width()) <
                   sign_extend_64(b->value(), b->width()));
  }
  if (same(a, b)) return mk_bool(false);
  // zext(x) is always non-negative: zext(x) < 0 is false, 0 <= zext(x) true.
  if (a->kind() == Kind::ZExt && a->operand(0)->width() < a->width() &&
      b->is_const() && sign_extend_64(b->value(), b->width()) <= 0) {
    if (sign_extend_64(b->value(), b->width()) == 0) return mk_bool(false);
    return mk_bool(false);
  }
  return intern(Kind::Slt, 1, {a, b});
}

ExprRef mk_sle(const ExprRef& a, const ExprRef& b) {
  assert(a->width() == b->width());
  if (a->is_const() && b->is_const()) {
    return mk_bool(sign_extend_64(a->value(), a->width()) <=
                   sign_extend_64(b->value(), b->width()));
  }
  if (same(a, b)) return mk_bool(true);
  return intern(Kind::Sle, 1, {a, b});
}

ExprRef mk_sgt(const ExprRef& a, const ExprRef& b) { return mk_slt(b, a); }
ExprRef mk_sge(const ExprRef& a, const ExprRef& b) { return mk_sle(b, a); }

ExprRef mk_zext(const ExprRef& a, unsigned width) {
  assert(width >= a->width() && width <= 64);
  if (width == a->width()) return a;
  if (a->is_const()) return mk_const(a->value(), width);
  if (a->kind() == Kind::ZExt) return mk_zext(a->operand(0), width);
  return intern(Kind::ZExt, width, {a});
}

ExprRef mk_sext(const ExprRef& a, unsigned width) {
  assert(width >= a->width() && width <= 64);
  if (width == a->width()) return a;
  if (a->is_const()) {
    return mk_const(static_cast<uint64_t>(sign_extend_64(a->value(), a->width())),
                    width);
  }
  return intern(Kind::SExt, width, {a});
}

ExprRef mk_extract(const ExprRef& a, unsigned lo, unsigned width) {
  assert(width >= 1);
  assert(lo + width <= a->width());
  if (lo == 0 && width == a->width()) return a;
  if (a->is_const()) {
    return mk_const(truncate_to_width(a->value(), a->width()) >> lo, width);
  }
  if (a->kind() == Kind::Extract) {
    return mk_extract(a->operand(0), a->extract_lo() + lo, width);
  }
  if (a->kind() == Kind::ZExt) {
    const ExprRef& inner = a->operand(0);
    if (lo >= inner->width()) return mk_const(0, width);
    if (lo + width <= inner->width()) return mk_extract(inner, lo, width);
  }
  if (a->kind() == Kind::Concat) {
    const ExprRef& hi = a->operand(0);
    const ExprRef& lo_op = a->operand(1);
    if (lo + width <= lo_op->width()) return mk_extract(lo_op, lo, width);
    if (lo >= lo_op->width())
      return mk_extract(hi, lo - lo_op->width(), width);
  }
  return intern(Kind::Extract, width, {a}, 0, lo);
}

ExprRef mk_concat(const ExprRef& hi, const ExprRef& lo) {
  const unsigned w = hi->width() + lo->width();
  assert(w <= 64);
  if (hi->is_const() && lo->is_const()) {
    return mk_const((hi->value() << lo->width()) |
                        truncate_to_width(lo->value(), lo->width()),
                    w);
  }
  if (hi->is_const_value(0)) return mk_zext(lo, w);
  // concat(extract(x, k+m, n), extract(x, k, m)) == extract(x, k, n+m)
  if (hi->kind() == Kind::Extract && lo->kind() == Kind::Extract &&
      hi->operand(0).get() == lo->operand(0).get() &&
      hi->extract_lo() == lo->extract_lo() + lo->width()) {
    return mk_extract(hi->operand(0), lo->extract_lo(), w);
  }
  return intern(Kind::Concat, w, {hi, lo});
}

ExprRef mk_ite(const ExprRef& cond, const ExprRef& a, const ExprRef& b) {
  assert(cond->width() == 1);
  assert(a->width() == b->width());
  if (cond->is_true()) return a;
  if (cond->is_false()) return b;
  if (a.get() == b.get()) return a;
  if (a->width() == 1) {
    if (a->is_true() && b->is_false()) return cond;
    if (a->is_false() && b->is_true()) return mk_not(cond);
    if (a->is_false()) return mk_land(mk_lnot(cond), b);
    if (b->is_false()) return mk_land(cond, a);
    if (a->is_true()) return mk_lor(cond, b);
    if (b->is_true()) return mk_lor(mk_lnot(cond), a);
  }
  if (cond->kind() == Kind::Not) return mk_ite(cond->operand(0), b, a);
  return intern(Kind::Ite, a->width(), {cond, a, b});
}

ExprRef mk_land(const ExprRef& a, const ExprRef& b) {
  assert(a->width() == 1 && b->width() == 1);
  // Contradiction detection: a && !a.
  if ((a->kind() == Kind::Not && a->operand(0).get() == b.get()) ||
      (b->kind() == Kind::Not && b->operand(0).get() == a.get())) {
    return mk_bool(false);
  }
  return mk_and(a, b);
}

ExprRef mk_lor(const ExprRef& a, const ExprRef& b) {
  assert(a->width() == 1 && b->width() == 1);
  if ((a->kind() == Kind::Not && a->operand(0).get() == b.get()) ||
      (b->kind() == Kind::Not && b->operand(0).get() == a.get())) {
    return mk_bool(true);
  }
  return mk_or(a, b);
}

ExprRef mk_lnot(const ExprRef& a) {
  assert(a->width() == 1);
  return mk_not(a);
}

ExprRef mk_land_all(std::span<const ExprRef> conjuncts) {
  ExprRef acc = mk_bool(true);
  for (const auto& c : conjuncts) {
    acc = mk_land(acc, c);
    if (acc->is_false()) return acc;
  }
  return acc;
}

}  // namespace vsd::bv
