#include "pe/specializer.h"

#include <algorithm>

#include "common/bytes.h"
#include "pe/corpus.h"

namespace tempo::pe {

namespace {

// Specialization-time value.
struct SVal {
  enum class K : std::uint8_t { kInt, kRef, kRec, kDyn } k = K::kInt;
  std::int64_t v = 0;  // kInt value / kRef slot
  ExprP dyn;           // kDyn residual expression

  static SVal of_int(std::int64_t x) { return SVal{K::kInt, x, nullptr}; }
  static SVal of_ref(std::int64_t slot) { return SVal{K::kRef, slot, nullptr}; }
  static SVal of_rec() { return SVal{K::kRec, 0, nullptr}; }
  static SVal of_dyn(ExprP e) { return SVal{K::kDyn, 0, std::move(e)}; }
};

// Residual-expression classifiers for guard/store lowering.
bool is_var_named(const ExprP& e, const char* name) {
  return e && e->kind == ExprKind::kVar && e->var == name;
}
bool is_const(const ExprP& e, std::int64_t* out) {
  if (e && e->kind == ExprKind::kConst) {
    *out = e->imm;
    return true;
  }
  return false;
}
bool is_buf_load_const(const ExprP& e, std::int64_t* off) {
  if (e && e->kind == ExprKind::kBufLoad && e->a &&
      e->a->kind == ExprKind::kConst) {
    *off = e->a->imm;
    return true;
  }
  return false;
}
bool is_deref_const_slot(const ExprP& e, std::int64_t* slot) {
  if (e && e->kind == ExprKind::kDeref && e->a &&
      e->a->kind == ExprKind::kConst) {
    *slot = e->a->imm;
    return true;
  }
  return false;
}

enum class Flow : std::uint8_t { kContinue, kReturned };

class Specializer {
 public:
  Specializer(const Program& program, const SpecInput& in)
      : program_(program), in_(in) {
    fields_["x_op"] = SVal::of_int(in.xdrs.x_op);
    fields_["x_handy"] = SVal::of_int(in.xdrs.x_handy);
    fields_["x_private"] = SVal::of_int(in.xdrs.x_private);
    fields_["x_err"] = SVal::of_int(0);
  }

  Result<Plan> run(const std::string& entry) {
    const Function* fn = program_.find(entry);
    if (!fn) return Status(not_found("no function " + entry));
    Env env;
    for (const auto& p : fn->params) {
      if (p == kXdrsRecord) {
        env[p] = SVal::of_rec();
      } else if (auto it = in_.ref_params.find(p); it != in_.ref_params.end()) {
        env[p] = SVal::of_ref(it->second);
      } else if (auto is = in_.static_scalars.find(p);
                 is != in_.static_scalars.end()) {
        env[p] = SVal::of_int(is->second);
      } else if (std::find(in_.dynamic_scalars.begin(),
                           in_.dynamic_scalars.end(),
                           p) != in_.dynamic_scalars.end()) {
        env[p] = SVal::of_dyn(e_var(p));
      } else {
        return Status(invalid_argument("unbound entry parameter " + p));
      }
    }

    SVal result;
    Flow flow = Flow::kContinue;
    TEMPO_RETURN_IF_ERROR(spec_block(fn->body, env, &flow, &result));
    if (flow != Flow::kReturned || result.k != SVal::K::kInt) {
      return Status(internal_error(
          "entry did not return a static status (residual control flow "
          "escaped the plan language)"));
    }
    if (result.v != kRcOk) {
      return Status(internal_error(
          "entry returns failure under the declared static inputs"));
    }

    plan_.is_encode = (in_.xdrs.x_op == 0);
    if (plan_.is_encode) {
      const SVal& priv = fields_["x_private"];
      plan_.out_size = static_cast<std::uint32_t>(priv.v);
    }
    plan_.words_needed = static_cast<std::uint32_t>(max_slot_ + 1);
    return std::move(plan_);
  }

 private:
  using Env = std::map<std::string, SVal>;

  Status err(const std::string& what) { return internal_error(what); }

  // Residualize a specialization-time value into a residual expression.
  Result<ExprP> residualize(const SVal& v) {
    switch (v.k) {
      case SVal::K::kInt:
        return ExprP(e_const(v.v));
      case SVal::K::kDyn:
        return v.dyn;
      case SVal::K::kRef:
      case SVal::K::kRec:
        return Status(
            err("reference escaped into a dynamic computation"));
    }
    return Status(err("bad value"));
  }

  // ---- expressions -------------------------------------------------------
  Result<SVal> eval(const Expr& e, Env& env) {
    switch (e.kind) {
      case ExprKind::kConst:
        return SVal::of_int(e.imm);
      case ExprKind::kVar: {
        const auto it = env.find(e.var);
        if (it == env.end()) {
          return Status(err("unbound variable " + e.var));
        }
        return it->second;
      }
      case ExprKind::kField: {
        const auto it = fields_.find(e.field);
        if (it == fields_.end()) {
          return Status(err("unknown field " + e.field));
        }
        return it->second;
      }
      case ExprKind::kBin: {
        TEMPO_ASSIGN_OR_RETURN(a, eval(*e.a, env));
        TEMPO_ASSIGN_OR_RETURN(b, eval(*e.b, env));
        if (a.k == SVal::K::kInt && b.k == SVal::K::kInt) {
          return SVal::of_int(fold(e.op, a.v, b.v));
        }
        TEMPO_ASSIGN_OR_RETURN(ra, residualize(a));
        TEMPO_ASSIGN_OR_RETURN(rb, residualize(b));
        return SVal::of_dyn(e_bin(e.op, ra, rb));
      }
      case ExprKind::kDeref: {
        TEMPO_ASSIGN_OR_RETURN(r, eval(*e.a, env));
        if (r.k != SVal::K::kRef) {
          return Status(err("deref of non-static reference"));
        }
        max_slot_ = std::max(max_slot_, r.v);
        // Slot contents are dynamic; the slot address is static.
        return SVal::of_dyn(e_deref(e_const(r.v)));
      }
      case ExprKind::kIndex: {
        TEMPO_ASSIGN_OR_RETURN(r, eval(*e.a, env));
        TEMPO_ASSIGN_OR_RETURN(i, eval(*e.b, env));
        if (r.k != SVal::K::kRef || i.k != SVal::K::kInt) {
          return Status(err("dynamic indexing is not plan-eligible"));
        }
        return SVal::of_ref(r.v + i.v);
      }
      case ExprKind::kFieldRef: {
        TEMPO_ASSIGN_OR_RETURN(r, eval(*e.a, env));
        if (r.k != SVal::K::kRef) {
          return Status(err("field-ref of non-static reference"));
        }
        return SVal::of_ref(r.v + e.imm);
      }
      case ExprKind::kBufLoad: {
        TEMPO_ASSIGN_OR_RETURN(off, eval(*e.a, env));
        if (off.k != SVal::K::kInt) {
          return Status(err("dynamic buffer offset"));
        }
        return SVal::of_dyn(e_buf_load(e_const(off.v)));
      }
    }
    return Status(err("bad expr"));
  }

  static std::int64_t fold(BinOp op, std::int64_t a, std::int64_t b) {
    switch (op) {
      case BinOp::kAdd: return a + b;
      case BinOp::kSub: return a - b;
      case BinOp::kMul: return a * b;
      case BinOp::kLt: return a < b;
      case BinOp::kLe: return a <= b;
      case BinOp::kGt: return a > b;
      case BinOp::kGe: return a >= b;
      case BinOp::kEq: return a == b;
      case BinOp::kNe: return a != b;
      case BinOp::kAnd: return (a != 0) && (b != 0);
      case BinOp::kOr: return (a != 0) || (b != 0);
    }
    return 0;
  }

  // ---- statements ---------------------------------------------------------
  Status spec_block(const Block& b, Env& env, Flow* flow, SVal* ret) {
    for (const auto& s : b) {
      TEMPO_RETURN_IF_ERROR(spec(*s, env, flow, ret));
      if (*flow == Flow::kReturned) return Status::ok();
    }
    return Status::ok();
  }

  Status spec(const Stmt& s, Env& env, Flow* flow, SVal* ret) {
    switch (s.kind) {
      case StmtKind::kAssign: {
        TEMPO_ASSIGN_OR_RETURN(v, eval(*s.e0, env));
        env[s.var] = v;
        return Status::ok();
      }
      case StmtKind::kFieldSet: {
        TEMPO_ASSIGN_OR_RETURN(v, eval(*s.e0, env));
        if (v.k != SVal::K::kInt) {
          return err("record field '" + s.field +
                     "' would become dynamic — declare more inputs static "
                     "or fall back to the generic path");
        }
        fields_[s.field] = v;
        return Status::ok();
      }
      case StmtKind::kStoreRef: {
        TEMPO_ASSIGN_OR_RETURN(r, eval(*s.e0, env));
        TEMPO_ASSIGN_OR_RETURN(v, eval(*s.e1, env));
        if (r.k != SVal::K::kRef) {
          return err("store through non-static reference");
        }
        max_slot_ = std::max(max_slot_, r.v);
        if (v.k == SVal::K::kInt) {
          emit({POp::kSetWordConst, 0, static_cast<std::uint32_t>(r.v), 0,
                static_cast<std::uint64_t>(v.v)});
          return Status::ok();
        }
        std::int64_t off;
        if (v.k == SVal::K::kDyn && is_buf_load_const(v.dyn, &off)) {
          emit({POp::kGetWord, static_cast<std::uint32_t>(off),
                static_cast<std::uint32_t>(r.v), 0, 0});
          return Status::ok();
        }
        return err("result store outside the plan language");
      }
      case StmtKind::kBufStore: {
        TEMPO_ASSIGN_OR_RETURN(off, eval(*s.e0, env));
        TEMPO_ASSIGN_OR_RETURN(v, eval(*s.e1, env));
        if (off.k != SVal::K::kInt) return err("dynamic buffer offset");
        const auto o = static_cast<std::uint32_t>(off.v);
        if (v.k == SVal::K::kInt) {
          emit({POp::kPutConst, o, 0, 0, static_cast<std::uint64_t>(v.v)});
          return Status::ok();
        }
        std::int64_t slot;
        if (v.k == SVal::K::kDyn && is_deref_const_slot(v.dyn, &slot)) {
          emit({POp::kPutWord, o, static_cast<std::uint32_t>(slot), 0, 0});
          return Status::ok();
        }
        if (v.k == SVal::K::kDyn && is_var_named(v.dyn, kXidVar)) {
          emit({POp::kPutXid, o, 0, 0, 0});
          return Status::ok();
        }
        return err("buffer store outside the plan language");
      }
      case StmtKind::kBufStoreBytes:
      case StmtKind::kBufLoadBytes: {
        TEMPO_ASSIGN_OR_RETURN(off, eval(*s.e0, env));
        TEMPO_ASSIGN_OR_RETURN(r, eval(*s.e1, env));
        TEMPO_ASSIGN_OR_RETURN(len, eval(*s.e2, env));
        if (off.k != SVal::K::kInt || r.k != SVal::K::kRef ||
            len.k != SVal::K::kInt) {
          return err("bulk copy with dynamic geometry");
        }
        max_slot_ = std::max(
            max_slot_,
            r.v + static_cast<std::int64_t>(xdr_pad4(
                      static_cast<std::size_t>(len.v))) / 4 - 1);
        emit({s.kind == StmtKind::kBufStoreBytes ? POp::kPutBytes
                                                 : POp::kGetBytes,
              static_cast<std::uint32_t>(off.v),
              static_cast<std::uint32_t>(r.v * 4),
              static_cast<std::uint32_t>(len.v), 0});
        return Status::ok();
      }
      case StmtKind::kIf: {
        TEMPO_ASSIGN_OR_RETURN(c, eval(*s.e0, env));
        if (c.k == SVal::K::kInt) {
          // Static dispatch: the interpretation the specializer removes.
          return spec_block(c.v != 0 ? s.body : s.else_body, env, flow, ret);
        }
        if (c.k != SVal::K::kDyn) return err("condition on a reference");
        return spec_dynamic_if(s, c.dyn, env);
      }
      case StmtKind::kFor:
        return spec_for(s, env, flow, ret);
      case StmtKind::kCall: {
        const Function* callee = program_.find(s.callee);
        if (!callee) return not_found("no function " + s.callee);
        if (callee->params.size() != s.args.size()) {
          return err("arity mismatch calling " + s.callee);
        }
        if (++depth_ > 64) {
          --depth_;
          return err("call depth exceeded");
        }
        Env callee_env;
        for (std::size_t i = 0; i < s.args.size(); ++i) {
          TEMPO_ASSIGN_OR_RETURN(a, eval(*s.args[i], env));
          callee_env[callee->params[i]] = a;
        }
        // Polyvariant inlining: this body is re-specialized for every
        // distinct call context (context sensitivity).
        SVal result;
        Flow cflow = Flow::kContinue;
        Status st = spec_block(callee->body, callee_env, &cflow, &result);
        --depth_;
        TEMPO_RETURN_IF_ERROR(st);
        if (cflow != Flow::kReturned) {
          return err("function " + s.callee + " fell off the end");
        }
        // Static returns: `result` is usually a known constant even when
        // the body's stores were residualized.
        if (!s.var.empty()) env[s.var] = result;
        return Status::ok();
      }
      case StmtKind::kReturn: {
        if (s.e0) {
          TEMPO_ASSIGN_OR_RETURN(v, eval(*s.e0, env));
          *ret = v;
        } else {
          *ret = SVal::of_int(0);
        }
        *flow = Flow::kReturned;
        return Status::ok();
      }
    }
    return err("bad stmt");
  }

  // Dynamic conditional: only guard shapes are residualizable —
  //   if (<dyn cond>) return <const>;
  // The guard op's failure kind encodes the driver return-code
  // convention (kRcXidMismatch -> retry, anything else -> fallback).
  Status spec_dynamic_if(const Stmt& s, const ExprP& cond, Env& env) {
    if (!s.else_body.empty() || s.body.size() != 1 ||
        s.body[0]->kind != StmtKind::kReturn || !s.body[0]->e0 ||
        s.body[0]->e0->kind != ExprKind::kConst) {
      return err("dynamic conditional outside the guard pattern: " +
                 expr_to_string(*cond));
    }

    std::int64_t off, imm;
    if (cond->kind == ExprKind::kBin && cond->op == BinOp::kNe) {
      // load != const  -> header word validation
      if (is_buf_load_const(cond->a, &off) && is_const(cond->b, &imm)) {
        emit({POp::kGuardConstEq, static_cast<std::uint32_t>(off), 0, 0,
              static_cast<std::uint64_t>(imm)});
        return Status::ok();
      }
      // load != xid  -> stale-reply filter
      if (is_buf_load_const(cond->a, &off) &&
          is_var_named(cond->b, kXidVar)) {
        emit({POp::kGuardXid, static_cast<std::uint32_t>(off), 0, 0, 0});
        return Status::ok();
      }
      // inlen != const  -> the §6.2 expected-length guard.  On the fast
      // path the guard holds, so `inlen` becomes static from here on —
      // exactly the paper's manual rewrite, derived automatically.
      if (is_var_named(cond->a, kInlenVar) && is_const(cond->b, &imm)) {
        emit({POp::kGuardLen, 0, 0, 0, static_cast<std::uint64_t>(imm)});
        env[kInlenVar] = SVal::of_int(imm);
        plan_.expected_in = static_cast<std::uint32_t>(imm);
        return Status::ok();
      }
    }
    if (cond->kind == ExprKind::kBin && cond->op == BinOp::kGt &&
        is_buf_load_const(cond->a, &off) && is_const(cond->b, &imm) &&
        imm == 1) {
      emit({POp::kGuardBool, static_cast<std::uint32_t>(off), 0, 0, 0});
      return Status::ok();
    }
    return err("unsupported guard condition: " + expr_to_string(*cond));
  }

  // Loop specialization with the Table 4 unroll policy.
  Status spec_for(const Stmt& s, Env& env, Flow* flow, SVal* ret) {
    TEMPO_ASSIGN_OR_RETURN(from, eval(*s.e0, env));
    TEMPO_ASSIGN_OR_RETURN(to, eval(*s.e1, env));
    if (from.k != SVal::K::kInt || to.k != SVal::K::kInt) {
      return err("loop bounds are dynamic — not plan-eligible");
    }
    const std::int64_t lo = from.v, hi = to.v;
    const std::int64_t n = hi - lo;
    if (n <= 0) return Status::ok();

    auto run_iter = [&](std::int64_t i) -> Status {
      env[s.var] = SVal::of_int(i);
      TEMPO_RETURN_IF_ERROR(spec_block(s.body, env, flow, ret));
      if (*flow == Flow::kReturned) {
        return err("loop body returned during specialization");
      }
      return Status::ok();
    };

    const std::uint32_t k = in_.options.unroll_factor;
    if (k == 0 || n <= static_cast<std::int64_t>(k) ||
        n / static_cast<std::int64_t>(k) < 2) {
      for (std::int64_t i = lo; i < hi; ++i) {
        TEMPO_RETURN_IF_ERROR(run_iter(i));
      }
      return Status::ok();
    }

    const std::int64_t blocks = n / k;

    // Specialize two concrete blocks and check the residual code is
    // affine in the block number.
    const std::size_t mark0 = plan_.instrs.size();
    const std::int64_t handy0 = fields_["x_handy"].v;
    const std::int64_t priv0 = fields_["x_private"].v;
    for (std::int64_t i = lo; i < lo + k; ++i) {
      TEMPO_RETURN_IF_ERROR(run_iter(i));
    }
    const std::size_t mark1 = plan_.instrs.size();
    const std::int64_t handy1 = fields_["x_handy"].v;
    const std::int64_t priv1 = fields_["x_private"].v;
    for (std::int64_t i = lo + k; i < lo + 2 * k; ++i) {
      TEMPO_RETURN_IF_ERROR(run_iter(i));
    }
    const std::size_t mark2 = plan_.instrs.size();

    bool affine = (mark1 - mark0) == (mark2 - mark1);
    std::int64_t d_off = -1, d_word = -1;
    if (affine) {
      for (std::size_t j = 0; j < mark1 - mark0 && affine; ++j) {
        const PInstr& a = plan_.instrs[mark0 + j];
        const PInstr& b = plan_.instrs[mark1 + j];
        if (a.op != b.op || a.b != b.b || a.imm != b.imm) {
          affine = false;
          break;
        }
        const std::int64_t doff = static_cast<std::int64_t>(b.off) - a.off;
        std::int64_t dword;
        switch (a.op) {
          case POp::kPutWord:
          case POp::kGetWord:
          case POp::kSetWordConst:
            dword = static_cast<std::int64_t>(b.a) - a.a;
            break;
          case POp::kPutBytes:
          case POp::kGetBytes:
            dword = (static_cast<std::int64_t>(b.a) - a.a);
            if (dword % 4 != 0) {
              affine = false;
              dword = 0;
            } else {
              dword /= 4;
            }
            break;
          default:
            dword = (a.a == b.a) ? -1 : -2;  // require identical
            if (dword == -2) affine = false;
            dword = -1;
        }
        if (!affine) break;
        if (d_off < 0) {
          d_off = doff;
        } else if (d_off != doff) {
          affine = false;
        }
        if (dword >= 0) {
          if (d_word < 0) {
            d_word = dword;
          } else if (d_word != dword) {
            affine = false;
          }
        }
      }
    }

    // The packed-stride encoding holds 32 bits per stride; a stride that
    // does not round-trip through the shared codec must stay unrolled
    // (truncating here would silently corrupt every loop iteration).
    if (affine && d_off >= 0 &&
        (d_off > 0xFFFFFFFFll || d_word > 0xFFFFFFFFll)) {
      affine = false;
    }
    if (!affine || d_off < 0) {
      // Bail out: the two concrete blocks stay as straight-line code;
      // keep unrolling the remaining iterations the same way.
      for (std::int64_t i = lo + 2 * k; i < hi; ++i) {
        TEMPO_RETURN_IF_ERROR(run_iter(i));
      }
      return Status::ok();
    }
    if (d_word < 0) d_word = 0;

    // Collapse block 1 into a kLoop over block 0.
    std::vector<PInstr> body(plan_.instrs.begin() +
                                 static_cast<std::ptrdiff_t>(mark0),
                             plan_.instrs.begin() +
                                 static_cast<std::ptrdiff_t>(mark1));
    plan_.instrs.resize(mark0);
    PInstr loop;
    loop.op = POp::kLoop;
    loop.a = static_cast<std::uint32_t>(blocks);
    loop.b = static_cast<std::uint32_t>(body.size());
    loop.imm = pack_loop_strides(
        LoopStrides{static_cast<std::uint32_t>(d_off),
                    static_cast<std::uint32_t>(d_word)});
    plan_.instrs.push_back(loop);
    for (auto& ins : body) plan_.instrs.push_back(ins);

    // Fold the stream state forward over the blocks the loop will
    // execute at run time (we concretely executed 2 of `blocks`).
    fields_["x_handy"] =
        SVal::of_int(handy0 + (handy1 - handy0) * blocks);
    fields_["x_private"] =
        SVal::of_int(priv0 + (priv1 - priv0) * blocks);
    max_slot_ = std::max(
        max_slot_,
        static_cast<std::int64_t>(
            body.empty() ? 0
                         : (d_word * (blocks - 1) +
                            // Highest word slot touched in block 0 — by ANY
                            // slot-touching op.  Bulk copies carry a byte
                            // offset in `a` and span pad4(b) bytes, so a
                            // word-only scan undercounted words_needed for
                            // loops over opaque/bulk elements and the
                            // executor then indexed past the caller's
                            // words span (found by the JIT differential
                            // audit).
                            [&] {
                              std::int64_t m = 0;
                              for (const auto& ins : body) {
                                switch (ins.op) {
                                  case POp::kPutWord:
                                  case POp::kGetWord:
                                  case POp::kSetWordConst:
                                    m = std::max<std::int64_t>(m, ins.a);
                                    break;
                                  case POp::kPutBytes:
                                  case POp::kGetBytes:
                                    m = std::max<std::int64_t>(
                                        m, ins.a / 4 +
                                               static_cast<std::int64_t>(
                                                   xdr_pad4(ins.b)) /
                                                   4 -
                                               1);
                                    break;
                                  default:
                                    break;
                                }
                              }
                              return m;
                            }())));

    // Remainder iterations, unrolled after the loop.
    for (std::int64_t i = lo + blocks * k; i < hi; ++i) {
      TEMPO_RETURN_IF_ERROR(run_iter(i));
    }
    return Status::ok();
  }

  void emit(PInstr ins) { plan_.instrs.push_back(ins); }

  const Program& program_;
  const SpecInput& in_;
  std::map<std::string, SVal> fields_;  // the partially-static xdrs record
  Plan plan_;
  std::int64_t max_slot_ = -1;
  int depth_ = 0;
};

}  // namespace

Result<Plan> specialize(const Program& program, const std::string& entry,
                        const SpecInput& input) {
  Specializer spec(program, input);
  return spec.run(entry);
}

Result<Plan> generalize_count(const Plan& lo, const Plan& hi) {
  constexpr std::uint32_t kStep = kClassSampleHi - kClassSampleLo;
  auto refuse = [](const std::string& why) {
    return Status(invalid_argument("no class plan: " + why));
  };
  const std::size_t n = lo.instrs.size();
  if (lo.is_encode != hi.is_encode || hi.instrs.size() != n) {
    return refuse("the samples differ in shape");
  }
  // The loop that ends the plan runs one element per iteration.
  std::size_t loop = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (lo.instrs[i].op == POp::kLoop) loop = i;
  }
  if (loop == n || loop + 1 + lo.instrs[loop].b != n ||
      lo.instrs[loop].a != kClassSampleLo ||
      hi.instrs[loop].a != kClassSampleHi ||
      lo.instrs[loop].imm != hi.instrs[loop].imm ||
      lo.instrs[loop].b != hi.instrs[loop].b) {
    return refuse("no per-element loop ends the plan");
  }
  const LoopStrides s = unpack_loop_strides(lo.instrs[loop].imm);
  const std::uint32_t size_slope = s.off_stride;
  // Declared sizes must grow by exactly the loop's strides.
  const std::uint32_t lo_size = lo.is_encode ? lo.out_size : lo.expected_in;
  const std::uint32_t hi_size = hi.is_encode ? hi.out_size : hi.expected_in;
  if (size_slope == 0 ||
      std::uint64_t{lo_size} + std::uint64_t{size_slope} * kStep != hi_size ||
      std::uint64_t{lo.words_needed} + std::uint64_t{s.word_stride} * kStep !=
          hi.words_needed ||
      lo_size < std::uint64_t{size_slope} * kClassSampleLo ||
      lo.words_needed < std::uint64_t{s.word_stride} * kClassSampleLo) {
    return refuse("declared sizes are not affine in the count");
  }

  Plan out;
  out.is_encode = lo.is_encode;
  out.words_needed = lo.words_needed - s.word_stride * kClassSampleLo;
  out.words_slope = s.word_stride;
  const std::uint32_t base = lo_size - size_slope * kClassSampleLo;
  if (lo.is_encode) {
    out.out_size = base;
    out.out_slope = size_slope;
  } else {
    out.expected_in = base;
    out.in_slope = size_slope;
  }
  const POp count_op = lo.is_encode ? POp::kPutConst : POp::kGuardConstEq;
  for (std::size_t i = 0; i < n; ++i) {
    PInstr a = lo.instrs[i];
    const PInstr& b = hi.instrs[i];
    if (i == loop) {
      a.a = kCountTrip;
    } else if (i < loop && a.op == count_op && b.op == a.op &&
               a.off == b.off && a.a == b.a && a.b == b.b &&
               a.imm == kClassSampleLo && b.imm == kClassSampleHi) {
      if (out.has_count()) return refuse("a second count on one side");
      out.count_off = a.off;
      continue;  // the wrappers read or write the count word
    } else if (i < loop && a.op == POp::kGuardLen && b.op == a.op &&
               a.imm + std::uint64_t{size_slope} * kStep == b.imm &&
               a.imm >= std::uint64_t{size_slope} * kClassSampleLo) {
      a.imm -= std::uint64_t{size_slope} * kClassSampleLo;
    } else if (a.op != b.op || a.off != b.off || a.a != b.a || a.b != b.b ||
               a.imm != b.imm) {
      return refuse("the samples differ at instruction " + std::to_string(i));
    }
    out.instrs.push_back(a);
  }
  if (!out.has_count()) return refuse("no count word");
  return out;
}

}  // namespace tempo::pe
