// Interpreter internals: the decoded-dispatch fast path and the block-level
// parallel execution engine. See the header comment and DESIGN.md section 8
// for the architecture; the short version:
//
//   decode once   — DecodeKernel turns the static instruction stream into a
//                   table of {handler fn, issue cost, static ILP, kind}. The
//                   per-issue switches over opcode, operand type, and issue
//                   cost run once per *static* instruction instead of once
//                   per *dynamic* one; the inner loop is a kind dispatch plus
//                   one indirect call with the operand rows hoisted.
//   run chunked   — the grid is split into chunks by a rule that depends only
//                   on the grid (never on the worker count); each chunk
//                   accumulates its own BlockStats in block order, partials
//                   fold in chunk order, so stats are bit-identical across
//                   worker counts, serial included.
//   real atomics  — global-space atomics are std::atomic_ref RMW on the
//                   arena, so cross-block reductions stay exact when blocks
//                   execute concurrently.
#include "vgpu/interp.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "support/math.hpp"
#include "support/str.hpp"
#include "vgpu/cost.hpp"
#include "vgpu/exec_pool.hpp"
#include "vgpu/tier.hpp"

namespace kspec::vgpu {

// Internal machinery. Deliberately *not* in an anonymous namespace:
// DecodedKernel has external linkage (it is forward-declared in the header),
// so the types it embeds must too.
namespace interp_detail {

constexpr std::uint32_t kNoReconv = 0xffffffffu;
constexpr std::uint32_t kFullMask = 0xffffffffu;

struct StackEntry {
  std::uint32_t pc;
  std::uint32_t mask;
  std::uint32_t rpc;
};

struct Warp {
  std::uint32_t pc = 0;
  std::uint32_t mask = 0;   // active lanes
  std::uint32_t live = 0;   // non-retired lanes
  std::uint32_t rpc = kNoReconv;
  std::vector<StackEntry> stack;
  enum class State { kRunnable, kAtBarrier, kDone } state = State::kRunnable;
};

class BlockRunner;

// One decoded-instruction handler. The Instr is passed alongside so handlers
// stay stateless function pointers (operand registers, immediates, and the
// compare/space/target fields live on the Instr row).
using ExecFn = void (*)(BlockRunner&, const Instr&, Warp&, unsigned lane_base);

enum class DKind : std::uint8_t {
  kBra, kBraPred, kBarSync, kExit, kMem, kAtomic, kTex, kNop, kAlu,
};

struct DecodedInstr {
  ExecFn fn = nullptr;     // kAlu only
  double issue_cost = 1.0;
  float ilp = 0.0f;
  DKind kind = DKind::kAlu;
};

// An operand with its per-lane row pointer hoisted: resolved once per
// warp-instruction instead of once per lane access.
struct LaneSrc {
  const std::uint64_t* row;  // pre-offset by lane_base; nullptr -> immediate
  std::uint64_t imm;
  std::uint64_t operator[](unsigned l) const { return row ? row[l] : imm; }
};

// Writes f(l) to dst[l] for every active lane. The full-mask case — the hot
// one by far — is a plain countable loop the compiler can unroll/vectorize.
template <typename F>
inline void StoreLanes(std::uint32_t mask, std::uint64_t* dst, F&& f) {
  if (mask == kFullMask) {
    for (unsigned l = 0; l < 32; ++l) dst[l] = f(l);
    return;
  }
  while (mask) {
    const unsigned l = static_cast<unsigned>(std::countr_zero(mask));
    mask &= mask - 1;
    dst[l] = f(l);
  }
}

template <Type TY>
struct FTraits;
template <>
struct FTraits<Type::kF32> {
  using T = float;
  static T Get(std::uint64_t v) { return DecodeF32(v); }
  static std::uint64_t Put(T v) { return EncodeF32(v); }
};
template <>
struct FTraits<Type::kF64> {
  using T = double;
  static T Get(std::uint64_t v) { return DecodeF64(v); }
  static std::uint64_t Put(T v) { return EncodeF64(v); }
};

// Integer semantics shared with the pre-decoded interpreter: arithmetic wraps;
// results are normalized to the type's width (signed 32-bit values re-encoded
// sign-extended); shifts clamp at the width; division by zero yields zero.
template <bool is64, bool sg>
inline std::uint64_t INorm(std::uint64_t v) {
  if constexpr (is64) {
    return v;
  } else {
    const std::uint32_t t = static_cast<std::uint32_t>(v);
    if constexpr (sg) return EncodeI32(static_cast<std::int32_t>(t));
    return t;
  }
}

template <bool is64>
inline std::int64_t IAsSigned(std::uint64_t v) {
  if constexpr (is64) return static_cast<std::int64_t>(v);
  return DecodeI32(v);
}

// Constexpr mirror of IsIntType (isa.cpp) for `if constexpr` template bodies.
constexpr bool IsIntTypeC(Type t) {
  return t == Type::kI32 || t == Type::kU32 || t == Type::kI64 || t == Type::kU64;
}

template <CmpOp CMP, typename T>
inline bool CmpApply(T x, T y) {
  if constexpr (CMP == CmpOp::kEq) return x == y;
  if constexpr (CMP == CmpOp::kNe) return x != y;
  if constexpr (CMP == CmpOp::kLt) return x < y;
  if constexpr (CMP == CmpOp::kLe) return x <= y;
  if constexpr (CMP == CmpOp::kGt) return x > y;
  if constexpr (CMP == CmpOp::kGe) return x >= y;
}

}  // namespace interp_detail

using namespace interp_detail;

struct DecodedKernel {
  std::string name;
  std::vector<Instr> code;
  std::vector<DecodedInstr> dec;
  std::size_t num_params = 0;
  int num_vregs = 0;
  unsigned static_smem_bytes = 0;
  int reg_count = 0;  // compile-time register demand (pre-clamp)
  // Any atomic on global space: the *returned* old values are
  // schedule-dependent, so the auto policy keeps such kernels serial.
  bool has_global_atomic = false;
};

namespace interp_detail {

// Executes the blocks of one chunk on one host thread. A runner owns the
// per-block state (register file, shared memory, warps) and is reused across
// blocks — and across chunks, through the runner free-list in Launch — so the
// per-block cost is a reset, not an allocation.
class BlockRunner {
 public:
  BlockRunner(const DeviceProfile& dev, GlobalMemory* gmem, const DecodedKernel& dk,
              const LaunchConfig& cfg, std::span<const unsigned char> const_mem)
      : dev_(dev), gmem_(gmem), dk_(dk), cfg_(cfg), const_mem_(const_mem) {
    nthreads_ = static_cast<unsigned>(cfg.block.Count());
    nwarps_ = CeilDiv(nthreads_, dev.warp_size);
    stride_ = nwarps_ * dev.warp_size;
    regs_.resize(static_cast<std::size_t>(dk.num_vregs) * stride_);
    shared_.resize(dk.static_smem_bytes + cfg.dynamic_smem_bytes);
    warps_.resize(nwarps_);
    // Per-lane thread coordinates (identical across blocks).
    tid_x_.resize(stride_);
    tid_y_.resize(stride_);
    tid_z_.resize(stride_);
    for (unsigned t = 0; t < stride_; ++t) {
      unsigned lin = std::min(t, nthreads_ - 1);
      tid_x_[t] = lin % cfg.block.x;
      tid_y_[t] = (lin / cfg.block.x) % cfg.block.y;
      tid_z_[t] = lin / (cfg.block.x * cfg.block.y);
    }
    KSPEC_CHECK_MSG(cfg.args.size() == dk.num_params, "argument count mismatch");
  }

  void set_stats(BlockStats* s) { bstats_ = s; }

  void RunBlock(Dim3 ctaid) {
    ctaid_ = ctaid;
    std::fill(shared_.begin(), shared_.end(), 0);
    InitWarps();
    // Scheduler: run each runnable warp to its next barrier (or retirement);
    // when all live warps have arrived, release the barrier.
    while (true) {
      bool any_runnable = false;
      for (auto& w : warps_) {
        if (w.state == Warp::State::kRunnable) {
          RunWarp(w);
          any_runnable = true;
        }
      }
      bool all_done = true;
      bool any_barrier = false;
      for (auto& w : warps_) {
        if (w.state != Warp::State::kDone) all_done = false;
        if (w.state == Warp::State::kAtBarrier) any_barrier = true;
      }
      if (all_done) return;
      if (!any_barrier) {
        if (!any_runnable) throw DeviceError("block made no progress (scheduler deadlock)");
        continue;
      }
      // Every non-done warp must be at the barrier to release it.
      for (auto& w : warps_) {
        if (w.state == Warp::State::kRunnable) {
          throw DeviceError("__syncthreads deadlock: a warp retired or diverged past the barrier");
        }
      }
      for (auto& w : warps_) {
        if (w.state == Warp::State::kAtBarrier) w.state = Warp::State::kRunnable;
      }
      ++bstats_->barriers;
    }
  }

  std::uint64_t* Row(std::int32_t reg) {
    return regs_.data() + static_cast<std::size_t>(reg) * stride_;
  }
  LaneSrc Src(const Operand& o, unsigned lane_base) {
    if (o.is_reg()) return {Row(o.reg) + lane_base, 0};
    return {nullptr, o.imm};
  }

  // ---- ALU handlers (selected at decode, one indirect call per issue) ----

  template <Opcode OP, Type TY>
  static void AluOp(BlockRunner& R, const Instr& i, Warp& w, unsigned lane_base);
  template <Type TY, CmpOp CMP>
  static void SetpOp(BlockRunner& R, const Instr& i, Warp& w, unsigned lane_base);
  template <Type DT, Type ST>
  static void CvtOp(BlockRunner& R, const Instr& i, Warp& w, unsigned lane_base);
  static void MovOp(BlockRunner& R, const Instr& i, Warp& w, unsigned lane_base);
  static void SelOp(BlockRunner& R, const Instr& i, Warp& w, unsigned lane_base);
  static void SregOp(BlockRunner& R, const Instr& i, Warp& w, unsigned lane_base);
  // Invalid (opcode, type) pairs decode to this: the error still fires at
  // execution time (not decode time), exactly like the pre-decoded switch.
  static void BadOp(BlockRunner& R, const Instr& i, Warp& w, unsigned lane_base);

  // Memory handler specialized at decode on (space, direction, element size,
  // i32 sign handling): the per-issue space/size branching disappears and the
  // copy loops use fixed-width accesses. Combinations outside the templates
  // (const stores, exotic sizes) decode to GenericMemOp.
  template <Space SP, bool LOAD, int ESZ, bool SEXT>
  static void MemOp(BlockRunner& R, const Instr& i, Warp& w, unsigned lane_base);
  static void GenericMemOp(BlockRunner& R, const Instr& i, Warp& w, unsigned lane_base);

 private:
  void InitWarps() {
    for (unsigned w = 0; w < nwarps_; ++w) {
      unsigned first = w * dev_.warp_size;
      unsigned count = std::min(dev_.warp_size, nthreads_ - first);
      std::uint32_t mask = count == 32 ? kFullMask : ((1u << count) - 1u);
      warps_[w].pc = 0;
      warps_[w].mask = mask;
      warps_[w].live = mask;
      warps_[w].rpc = kNoReconv;
      warps_[w].state = Warp::State::kRunnable;
      warps_[w].stack.clear();
    }
    // Kernel parameters land in virtual registers [0, nparams). Refilled per
    // block: parameter registers are ordinary vregs a kernel may overwrite.
    for (std::size_t p = 0; p < cfg_.args.size(); ++p) {
      std::uint64_t* row = regs_.data() + p * stride_;
      std::fill(row, row + stride_, cfg_.args[p]);
    }
  }

  // Pops reconvergence-stack entries until one with live lanes is found.
  // Returns false when the warp has fully retired.
  static bool PopState(Warp& w) {
    while (!w.stack.empty()) {
      StackEntry e = w.stack.back();
      w.stack.pop_back();
      e.mask &= w.live;
      if (e.mask) {
        w.pc = e.pc;
        w.mask = e.mask;
        w.rpc = e.rpc;
        return true;
      }
    }
    return false;
  }

  void RunWarp(Warp& w);

  void ExecMemory(const Instr& i, Warp& w, unsigned lane_base);
  // Per-lane ResolveAddress copy loops — the precise-diagnostics slow path
  // shared by the generic and the specialized memory handlers.
  void MemSlowLoop(const Instr& i, Warp& w, unsigned lane_base, const std::uint64_t* addrs);
  void ExecAtomic(const Instr& i, Warp& w, unsigned lane_base);
  void ExecTexture(const Instr& i, Warp& w, unsigned lane_base);

  // Charges global-memory transactions for the active lanes' addresses.
  // lo/hi are the min/max lane addresses (single-segment fast path).
  void ChargeGlobal(const std::uint64_t* addrs, std::uint32_t mask, std::uint64_t lo,
                    std::uint64_t hi);
  // Charges shared-memory bank conflicts. `conflict_free` skips the counting
  // scan for address patterns the caller has proven conflict-free.
  void ChargeShared(const std::uint64_t* addrs, std::uint32_t mask, bool conflict_free);

  unsigned char* ResolveAddress(Space space, std::uint64_t addr, std::size_t bytes,
                                bool for_write);

  std::uint64_t AtomicRmwGlobal(const Instr& i, unsigned char* p, std::uint64_t operand,
                                std::uint64_t cval);
  std::uint64_t PlainRmw(const Instr& i, unsigned char* p, std::uint64_t operand,
                         std::uint64_t cval);

  const DeviceProfile& dev_;
  GlobalMemory* gmem_;
  const DecodedKernel& dk_;
  const LaunchConfig& cfg_;
  std::span<const unsigned char> const_mem_;
  BlockStats* bstats_ = nullptr;

  unsigned nthreads_ = 0;
  unsigned nwarps_ = 0;
  unsigned stride_ = 0;
  Dim3 ctaid_;
  std::vector<std::uint64_t> regs_;
  std::vector<unsigned char> shared_;
  std::vector<std::uint32_t> tid_x_, tid_y_, tid_z_;
  std::vector<Warp> warps_;
  // Warp instructions retired by this runner so far (across blocks): the
  // watchdog budget is per runner, so a non-terminating loop still trips it.
  std::uint64_t wd_accum_ = 0;
};

template <Opcode OP, Type TY>
void BlockRunner::AluOp(BlockRunner& R, const Instr& i, Warp& w, unsigned lane_base) {
  std::uint64_t* dst = R.Row(i.dst) + lane_base;
  const LaneSrc a = R.Src(i.a, lane_base);
  [[maybe_unused]] const LaneSrc b = R.Src(i.b, lane_base);
  [[maybe_unused]] const LaneSrc c = R.Src(i.c, lane_base);

  if constexpr (TY == Type::kF32 || TY == Type::kF64) {
    using FT = FTraits<TY>;
    using T = typename FT::T;
    StoreLanes(w.mask, dst, [&](unsigned l) -> std::uint64_t {
      const T av = FT::Get(a[l]);
      if constexpr (OP == Opcode::kAdd) return FT::Put(av + FT::Get(b[l]));
      else if constexpr (OP == Opcode::kSub) return FT::Put(av - FT::Get(b[l]));
      else if constexpr (OP == Opcode::kMul) return FT::Put(av * FT::Get(b[l]));
      else if constexpr (OP == Opcode::kDiv) return FT::Put(av / FT::Get(b[l]));
      else if constexpr (OP == Opcode::kRem) return FT::Put(std::fmod(av, FT::Get(b[l])));
      else if constexpr (OP == Opcode::kMad) return FT::Put(av * FT::Get(b[l]) + FT::Get(c[l]));
      else if constexpr (OP == Opcode::kMin) return FT::Put(std::min(av, FT::Get(b[l])));
      else if constexpr (OP == Opcode::kMax) return FT::Put(std::max(av, FT::Get(b[l])));
      else if constexpr (OP == Opcode::kNeg) return FT::Put(-av);
      else if constexpr (OP == Opcode::kAbs) return FT::Put(std::fabs(av));
      else if constexpr (OP == Opcode::kSqrt) return FT::Put(std::sqrt(av));
      else if constexpr (OP == Opcode::kRsqrt) return FT::Put(T(1) / std::sqrt(av));
      else if constexpr (OP == Opcode::kFloor) return FT::Put(std::floor(av));
      else if constexpr (OP == Opcode::kCeil) return FT::Put(std::ceil(av));
      else if constexpr (OP == Opcode::kExp) return FT::Put(std::exp(av));
      else if constexpr (OP == Opcode::kLog) return FT::Put(std::log(av));
      else if constexpr (OP == Opcode::kSin) return FT::Put(std::sin(av));
      else if constexpr (OP == Opcode::kCos) return FT::Put(std::cos(av));
    });
  } else {
    constexpr bool is64 = TY == Type::kI64 || TY == Type::kU64;
    constexpr bool sg = TY == Type::kI32 || TY == Type::kI64;
    StoreLanes(w.mask, dst, [&](unsigned l) -> std::uint64_t {
      const std::uint64_t av = a[l];
      if constexpr (OP == Opcode::kAdd) return INorm<is64, sg>(av + b[l]);
      else if constexpr (OP == Opcode::kSub) return INorm<is64, sg>(av - b[l]);
      else if constexpr (OP == Opcode::kMul) return INorm<is64, sg>(av * b[l]);
      else if constexpr (OP == Opcode::kMad) return INorm<is64, sg>(av * b[l] + c[l]);
      else if constexpr (OP == Opcode::kMul24) {
        const std::uint64_t x = av & 0xffffffu, y = b[l] & 0xffffffu;
        if constexpr (sg) {
          const std::int64_t sx = static_cast<std::int64_t>(x << 40) >> 40;
          const std::int64_t sy = static_cast<std::int64_t>(y << 40) >> 40;
          return INorm<is64, sg>(static_cast<std::uint64_t>(sx * sy));
        } else {
          return INorm<is64, sg>(x * y);
        }
      } else if constexpr (OP == Opcode::kDiv) {
        if constexpr (sg) {
          const std::int64_t d = IAsSigned<is64>(b[l]);
          return d == 0 ? 0
                        : INorm<is64, sg>(static_cast<std::uint64_t>(IAsSigned<is64>(av) / d));
        } else {
          const std::uint64_t d = is64 ? b[l] : static_cast<std::uint32_t>(b[l]);
          const std::uint64_t n = is64 ? av : static_cast<std::uint32_t>(av);
          return d == 0 ? 0 : INorm<is64, sg>(n / d);
        }
      } else if constexpr (OP == Opcode::kRem) {
        if constexpr (sg) {
          const std::int64_t d = IAsSigned<is64>(b[l]);
          return d == 0 ? 0
                        : INorm<is64, sg>(static_cast<std::uint64_t>(IAsSigned<is64>(av) % d));
        } else {
          const std::uint64_t d = is64 ? b[l] : static_cast<std::uint32_t>(b[l]);
          const std::uint64_t n = is64 ? av : static_cast<std::uint32_t>(av);
          return d == 0 ? 0 : INorm<is64, sg>(n % d);
        }
      } else if constexpr (OP == Opcode::kMin || OP == Opcode::kMax) {
        if constexpr (sg) {
          const std::int64_t x = IAsSigned<is64>(av), y = IAsSigned<is64>(b[l]);
          const std::int64_t r = OP == Opcode::kMin ? std::min(x, y) : std::max(x, y);
          return INorm<is64, sg>(static_cast<std::uint64_t>(r));
        } else {
          const std::uint64_t x = is64 ? av : static_cast<std::uint32_t>(av);
          const std::uint64_t y = is64 ? b[l] : static_cast<std::uint32_t>(b[l]);
          return INorm<is64, sg>(OP == Opcode::kMin ? std::min(x, y) : std::max(x, y));
        }
      } else if constexpr (OP == Opcode::kNeg) {
        return INorm<is64, sg>(~av + 1);
      } else if constexpr (OP == Opcode::kAbs) {
        const std::int64_t v = IAsSigned<is64>(av);
        return INorm<is64, sg>(static_cast<std::uint64_t>(v < 0 ? -v : v));
      } else if constexpr (OP == Opcode::kAnd) {
        return INorm<is64, sg>(av & b[l]);
      } else if constexpr (OP == Opcode::kOr) {
        return INorm<is64, sg>(av | b[l]);
      } else if constexpr (OP == Opcode::kXor) {
        return INorm<is64, sg>(av ^ b[l]);
      } else if constexpr (OP == Opcode::kNot) {
        return INorm<is64, sg>(~av);
      } else if constexpr (OP == Opcode::kShl) {
        constexpr unsigned width = is64 ? 64 : 32;
        const std::uint64_t sh = b[l];
        if (sh >= width) return 0;
        return INorm<is64, sg>(av << sh);
      } else if constexpr (OP == Opcode::kShr) {
        constexpr unsigned width = is64 ? 64 : 32;
        const std::uint64_t sh = b[l];
        if constexpr (sg) {
          const std::int64_t v = IAsSigned<is64>(av);
          if (sh >= width) return INorm<is64, sg>(static_cast<std::uint64_t>(v < 0 ? -1 : 0));
          return INorm<is64, sg>(static_cast<std::uint64_t>(v >> sh));
        } else {
          if (sh >= width) return 0;
          const std::uint64_t v = is64 ? av : static_cast<std::uint32_t>(av);
          return INorm<is64, sg>(v >> sh);
        }
      }
    });
  }
}

template <Type TY, CmpOp CMP>
void BlockRunner::SetpOp(BlockRunner& R, const Instr& i, Warp& w, unsigned lane_base) {
  std::uint64_t* dst = R.Row(i.dst) + lane_base;
  const LaneSrc a = R.Src(i.a, lane_base);
  const LaneSrc b = R.Src(i.b, lane_base);
  StoreLanes(w.mask, dst, [&](unsigned l) -> std::uint64_t {
    if constexpr (TY == Type::kI32) {
      return CmpApply<CMP, std::int64_t>(DecodeI32(a[l]), DecodeI32(b[l]));
    } else if constexpr (TY == Type::kU32) {
      return CmpApply<CMP, std::int64_t>(static_cast<std::uint32_t>(a[l]),
                                         static_cast<std::uint32_t>(b[l]));
    } else if constexpr (TY == Type::kI64) {
      return CmpApply<CMP, std::int64_t>(static_cast<std::int64_t>(a[l]),
                                         static_cast<std::int64_t>(b[l]));
    } else if constexpr (TY == Type::kU64 || TY == Type::kPred) {
      return CmpApply<CMP, std::uint64_t>(a[l], b[l]);
    } else if constexpr (TY == Type::kF32) {
      return CmpApply<CMP, double>(DecodeF32(a[l]), DecodeF32(b[l]));
    } else {
      return CmpApply<CMP, double>(DecodeF64(a[l]), DecodeF64(b[l]));
    }
  });
}

template <Type DT, Type ST>
void BlockRunner::CvtOp(BlockRunner& R, const Instr& i, Warp& w, unsigned lane_base) {
  std::uint64_t* dst = R.Row(i.dst) + lane_base;
  const LaneSrc a = R.Src(i.a, lane_base);
  // Integer->integer conversions must not round-trip through double
  // (precision loss on 64-bit); handle them on the integer path.
  if constexpr (IsIntTypeC(DT) && (IsIntTypeC(ST) || ST == Type::kPred)) {
    StoreLanes(w.mask, dst, [&](unsigned l) -> std::uint64_t {
      const std::uint64_t v = a[l];
      std::int64_t sv;
      if constexpr (ST == Type::kI32) sv = DecodeI32(v);
      else if constexpr (ST == Type::kU32) sv = static_cast<std::uint32_t>(v);
      else sv = static_cast<std::int64_t>(v);
      if constexpr (DT == Type::kI32) return EncodeI32(static_cast<std::int32_t>(sv));
      else if constexpr (DT == Type::kU32) return static_cast<std::uint32_t>(sv);
      else return static_cast<std::uint64_t>(sv);
    });
  } else {
    StoreLanes(w.mask, dst, [&](unsigned l) -> std::uint64_t {
      double v;
      if constexpr (ST == Type::kI32) v = DecodeI32(a[l]);
      else if constexpr (ST == Type::kU32) v = static_cast<std::uint32_t>(a[l]);
      else if constexpr (ST == Type::kI64) v = static_cast<double>(static_cast<std::int64_t>(a[l]));
      else if constexpr (ST == Type::kU64) v = static_cast<double>(a[l]);
      else if constexpr (ST == Type::kF32) v = DecodeF32(a[l]);
      else if constexpr (ST == Type::kF64) v = DecodeF64(a[l]);
      else v = a[l] ? 1.0 : 0.0;
      if constexpr (DT == Type::kI32) return EncodeI32(static_cast<std::int32_t>(v));
      else if constexpr (DT == Type::kU32)
        return static_cast<std::uint32_t>(static_cast<std::int64_t>(v));
      else if constexpr (DT == Type::kI64)
        return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
      else if constexpr (DT == Type::kU64) return static_cast<std::uint64_t>(v);
      else if constexpr (DT == Type::kF32) return EncodeF32(static_cast<float>(v));
      else if constexpr (DT == Type::kF64) return EncodeF64(v);
      else return v != 0.0;
    });
  }
}

void BlockRunner::MovOp(BlockRunner& R, const Instr& i, Warp& w, unsigned lane_base) {
  std::uint64_t* dst = R.Row(i.dst) + lane_base;
  const LaneSrc a = R.Src(i.a, lane_base);
  StoreLanes(w.mask, dst, [&](unsigned l) { return a[l]; });
}

void BlockRunner::SelOp(BlockRunner& R, const Instr& i, Warp& w, unsigned lane_base) {
  std::uint64_t* dst = R.Row(i.dst) + lane_base;
  const LaneSrc a = R.Src(i.a, lane_base);
  const LaneSrc b = R.Src(i.b, lane_base);
  const LaneSrc c = R.Src(i.c, lane_base);
  StoreLanes(w.mask, dst, [&](unsigned l) { return c[l] ? a[l] : b[l]; });
}

void BlockRunner::SregOp(BlockRunner& R, const Instr& i, Warp& w, unsigned lane_base) {
  std::uint64_t* dst = R.Row(i.dst) + lane_base;
  const auto sr = static_cast<SpecialReg>(i.a.imm);
  StoreLanes(w.mask, dst, [&](unsigned l) -> std::uint64_t {
    const unsigned t = lane_base + l;
    switch (sr) {
      case SpecialReg::kTidX: return R.tid_x_[t];
      case SpecialReg::kTidY: return R.tid_y_[t];
      case SpecialReg::kTidZ: return R.tid_z_[t];
      case SpecialReg::kNtidX: return R.cfg_.block.x;
      case SpecialReg::kNtidY: return R.cfg_.block.y;
      case SpecialReg::kNtidZ: return R.cfg_.block.z;
      case SpecialReg::kCtaidX: return R.ctaid_.x;
      case SpecialReg::kCtaidY: return R.ctaid_.y;
      case SpecialReg::kCtaidZ: return R.ctaid_.z;
      case SpecialReg::kNctaidX: return R.cfg_.grid.x;
      case SpecialReg::kNctaidY: return R.cfg_.grid.y;
      case SpecialReg::kNctaidZ: return R.cfg_.grid.z;
      case SpecialReg::kLaneId: return l;
      case SpecialReg::kWarpId: return t / R.dev_.warp_size;
    }
    return 0;
  });
}

void BlockRunner::BadOp(BlockRunner&, const Instr& i, Warp&, unsigned) {
  if (i.type == Type::kF32) throw InternalError(Format("op %s invalid for f32", OpcodeName(i.op)));
  if (i.type == Type::kF64) throw InternalError(Format("op %s invalid for f64", OpcodeName(i.op)));
  throw InternalError(
      Format("unhandled opcode %s for type %s", OpcodeName(i.op), TypeName(i.type)));
}

unsigned char* BlockRunner::ResolveAddress(Space space, std::uint64_t addr, std::size_t bytes,
                                           bool for_write) {
  switch (space) {
    case Space::kGlobal:
      return gmem_->Access(addr, bytes);
    case Space::kShared:
      if (addr + bytes > shared_.size()) {
        throw DeviceError(Format("shared-memory access out of bounds: 0x%llx (+%zu) of %zu bytes",
                                 static_cast<unsigned long long>(addr), bytes, shared_.size()));
      }
      return shared_.data() + addr;
    case Space::kConst:
      if (for_write) throw DeviceError("store to constant memory");
      if (addr + bytes > const_mem_.size()) {
        throw DeviceError(Format("constant-memory access out of bounds: 0x%llx of %zu bytes",
                                 static_cast<unsigned long long>(addr), const_mem_.size()));
      }
      return const_cast<unsigned char*>(const_mem_.data() + addr);
    default:
      throw DeviceError("unsupported memory space in ld/st");
  }
}

void BlockRunner::ChargeGlobal(const std::uint64_t* addrs, std::uint32_t mask,
                               std::uint64_t lo, std::uint64_t hi) {
  // Transactions are 128-byte segments. cc1.x coalesces per half-warp,
  // cc2.x per full warp through the L1 line.
  //
  // Fully-coalesced accesses — the whole warp inside one segment — are the
  // overwhelmingly common case and need no dedup scan: one transaction per
  // non-empty coalescing group.
  if ((lo >> 7) == (hi >> 7)) {
    int tx;
    if (dev_.IsFermi()) {
      tx = 1;
    } else {
      tx = ((mask & 0xffffu) ? 1 : 0) + ((mask >> 16) ? 1 : 0);
    }
    bstats_->mem_transactions += tx;
    bstats_->memory_cycles += tx * dev_.cycles_per_global_tx;
    ++bstats_->global_instrs;
    return;
  }
  auto count_segments = [&](std::uint32_t m) {
    std::uint64_t segs[32];
    int n = 0;
    std::uint64_t last = ~0ull;
    while (m) {
      int lane = std::countr_zero(m);
      m &= m - 1;
      std::uint64_t seg = addrs[lane] >> 7;
      // Consecutive lanes overwhelmingly hit the same segment (coalesced
      // access): skip the dedup scan for runs.
      if (seg == last) continue;
      last = seg;
      bool seen = false;
      for (int k = 0; k < n; ++k) {
        if (segs[k] == seg) {
          seen = true;
          break;
        }
      }
      if (!seen) segs[n++] = seg;
    }
    return n;
  };
  int tx = 0;
  if (dev_.IsFermi()) {
    tx = count_segments(mask);
  } else {
    tx = count_segments(mask & 0xffffu) + count_segments(mask >> 16 << 16);
  }
  bstats_->mem_transactions += tx;
  bstats_->memory_cycles += tx * dev_.cycles_per_global_tx;
  ++bstats_->global_instrs;
}

void BlockRunner::ChargeShared(const std::uint64_t* addrs, std::uint32_t mask,
                               bool conflict_free) {
  // `conflict_free` is proven by the caller during its address sweep: either
  // every active lane reads the same word (a broadcast — served in one cycle
  // on both generations) or lane addresses are word-linear in the lane index
  // with a lane span smaller than the bank count, which touches every bank at
  // most once per conflict group. Both yield degree 1 in the general scan
  // below, so skipping it charges exactly the same cycles.
  if (conflict_free) {
    bstats_->issue_cycles += (dev_.shared_access_cost - 1.0);
    return;
  }
  // Conflict degree = max number of distinct addresses mapping to one bank.
  auto degree = [&](std::uint32_t m) {
    int counts[32] = {0};
    std::uint64_t seen_addr[32];
    int seen_n = 0;
    while (m) {
      int lane = std::countr_zero(m);
      m &= m - 1;
      std::uint64_t a = addrs[lane];
      bool dup = false;
      for (int k = 0; k < seen_n; ++k) {
        if (seen_addr[k] == a) {
          dup = true;  // same word: broadcast, no extra cycle
          break;
        }
      }
      if (dup) continue;
      if (seen_n < 32) seen_addr[seen_n++] = a;
      ++counts[(a >> 2) % dev_.shared_mem_banks];
    }
    int d = 1;
    for (int b = 0; b < 32; ++b) d = std::max(d, counts[b]);
    return d;
  };
  int extra;
  if (dev_.IsFermi()) {
    extra = degree(mask) - 1;
  } else {
    extra = (degree(mask & 0xffffu) - 1) + (degree(mask >> 16 << 16) - 1);
  }
  if (extra > 0) {
    bstats_->shared_conflict_cycles += extra;
    bstats_->issue_cycles += extra;
  }
  bstats_->issue_cycles += (dev_.shared_access_cost - 1.0);
}

void BlockRunner::ExecMemory(const Instr& i, Warp& w, unsigned lane_base) {
  std::uint64_t addrs[32];
  const std::size_t esz = TypeSize(i.type);
  const LaneSrc aop = Src(i.a, lane_base);
  const std::uint64_t off = static_cast<std::uint64_t>(static_cast<std::int64_t>(i.b.imm));
  // One sweep computes the lane addresses, the span, and the two address-
  // pattern flags the cost charges exploit (broadcast / word-linear).
  const int lane0 = std::countr_zero(w.mask);
  const std::uint64_t a0 = aop[lane0] + off;
  std::uint64_t lo = a0, hi = a0;
  bool all_same = true, linear4 = true;
  addrs[lane0] = a0;
  {
    std::uint32_t m = w.mask & (w.mask - 1);  // lanes after the first
    while (m) {
      const int lane = std::countr_zero(m);
      m &= m - 1;
      const std::uint64_t addr = aop[lane] + off;
      addrs[lane] = addr;
      lo = std::min(lo, addr);
      hi = std::max(hi, addr);
      all_same &= (addr == a0);
      linear4 &= (addr - a0 == 4ull * static_cast<unsigned>(lane - lane0));
    }
  }
  if (i.space == Space::kGlobal) {
    ChargeGlobal(addrs, w.mask, lo, hi);
  } else if (i.space == Space::kShared) {
    const unsigned lane_span =
        static_cast<unsigned>(31 - std::countl_zero(w.mask)) - static_cast<unsigned>(lane0);
    ChargeShared(addrs, w.mask,
                 all_same || (linear4 && lane_span < dev_.shared_mem_banks));
  }

  // Fast path: resolve the whole warp's address span with one bounds check,
  // then run tight per-lane copy loops. Falls back to per-lane
  // ResolveAddress (and its precise DeviceError) when the span is not
  // contained — global: in a single live allocation; shared/const: in the
  // region — or on a store to constant memory.
  unsigned char* base = nullptr;
  std::uint64_t rebase = 0;
  if (i.space == Space::kGlobal) {
    const unsigned char* span = gmem_->TryAccess(lo, hi + esz - lo);
    if (span) {
      base = const_cast<unsigned char*>(span);
      rebase = lo;
    }
  } else if (i.space == Space::kShared) {
    if (hi + esz <= shared_.size()) base = shared_.data();
  } else if (i.space == Space::kConst && i.op == Opcode::kLd) {
    if (hi + esz <= const_mem_.size()) {
      base = const_cast<unsigned char*>(const_mem_.data());
    }
  }
  if (base) {
    if (i.op == Opcode::kLd) {
      std::uint64_t* dst = Row(i.dst) + lane_base;
      const bool sext = i.type == Type::kI32;
      if (w.mask == kFullMask) {
        for (int lane = 0; lane < 32; ++lane) {
          std::uint64_t raw = 0;
          std::memcpy(&raw, base + (addrs[lane] - rebase), esz);
          if (sext) raw = EncodeI32(static_cast<std::int32_t>(raw));  // sign handling
          dst[lane] = raw;
        }
      } else {
        std::uint32_t m = w.mask;
        while (m) {
          const int lane = std::countr_zero(m);
          m &= m - 1;
          std::uint64_t raw = 0;
          std::memcpy(&raw, base + (addrs[lane] - rebase), esz);
          if (sext) raw = EncodeI32(static_cast<std::int32_t>(raw));  // sign handling
          dst[lane] = raw;
        }
      }
    } else {
      const LaneSrc cop = Src(i.c, lane_base);
      if (w.mask == kFullMask) {
        for (int lane = 0; lane < 32; ++lane) {
          const std::uint64_t raw = cop[lane];
          std::memcpy(base + (addrs[lane] - rebase), &raw, esz);
        }
      } else {
        std::uint32_t m = w.mask;
        while (m) {
          const int lane = std::countr_zero(m);
          m &= m - 1;
          const std::uint64_t raw = cop[lane];
          std::memcpy(base + (addrs[lane] - rebase), &raw, esz);
        }
      }
    }
    return;
  }

  MemSlowLoop(i, w, lane_base, addrs);
}

void BlockRunner::MemSlowLoop(const Instr& i, Warp& w, unsigned lane_base,
                              const std::uint64_t* addrs) {
  const std::size_t esz = TypeSize(i.type);
  std::uint32_t m = w.mask;
  if (i.op == Opcode::kLd) {
    std::uint64_t* dst = Row(i.dst) + lane_base;
    while (m) {
      const int lane = std::countr_zero(m);
      m &= m - 1;
      const unsigned char* p = ResolveAddress(i.space, addrs[lane], esz, false);
      std::uint64_t raw = 0;
      std::memcpy(&raw, p, esz);
      if (i.type == Type::kI32) raw = EncodeI32(static_cast<std::int32_t>(raw));  // sign handling
      dst[lane] = raw;
    }
  } else {
    const LaneSrc cop = Src(i.c, lane_base);
    while (m) {
      const int lane = std::countr_zero(m);
      m &= m - 1;
      unsigned char* p = ResolveAddress(i.space, addrs[lane], esz, true);
      const std::uint64_t raw = cop[lane];
      std::memcpy(p, &raw, esz);
    }
  }
}

void BlockRunner::GenericMemOp(BlockRunner& R, const Instr& i, Warp& w, unsigned lane_base) {
  R.ExecMemory(i, w, lane_base);
}

template <Space SP, bool LOAD, int ESZ, bool SEXT>
void BlockRunner::MemOp(BlockRunner& R, const Instr& i, Warp& w, unsigned lane_base) {
  static_assert(SP != Space::kConst || LOAD, "const stores take the generic path");
  std::uint64_t addrs[32];
  const LaneSrc aop = R.Src(i.a, lane_base);
  const std::uint64_t off = static_cast<std::uint64_t>(static_cast<std::int64_t>(i.b.imm));
  const int lane0 = std::countr_zero(w.mask);
  const std::uint64_t a0 = aop[lane0] + off;
  std::uint64_t lo = a0, hi = a0;
  bool all_same = true, linear4 = true;
  addrs[lane0] = a0;
  {
    std::uint32_t m = w.mask & (w.mask - 1);  // lanes after the first
    while (m) {
      const int lane = std::countr_zero(m);
      m &= m - 1;
      const std::uint64_t addr = aop[lane] + off;
      addrs[lane] = addr;
      lo = std::min(lo, addr);
      hi = std::max(hi, addr);
      if constexpr (SP == Space::kShared) {
        all_same &= (addr == a0);
        linear4 &= (addr - a0 == 4ull * static_cast<unsigned>(lane - lane0));
      }
    }
  }
  if constexpr (SP == Space::kGlobal) {
    R.ChargeGlobal(addrs, w.mask, lo, hi);
  } else if constexpr (SP == Space::kShared) {
    const unsigned lane_span =
        static_cast<unsigned>(31 - std::countl_zero(w.mask)) - static_cast<unsigned>(lane0);
    R.ChargeShared(addrs, w.mask,
                   all_same || (linear4 && lane_span < R.dev_.shared_mem_banks));
  }

  unsigned char* base;
  std::uint64_t rebase = 0;
  if constexpr (SP == Space::kGlobal) {
    base = const_cast<unsigned char*>(R.gmem_->TryAccess(lo, hi + ESZ - lo));
    rebase = lo;
  } else if constexpr (SP == Space::kShared) {
    base = hi + ESZ <= R.shared_.size() ? R.shared_.data() : nullptr;
  } else {
    base = hi + ESZ <= R.const_mem_.size()
               ? const_cast<unsigned char*>(R.const_mem_.data())
               : nullptr;
  }
  if (!base) [[unlikely]] {
    R.MemSlowLoop(i, w, lane_base, addrs);  // precise per-lane diagnostics
    return;
  }

  auto load1 = [&](int lane) {
    std::uint64_t raw = 0;
    std::memcpy(&raw, base + (addrs[lane] - rebase), ESZ);
    if constexpr (SEXT) raw = EncodeI32(static_cast<std::int32_t>(raw));  // sign handling
    return raw;
  };
  if constexpr (LOAD) {
    std::uint64_t* dst = R.Row(i.dst) + lane_base;
    if (w.mask == kFullMask) {
      for (int lane = 0; lane < 32; ++lane) dst[lane] = load1(lane);
    } else {
      std::uint32_t m = w.mask;
      while (m) {
        const int lane = std::countr_zero(m);
        m &= m - 1;
        dst[lane] = load1(lane);
      }
    }
  } else {
    const LaneSrc cop = R.Src(i.c, lane_base);
    auto store1 = [&](int lane) {
      const std::uint64_t raw = cop[lane];
      std::memcpy(base + (addrs[lane] - rebase), &raw, ESZ);
    };
    if (w.mask == kFullMask) {
      for (int lane = 0; lane < 32; ++lane) store1(lane);
    } else {
      std::uint32_t m = w.mask;
      while (m) {
        const int lane = std::countr_zero(m);
        m &= m - 1;
        store1(lane);
      }
    }
  }
}

namespace {

// The atomic's new value as a function of the old — identical arithmetic to
// the serial interpreter, shared by the lock-free global path (inside the CAS
// retry loop) and the plain shared-memory path.
template <typename U>
U AtomicCombine(const Instr& i, U old, U operand, U cval) {
  static_assert(sizeof(U) == 4 || sizeof(U) == 8);
  constexpr bool is32 = sizeof(U) == 4;
  switch (i.op) {
    case Opcode::kAtomAdd:
      if (i.type == Type::kF32) {
        if constexpr (is32) return EncodeF32(DecodeF32(old) + DecodeF32(operand));
      } else if (i.type == Type::kF64) {
        if constexpr (!is32) return EncodeF64(DecodeF64(old) + DecodeF64(operand));
      }
      return old + operand;
    case Opcode::kAtomMin:
    case Opcode::kAtomMax: {
      const bool want_min = i.op == Opcode::kAtomMin;
      if (i.type == Type::kI32 || i.type == Type::kI64) {
        using S = std::conditional_t<is32, std::int32_t, std::int64_t>;
        const S x = static_cast<S>(old), y = static_cast<S>(operand);
        return static_cast<U>(want_min ? std::min(x, y) : std::max(x, y));
      }
      if (i.type == Type::kF32) {
        if constexpr (is32) {
          const float x = DecodeF32(old), y = DecodeF32(operand);
          return EncodeF32(want_min ? std::min(x, y) : std::max(x, y));
        }
      }
      return want_min ? std::min(old, operand) : std::max(old, operand);
    }
    case Opcode::kAtomExch:
      return operand;
    case Opcode::kAtomCas:
      return old == operand ? cval : old;
    default:
      throw InternalError("bad atomic opcode");
  }
}

template <typename U>
std::uint64_t AtomicRmwTyped(const Instr& i, unsigned char* p, std::uint64_t operand,
                             std::uint64_t cval) {
  std::atomic_ref<U> ref(*reinterpret_cast<U*>(p));
  U old = ref.load(std::memory_order_relaxed);
  for (;;) {
    const U desired =
        AtomicCombine<U>(i, old, static_cast<U>(operand), static_cast<U>(cval));
    if (ref.compare_exchange_weak(old, desired, std::memory_order_relaxed)) break;
  }
  return old;  // zero-extended, matching the serial memcpy read-back
}

}  // namespace

std::uint64_t BlockRunner::AtomicRmwGlobal(const Instr& i, unsigned char* p,
                                           std::uint64_t operand, std::uint64_t cval) {
  if (TypeSize(i.type) == 4) return AtomicRmwTyped<std::uint32_t>(i, p, operand, cval);
  return AtomicRmwTyped<std::uint64_t>(i, p, operand, cval);
}

std::uint64_t BlockRunner::PlainRmw(const Instr& i, unsigned char* p, std::uint64_t operand,
                                    std::uint64_t cval) {
  const std::size_t esz = TypeSize(i.type);
  std::uint64_t old = 0;
  std::memcpy(&old, p, esz);
  std::uint64_t result;
  if (esz == 4) {
    result = AtomicCombine<std::uint32_t>(i, static_cast<std::uint32_t>(old),
                                          static_cast<std::uint32_t>(operand),
                                          static_cast<std::uint32_t>(cval));
  } else {
    result = AtomicCombine<std::uint64_t>(i, old, operand, cval);
  }
  std::memcpy(p, &result, esz);
  return old;
}

void BlockRunner::ExecAtomic(const Instr& i, Warp& w, unsigned lane_base) {
  std::uint32_t m = w.mask;
  const std::size_t esz = TypeSize(i.type);
  // Atomics serialize: one transaction per active lane.
  const int lanes = std::popcount(m);
  if (i.space == Space::kGlobal) {
    bstats_->mem_transactions += lanes;
    bstats_->memory_cycles += lanes * dev_.cycles_per_global_tx;
    ++bstats_->global_instrs;
  } else {
    bstats_->issue_cycles += lanes;
  }
  std::uint64_t* dst = i.dst >= 0 ? Row(i.dst) + lane_base : nullptr;
  const LaneSrc aop = Src(i.a, lane_base);
  const LaneSrc bop = Src(i.b, lane_base);
  const LaneSrc cop = Src(i.c, lane_base);
  while (m) {
    const int lane = std::countr_zero(m);
    m &= m - 1;
    const std::uint64_t addr = aop[lane];
    std::uint64_t old;
    if (i.space == Space::kGlobal) {
      if (addr % esz != 0) {
        throw DeviceError(Format("misaligned %zu-byte atomic at 0x%llx", esz,
                                 static_cast<unsigned long long>(addr)));
      }
      unsigned char* p = gmem_->Access(addr, esz);
      old = AtomicRmwGlobal(i, p, bop[lane], cop[lane]);
    } else {
      // Shared memory is block-private and a block runs on one host thread,
      // so a plain read-modify-write suffices.
      unsigned char* p = ResolveAddress(i.space, addr, esz, true);
      old = PlainRmw(i, p, bop[lane], cop[lane]);
    }
    if (dst) dst[lane] = old;
  }
}

void BlockRunner::ExecTexture(const Instr& i, Warp& w, unsigned lane_base) {
  if (i.target < 0 || static_cast<std::size_t>(i.target) >= cfg_.textures.size()) {
    throw DeviceError(Format("texture slot %d is not bound at launch", i.target));
  }
  const TextureBinding& tex = cfg_.textures[static_cast<std::size_t>(i.target)];
  if (tex.base == 0 || tex.w <= 0 || tex.h <= 0) {
    throw DeviceError(Format("texture slot %d has an invalid binding", i.target));
  }
  // Texture reads go through the (simulated) texture cache: charge a reduced
  // per-fetch memory cost compared to uncached global loads.
  const int lanes = std::popcount(w.mask);
  bstats_->texture_fetches += static_cast<std::uint64_t>(lanes);
  bstats_->memory_cycles += 0.25 * dev_.cycles_per_global_tx * std::max(1, lanes / 8);
  ++bstats_->global_instrs;

  // Resolve the whole texture once per instruction; per-texel Access only if
  // the binding does not sit in one live allocation.
  const std::uint64_t tex_bytes =
      static_cast<std::uint64_t>(tex.w) * static_cast<std::uint64_t>(tex.h) * 4;
  const unsigned char* tbase = gmem_->TryAccess(tex.base, tex_bytes);

  auto fetch = [&](int x, int y) -> float {
    x = std::clamp(x, 0, tex.w - 1);
    y = std::clamp(y, 0, tex.h - 1);
    const std::uint64_t texel =
        (static_cast<std::uint64_t>(y) * tex.w + static_cast<std::uint64_t>(x)) * 4;
    const unsigned char* p = tbase ? tbase + texel : gmem_->Access(tex.base + texel, 4);
    float v;
    std::memcpy(&v, p, 4);
    return v;
  };

  std::uint64_t* dst = Row(i.dst) + lane_base;
  const LaneSrc aop = Src(i.a, lane_base);
  const LaneSrc bop = Src(i.b, lane_base);
  std::uint32_t m = w.mask;
  while (m) {
    const int lane = std::countr_zero(m);
    m &= m - 1;
    if (i.op == Opcode::kTex1D) {
      const std::int32_t idx = DecodeI32(aop[lane]);
      dst[lane] = EncodeF32(fetch(idx % std::max(tex.w, 1), idx / std::max(tex.w, 1)));
      continue;
    }
    // tex2D with bilinear filtering, texel centers at integer coordinates
    // (matching the manual bilinear code in the CPU references).
    const float fx = DecodeF32(aop[lane]);
    const float fy = DecodeF32(bop[lane]);
    const int x0 = static_cast<int>(std::floor(fx));
    const int y0 = static_cast<int>(std::floor(fy));
    const float ax = fx - static_cast<float>(x0);
    const float ay = fy - static_cast<float>(y0);
    const float p00 = fetch(x0, y0);
    const float p01 = fetch(x0 + 1, y0);
    const float p10 = fetch(x0, y0 + 1);
    const float p11 = fetch(x0 + 1, y0 + 1);
    const float top = p00 + ax * (p01 - p00);
    const float bot = p10 + ax * (p11 - p10);
    dst[lane] = EncodeF32(top + ay * (bot - top));
  }
}

void BlockRunner::RunWarp(Warp& w) {
  const Instr* code = dk_.code.data();
  const DecodedInstr* dec = dk_.dec.data();
  const std::uint32_t ncode = static_cast<std::uint32_t>(dk_.code.size());
  const unsigned lane_base =
      static_cast<unsigned>(&w - warps_.data()) * dev_.warp_size;

  // Dynamic counters stay in registers for the whole warp run and flush once:
  // the accumulation order (per warp segment, warps in block order, blocks in
  // chunk order) is fixed, so the folded sums are reproducible bit-for-bit.
  std::uint64_t warp_instrs = 0;
  std::uint64_t lane_instrs = 0;
  double issue_cycles = 0;
  double ilp_sum = 0;
  const std::uint64_t wd_budget = dev_.watchdog_warp_instrs - wd_accum_;

  auto flush = [&] {
    bstats_->warp_instrs += warp_instrs;
    bstats_->lane_instrs += lane_instrs;
    bstats_->issue_cycles += issue_cycles;
    bstats_->ilp_sum += ilp_sum;
    wd_accum_ += warp_instrs;
  };

  while (true) {
    if (w.pc == w.rpc) {
      if (!PopState(w)) {
        w.state = Warp::State::kDone;
        flush();
        return;
      }
      continue;
    }
    if (w.pc >= ncode) {
      // Fell off the end: implicit exit of all active lanes.
      w.live &= ~w.mask;
      if (!PopState(w)) {
        w.state = Warp::State::kDone;
        flush();
        return;
      }
      continue;
    }

    if (++warp_instrs > wd_budget) {
      flush();
      throw DeviceError(
          "kernel exceeded the simulator watchdog limit (likely a non-terminating loop); "
          "raise DeviceProfile::watchdog_warp_instrs if the workload is legitimately huge");
    }
    const DecodedInstr& d = dec[w.pc];
    lane_instrs += std::popcount(w.mask);
    issue_cycles += d.issue_cost;
    ilp_sum += d.ilp;

    const Instr& inst = code[w.pc];
    switch (d.kind) {
      case DKind::kAlu:
        d.fn(*this, inst, w, lane_base);
        ++w.pc;
        continue;
      case DKind::kMem:
        d.fn(*this, inst, w, lane_base);
        ++w.pc;
        continue;
      case DKind::kBra:
        w.pc = static_cast<std::uint32_t>(inst.target);
        continue;
      case DKind::kBraPred: {
        const std::uint64_t* preds = Row(inst.a.reg) + lane_base;
        std::uint32_t taken = 0;
        std::uint32_t m = w.mask;
        while (m) {
          const int lane = std::countr_zero(m);
          m &= m - 1;
          const bool p = preds[lane] != 0;
          if (p != inst.neg) taken |= (1u << lane);
        }
        if (taken == w.mask) {
          w.pc = static_cast<std::uint32_t>(inst.target);
        } else if (taken == 0) {
          ++w.pc;
        } else {
          KSPEC_CHECK_MSG(inst.reconv >= 0, "divergent branch without reconvergence point");
          // Join continuation first, then the fall-through side; the taken
          // side executes now.
          w.stack.push_back({static_cast<std::uint32_t>(inst.reconv), w.mask, w.rpc});
          w.stack.push_back(
              {w.pc + 1, w.mask & ~taken, static_cast<std::uint32_t>(inst.reconv)});
          w.mask = taken;
          w.rpc = static_cast<std::uint32_t>(inst.reconv);
          w.pc = static_cast<std::uint32_t>(inst.target);
        }
        continue;
      }
      case DKind::kBarSync:
        if (w.mask != w.live) {
          flush();
          throw DeviceError("__syncthreads() executed in divergent control flow");
        }
        ++w.pc;
        w.state = Warp::State::kAtBarrier;
        flush();
        return;
      case DKind::kExit: {
        w.live &= ~w.mask;
        for (auto& e : w.stack) e.mask &= w.live;
        if (!PopState(w)) {
          w.state = Warp::State::kDone;
          flush();
          return;
        }
        continue;
      }
      case DKind::kAtomic:
        ExecAtomic(inst, w, lane_base);
        ++w.pc;
        continue;
      case DKind::kTex:
        ExecTexture(inst, w, lane_base);
        ++w.pc;
        continue;
      case DKind::kNop:
        ++w.pc;
        continue;
    }
  }
}

// ---- handler selection (one nested switch per *static* instruction) ----

template <Type TY>
ExecFn SelectFloatOp(Opcode op) {
  switch (op) {
    case Opcode::kAdd: return &BlockRunner::AluOp<Opcode::kAdd, TY>;
    case Opcode::kSub: return &BlockRunner::AluOp<Opcode::kSub, TY>;
    case Opcode::kMul: return &BlockRunner::AluOp<Opcode::kMul, TY>;
    case Opcode::kDiv: return &BlockRunner::AluOp<Opcode::kDiv, TY>;
    case Opcode::kRem: return &BlockRunner::AluOp<Opcode::kRem, TY>;
    case Opcode::kMad: return &BlockRunner::AluOp<Opcode::kMad, TY>;
    case Opcode::kMin: return &BlockRunner::AluOp<Opcode::kMin, TY>;
    case Opcode::kMax: return &BlockRunner::AluOp<Opcode::kMax, TY>;
    case Opcode::kNeg: return &BlockRunner::AluOp<Opcode::kNeg, TY>;
    case Opcode::kAbs: return &BlockRunner::AluOp<Opcode::kAbs, TY>;
    case Opcode::kSqrt: return &BlockRunner::AluOp<Opcode::kSqrt, TY>;
    case Opcode::kRsqrt: return &BlockRunner::AluOp<Opcode::kRsqrt, TY>;
    case Opcode::kFloor: return &BlockRunner::AluOp<Opcode::kFloor, TY>;
    case Opcode::kCeil: return &BlockRunner::AluOp<Opcode::kCeil, TY>;
    case Opcode::kExp:
    case Opcode::kLog:
    case Opcode::kSin:
    case Opcode::kCos:
      // Transcendentals exist in f32 only, like the pre-decoded interpreter.
      if constexpr (TY == Type::kF32) {
        switch (op) {
          case Opcode::kExp: return &BlockRunner::AluOp<Opcode::kExp, TY>;
          case Opcode::kLog: return &BlockRunner::AluOp<Opcode::kLog, TY>;
          case Opcode::kSin: return &BlockRunner::AluOp<Opcode::kSin, TY>;
          default: return &BlockRunner::AluOp<Opcode::kCos, TY>;
        }
      }
      return nullptr;
    default:
      return nullptr;
  }
}

template <Type TY>
ExecFn SelectIntOp(Opcode op) {
  switch (op) {
    case Opcode::kAdd: return &BlockRunner::AluOp<Opcode::kAdd, TY>;
    case Opcode::kSub: return &BlockRunner::AluOp<Opcode::kSub, TY>;
    case Opcode::kMul: return &BlockRunner::AluOp<Opcode::kMul, TY>;
    case Opcode::kMul24: return &BlockRunner::AluOp<Opcode::kMul24, TY>;
    case Opcode::kMad: return &BlockRunner::AluOp<Opcode::kMad, TY>;
    case Opcode::kDiv: return &BlockRunner::AluOp<Opcode::kDiv, TY>;
    case Opcode::kRem: return &BlockRunner::AluOp<Opcode::kRem, TY>;
    case Opcode::kMin: return &BlockRunner::AluOp<Opcode::kMin, TY>;
    case Opcode::kMax: return &BlockRunner::AluOp<Opcode::kMax, TY>;
    case Opcode::kNeg: return &BlockRunner::AluOp<Opcode::kNeg, TY>;
    case Opcode::kAbs: return &BlockRunner::AluOp<Opcode::kAbs, TY>;
    case Opcode::kAnd: return &BlockRunner::AluOp<Opcode::kAnd, TY>;
    case Opcode::kOr: return &BlockRunner::AluOp<Opcode::kOr, TY>;
    case Opcode::kXor: return &BlockRunner::AluOp<Opcode::kXor, TY>;
    case Opcode::kNot: return &BlockRunner::AluOp<Opcode::kNot, TY>;
    case Opcode::kShl: return &BlockRunner::AluOp<Opcode::kShl, TY>;
    case Opcode::kShr: return &BlockRunner::AluOp<Opcode::kShr, TY>;
    default:
      return nullptr;
  }
}

template <Type TY>
ExecFn SelectSetp(CmpOp cmp) {
  switch (cmp) {
    case CmpOp::kEq: return &BlockRunner::SetpOp<TY, CmpOp::kEq>;
    case CmpOp::kNe: return &BlockRunner::SetpOp<TY, CmpOp::kNe>;
    case CmpOp::kLt: return &BlockRunner::SetpOp<TY, CmpOp::kLt>;
    case CmpOp::kLe: return &BlockRunner::SetpOp<TY, CmpOp::kLe>;
    case CmpOp::kGt: return &BlockRunner::SetpOp<TY, CmpOp::kGt>;
    case CmpOp::kGe: return &BlockRunner::SetpOp<TY, CmpOp::kGe>;
  }
  return nullptr;
}

template <Type DT>
ExecFn SelectCvtFrom(Type src) {
  switch (src) {
    case Type::kPred: return &BlockRunner::CvtOp<DT, Type::kPred>;
    case Type::kI32: return &BlockRunner::CvtOp<DT, Type::kI32>;
    case Type::kU32: return &BlockRunner::CvtOp<DT, Type::kU32>;
    case Type::kI64: return &BlockRunner::CvtOp<DT, Type::kI64>;
    case Type::kU64: return &BlockRunner::CvtOp<DT, Type::kU64>;
    case Type::kF32: return &BlockRunner::CvtOp<DT, Type::kF32>;
    case Type::kF64: return &BlockRunner::CvtOp<DT, Type::kF64>;
  }
  return nullptr;
}

ExecFn SelectAlu(const Instr& i) {
  switch (i.op) {
    case Opcode::kMov: return &BlockRunner::MovOp;
    case Opcode::kSreg: return &BlockRunner::SregOp;
    case Opcode::kSel: return &BlockRunner::SelOp;
    case Opcode::kSetp:
      switch (i.type) {
        case Type::kPred: return SelectSetp<Type::kPred>(i.cmp);
        case Type::kI32: return SelectSetp<Type::kI32>(i.cmp);
        case Type::kU32: return SelectSetp<Type::kU32>(i.cmp);
        case Type::kI64: return SelectSetp<Type::kI64>(i.cmp);
        case Type::kU64: return SelectSetp<Type::kU64>(i.cmp);
        case Type::kF32: return SelectSetp<Type::kF32>(i.cmp);
        case Type::kF64: return SelectSetp<Type::kF64>(i.cmp);
      }
      return nullptr;
    case Opcode::kCvt:
      switch (i.type) {
        case Type::kPred: return SelectCvtFrom<Type::kPred>(i.type2);
        case Type::kI32: return SelectCvtFrom<Type::kI32>(i.type2);
        case Type::kU32: return SelectCvtFrom<Type::kU32>(i.type2);
        case Type::kI64: return SelectCvtFrom<Type::kI64>(i.type2);
        case Type::kU64: return SelectCvtFrom<Type::kU64>(i.type2);
        case Type::kF32: return SelectCvtFrom<Type::kF32>(i.type2);
        case Type::kF64: return SelectCvtFrom<Type::kF64>(i.type2);
      }
      return nullptr;
    default:
      switch (i.type) {
        case Type::kF32: return SelectFloatOp<Type::kF32>(i.op);
        case Type::kF64: return SelectFloatOp<Type::kF64>(i.op);
        case Type::kI32: return SelectIntOp<Type::kI32>(i.op);
        case Type::kI64: return SelectIntOp<Type::kI64>(i.op);
        case Type::kU64: return SelectIntOp<Type::kU64>(i.op);
        case Type::kU32:
        case Type::kPred:
          // Predicates use unsigned-32 ALU semantics (the logical ops the
          // front end emits for !, &&, ||).
          return SelectIntOp<Type::kU32>(i.op);
      }
      return nullptr;
  }
}

template <Space SP>
ExecFn PickMemSized(bool load, std::size_t esz, bool sext) {
  if (load) {
    switch (esz) {
      case 1: return &BlockRunner::MemOp<SP, true, 1, false>;
      case 2: return &BlockRunner::MemOp<SP, true, 2, false>;
      case 4:
        return sext ? ExecFn(&BlockRunner::MemOp<SP, true, 4, true>)
                    : ExecFn(&BlockRunner::MemOp<SP, true, 4, false>);
      case 8: return &BlockRunner::MemOp<SP, true, 8, false>;
    }
  } else if constexpr (SP != Space::kConst) {  // const stores: generic path throws
    switch (esz) {
      case 1: return &BlockRunner::MemOp<SP, false, 1, false>;
      case 2: return &BlockRunner::MemOp<SP, false, 2, false>;
      case 4: return &BlockRunner::MemOp<SP, false, 4, false>;
      case 8: return &BlockRunner::MemOp<SP, false, 8, false>;
    }
  }
  return nullptr;
}

ExecFn SelectMem(const Instr& i) {
  const bool load = i.op == Opcode::kLd;
  const std::size_t esz = TypeSize(i.type);
  const bool sext = load && i.type == Type::kI32;
  switch (i.space) {
    case Space::kGlobal: return PickMemSized<Space::kGlobal>(load, esz, sext);
    case Space::kShared: return PickMemSized<Space::kShared>(load, esz, sext);
    case Space::kConst: return PickMemSized<Space::kConst>(load, esz, sext);
    default: return nullptr;  // unsupported space: generic path throws at exec
  }
}

}  // namespace interp_detail

bool HasGlobalAtomic(const CompiledKernel& kernel) {
  for (const Instr& i : kernel.code) {
    switch (i.op) {
      case Opcode::kAtomAdd:
      case Opcode::kAtomMin:
      case Opcode::kAtomMax:
      case Opcode::kAtomExch:
      case Opcode::kAtomCas:
        if (i.space == Space::kGlobal) return true;
        break;
      default:
        break;
    }
  }
  return false;
}

std::shared_ptr<const DecodedKernel> DecodeKernel(const CompiledKernel& kernel,
                                                  const DeviceProfile& dev) {
  auto dk = std::make_shared<DecodedKernel>();
  dk->name = kernel.name;
  dk->code = kernel.code;
  dk->num_params = kernel.params.size();
  dk->num_vregs = kernel.num_vregs;
  dk->static_smem_bytes = kernel.static_smem_bytes;
  dk->reg_count = kernel.stats.reg_count;
  dk->has_global_atomic = HasGlobalAtomic(kernel);
  const bool has_ilp = kernel.ilp_at_pc.size() == kernel.code.size();
  dk->dec.resize(kernel.code.size());
  for (std::size_t pc = 0; pc < kernel.code.size(); ++pc) {
    const Instr& i = kernel.code[pc];
    DecodedInstr& d = dk->dec[pc];
    d.issue_cost = IssueCost(dev, i);
    d.ilp = has_ilp ? kernel.ilp_at_pc[pc] : 0.0f;
    switch (i.op) {
      case Opcode::kBra: d.kind = DKind::kBra; break;
      case Opcode::kBraPred: d.kind = DKind::kBraPred; break;
      case Opcode::kBarSync: d.kind = DKind::kBarSync; break;
      case Opcode::kExit: d.kind = DKind::kExit; break;
      case Opcode::kLd:
      case Opcode::kSt:
        d.kind = DKind::kMem;
        d.fn = SelectMem(i);
        if (!d.fn) d.fn = &BlockRunner::GenericMemOp;
        break;
      case Opcode::kAtomAdd:
      case Opcode::kAtomMin:
      case Opcode::kAtomMax:
      case Opcode::kAtomExch:
      case Opcode::kAtomCas:
        d.kind = DKind::kAtomic;
        break;
      case Opcode::kTex2D:
      case Opcode::kTex1D: d.kind = DKind::kTex; break;
      case Opcode::kNop: d.kind = DKind::kNop; break;
      default:
        d.kind = DKind::kAlu;
        d.fn = SelectAlu(i);
        if (!d.fn) d.fn = &BlockRunner::BadOp;
        break;
    }
  }
  return dk;
}

LaunchStats Interpreter::Launch(const CompiledKernel& kernel, const LaunchConfig& cfg,
                                std::span<const unsigned char> const_mem) {
  return Launch(*DecodeKernel(kernel, dev_), cfg, const_mem);
}

LaunchStats Interpreter::Launch(const DecodedKernel& kernel, const LaunchConfig& cfg,
                                std::span<const unsigned char> const_mem) {
  // Validation, spill clamping, policy resolution, and the chunk plan are the
  // tier-shared launch shell (vgpu/tier.hpp) — the native backend runs the
  // exact same code, which is half of the bit-identical-stats guarantee.
  LaunchShell shell = PrepareLaunch(dev_, cfg, kernel.reg_count, kernel.static_smem_bytes,
                                    kernel.has_global_atomic);
  std::vector<BlockStats> parts(shell.nparts);

  auto run_chunk = [&](BlockRunner& runner, std::size_t ci) {
    runner.set_stats(&parts[ci]);
    const std::uint64_t b0 = static_cast<std::uint64_t>(ci) * shell.chunk;
    const std::uint64_t b1 = std::min<std::uint64_t>(shell.nblocks, b0 + shell.chunk);
    for (std::uint64_t b = b0; b < b1; ++b) runner.RunBlock(LinearToCta(cfg.grid, b));
  };

  if (!shell.parallel) {
    BlockRunner runner(dev_, gmem_, kernel, cfg, const_mem);
    for (std::size_t ci = 0; ci < shell.nparts; ++ci) run_chunk(runner, ci);
  } else {
    // Per-worker runners come from a free-list so the pool can reuse the
    // register file and shared-memory arrays across chunks.
    std::mutex mu;
    std::vector<std::unique_ptr<BlockRunner>> idle;
    std::function<void(std::size_t)> fn = [&](std::size_t ci) {
      std::unique_ptr<BlockRunner> runner;
      {
        std::lock_guard<std::mutex> lk(mu);
        if (!idle.empty()) {
          runner = std::move(idle.back());
          idle.pop_back();
        }
      }
      if (!runner) {
        runner = std::make_unique<BlockRunner>(dev_, gmem_, kernel, cfg, const_mem);
      }
      run_chunk(*runner, ci);
      std::lock_guard<std::mutex> lk(mu);
      idle.push_back(std::move(runner));
    };
    ExecPool::Instance().ParallelFor(shell.workers, shell.nparts, fn);
  }

  FinalizeLaunchStats(dev_, shell, parts);
  return shell.stats;
}

}  // namespace kspec::vgpu
