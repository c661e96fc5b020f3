// Compiled-kernel container: the output of the kcc compiler and the input to
// the vgpu interpreter.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "vgpu/isa.hpp"
#include "vgpu/types.hpp"

namespace kspec::vgpu {

struct KernelParam {
  std::string name;
  Type type = Type::kI32;
};

// Statistics produced at compile time, used by benchmarks and the occupancy
// model. `reg_count` is the headline number the dissertation tracks: the
// per-thread register count after allocation (specialized kernels need fewer
// registers because folded constants never occupy one).
struct CompileStats {
  int reg_count = 0;          // allocated physical registers per thread
  int static_instrs = 0;      // static instruction count
  int unrolled_loops = 0;     // loops fully unrolled by the front-end
  int folded_consts = 0;      // constant-folding rewrites applied
  int strength_reduced = 0;   // div/mod/mul -> shift/mask rewrites
  // Compile wall time lives on kcc::CompiledModule::compile_millis (it is a
  // whole-module cost, not a per-kernel one).
};

struct CompiledKernel {
  std::string name;
  std::vector<Instr> code;

  // Parameter i is pre-loaded into virtual register i at thread start.
  std::vector<KernelParam> params;

  int num_vregs = 0;           // virtual register file size per thread
  unsigned static_smem_bytes = 0;

  // Per-pc static ILP estimate of the enclosing basic block (instructions /
  // critical-path length); feeds the latency-hiding cost model.
  std::vector<float> ilp_at_pc;

  CompileStats stats;

  // MiniPTX listing (the Appendix C/D artifact).
  std::string listing;
};

// True when the kernel has an atomic on global memory. Such launches keep
// kAuto block execution serial (vgpu::PrepareLaunch) on every tier.
bool HasGlobalAtomic(const CompiledKernel& kernel);

}  // namespace kspec::vgpu
