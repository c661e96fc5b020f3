#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "kcc/lower.hpp"
#include "kcc/parser.hpp"
#include "kcc/passes.hpp"
#include "kcc/preprocess.hpp"
#include "kcc/regalloc.hpp"
#include "kcc/sema.hpp"
#include "kcc/unroll.hpp"
#include "support/timer.hpp"

namespace perfbench {

namespace kv = kspec::vcuda;
namespace kcc = kspec::kcc;

kv::SubmitResult RecordingService::SubmitLoad(kv::Context& ctx, const kv::CompileRequest& req) {
  Submission sub;
  sub.req = req;
  sub.at_us = clock_->NowUs();
  kv::SubmitResult result;  // default: rejected
  if (next_) result = next_->SubmitLoad(ctx, req);
  sub.future = result.future;
  std::lock_guard<std::mutex> lock(mu_);
  log_.push_back(std::move(sub));
  return result;
}

std::vector<RecordingService::Submission> RecordingService::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(log_, {});
}

namespace {

kspec::launch::RunnerOptions TieredHotAtOnce() {
  kspec::launch::RunnerOptions ro;
  ro.policy = kspec::launch::LoadPolicy::kTiered;
  ro.hot_threshold = 1;
  return ro;
}

}  // namespace

KeyFinder::KeyFinder(const Tracer* clock)
    : refuse_(nullptr, clock), ctx_(kspec::vgpu::TeslaC2070()), runner_(ctx_, TieredHotAtOnce()) {
  ctx_.set_async_service(&refuse_);  // a kTiered runner reads it per load
}

std::vector<ModuleKey> KeyFinder::Find(const AppCase& c) {
  refuse_.Take();
  try {
    RunApp(runner_, c);
  } catch (const std::exception&) {
    // The run-time-evaluated build may refuse a launch the specialized one
    // accepts; the keys were recorded when each stage loaded, before that.
  }
  std::vector<ModuleKey> keys;
  std::vector<std::string> seen;
  for (auto& sub : refuse_.Take()) {
    std::string text =
        kcc::ModuleCacheKey::Make(sub.req.source, sub.req.opts, ctx_.device().name)
            .CanonicalText();
    if (std::find(seen.begin(), seen.end(), text) != seen.end()) continue;
    seen.push_back(std::move(text));
    keys.push_back({sub.req.source, sub.req.opts});
  }
  return keys;
}

KccProbe ProbeKcc(const ModuleKey& key, Tracer& tracer) {
  KccProbe p;
  {
    Tracer::Scope span(tracer, "kcc.compile");
    kspec::WallTimer t;
    p.module = kcc::CompileModule(key.source, key.opts);
    p.compile_ms = t.ElapsedMillis();
    for (const auto& k : p.module.kernels) {
      p.static_instrs += k.stats.static_instrs;
      p.max_regs = std::max(p.max_regs, k.stats.reg_count);
    }
  }

  // compiler.cpp's sequence, one span per phase.
  auto timed = [&](const char* name, double* ms, auto&& fn) {
    Tracer::Scope span(tracer, name);
    kspec::WallTimer t;
    fn();
    *ms += t.ElapsedMillis();
  };
  const kcc::CompileOptions& opts = key.opts;
  std::string pre;
  kcc::ModuleAst ast;
  timed("kcc.preprocess", &p.preprocess_ms, [&] { pre = kcc::Preprocess(key.source, opts.defines); });
  timed("kcc.parse", &p.parse_ms, [&] { ast = kcc::Parse(pre); });
  timed("kcc.sema", &p.sema_ms, [&] { kcc::Analyze(ast); });
  for (auto& kdecl : ast.kernels) {
    timed("kcc.unroll", &p.unroll_ms, [&] {
      kcc::UnrollLoops(kdecl, opts.enable_unroll ? opts.max_unroll : 1);
      kcc::ScalarizeLocalArrays(kdecl);
      kcc::AnalyzeKernel(ast, kdecl);
    });
    kcc::LoweredKernel low;
    timed("kcc.lower", &p.lower_ms, [&] { low = kcc::Lower(ast, kdecl); });
    timed("kcc.optimize", &p.optimize_ms, [&] {
      if (!opts.optimize) return;
      kcc::PassOptions pass_opts;
      pass_opts.strength_reduction = opts.enable_strength_reduction;
      pass_opts.cse = opts.enable_cse;
      kcc::Optimize(low.code, low.vreg_types, pass_opts);
    });
    timed("kcc.regalloc", &p.regalloc_ms,
          [&] { kcc::AllocateRegisters(low.code, low.vreg_types); });
    p.phase_static_instrs += static_cast<int>(low.code.size());
  }
  return p;
}

Ledger::Ledger(std::string path) : path_(std::move(path)) {
  std::ifstream in(path_);
  std::string line;
  while (std::getline(in, line)) {
    const auto tab = line.rfind('\t');
    if (tab == std::string::npos) continue;
    values_[line.substr(0, tab)] = line.substr(tab + 1);
  }
}

std::string Ledger::Observe(const std::string& key, const std::string& field,
                            const std::string& value) {
  auto [it, inserted] = values_.emplace(key + "\t" + field, value);
  if (inserted || it->second == value) return {};
  return key + " " + field + " is " + value + ", recorded " + it->second;
}

bool Ledger::Save() const {
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp);
    for (const auto& [k, v] : values_) out << k << '\t' << v << '\n';
    if (!out) return false;
  }
  return std::rename(tmp.c_str(), path_.c_str()) == 0;
}

std::string ExactDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

}  // namespace perfbench
