#include "native/engine.hpp"

#include <dlfcn.h>

#include <condition_variable>
#include <filesystem>
#include <vector>

#include "kcc/serialize.hpp"
#include "native/build.hpp"
#include "native/codegen.hpp"
#include "netd/artifact_store.hpp"
#include "support/math.hpp"
#include "support/serialize.hpp"
#include "support/status.hpp"
#include "support/str.hpp"
#include "vcuda/vcuda.hpp"
#include "vgpu/exec_pool.hpp"
#include "vgpu/isa.hpp"
#include "vgpu/tier.hpp"

namespace kspec::native {
namespace {

namespace fs = std::filesystem;

// Renames a bad artifact aside so it is never read again and the next publish
// lands cleanly. Best-effort; falls back to unlink.
void QuarantineFile(const std::string& path) {
  std::error_code ec;
  fs::rename(path, path + ".bad", ec);
  if (ec) fs::remove(path, ec);
}

// The counters one artifact kind bumps, so both kinds share one ladder while
// every NativeEngineStats field keeps its meaning.
struct KindCounters {
  std::uint64_t NativeEngineStats::*builds_started;
  std::uint64_t NativeEngineStats::*builds_completed;
  std::uint64_t NativeEngineStats::*build_failures;
  std::uint64_t NativeEngineStats::*disk_hits;
  std::uint64_t NativeEngineStats::*store_hits;
};

constexpr KindCounters kGenericCounters{
    &NativeEngineStats::builds_started, &NativeEngineStats::builds_completed,
    &NativeEngineStats::build_failures, &NativeEngineStats::disk_hits,
    &NativeEngineStats::store_hits};
constexpr KindCounters kShapeCounters{
    &NativeEngineStats::shape_builds_started, &NativeEngineStats::shape_builds_completed,
    &NativeEngineStats::shape_build_failures, &NativeEngineStats::shape_disk_hits,
    &NativeEngineStats::shape_store_hits};

// ---- launch callbacks (the SO's only way back into the host) ----

const unsigned char* TryAccessCb(void* gmem, std::uint64_t addr, std::uint64_t len) {
  return static_cast<const vgpu::GlobalMemory*>(gmem)->TryAccess(addr, len);
}

unsigned char* AccessCb(void* gmem, std::uint64_t addr, std::uint64_t len) {
  return static_cast<vgpu::GlobalMemory*>(gmem)->Access(addr, len);
}

// Context for formatting the interpreter's exact error text host-side: the
// SO reports (code, a, b); the host owns the kernel and launch geometry.
struct FailCtx {
  const vgpu::CompiledKernel* kernel = nullptr;
  std::size_t shared_size = 0;
  std::size_t const_size = 0;
};

[[noreturn]] void FailCb(void* ctx, int code, std::uint64_t a, std::uint64_t b) {
  const FailCtx& fc = *static_cast<const FailCtx*>(ctx);
  switch (static_cast<KspecNativeFail>(code)) {
    case kFailSharedOob:
      throw DeviceError(Format("shared-memory access out of bounds: 0x%llx (+%zu) of %zu bytes",
                               static_cast<unsigned long long>(a),
                               static_cast<std::size_t>(b), fc.shared_size));
    case kFailConstOob:
      throw DeviceError(Format("constant-memory access out of bounds: 0x%llx of %zu bytes",
                               static_cast<unsigned long long>(a), fc.const_size));
    case kFailConstStore:
      throw DeviceError("store to constant memory");
    case kFailBadSpace:
      throw DeviceError("unsupported memory space in ld/st");
    case kFailMisalignedAtomic:
      throw DeviceError(Format("misaligned %zu-byte atomic at 0x%llx",
                               static_cast<std::size_t>(a),
                               static_cast<unsigned long long>(b)));
    case kFailTexUnbound:
      throw DeviceError(Format("texture slot %d is not bound at launch",
                               static_cast<int>(static_cast<std::int64_t>(a))));
    case kFailTexInvalid:
      throw DeviceError(Format("texture slot %d has an invalid binding",
                               static_cast<int>(static_cast<std::int64_t>(a))));
    case kFailDivergentBarrier:
      throw DeviceError("__syncthreads() executed in divergent control flow");
    case kFailWatchdog:
      throw DeviceError(
          "kernel exceeded the simulator watchdog limit (likely a non-terminating loop); raise "
          "DeviceProfile::watchdog_warp_instrs if the workload is legitimately huge");
    case kFailBarrierDeadlock:
      throw DeviceError("__syncthreads deadlock: a warp retired or diverged past the barrier");
    case kFailNoProgress:
      throw DeviceError("block made no progress (scheduler deadlock)");
    case kFailBadOp: {
      // a = pc of the invalid (opcode, type) pair; mirror BlockRunner::BadOp.
      const vgpu::Instr& i = fc.kernel->code[static_cast<std::size_t>(a)];
      if (i.type == vgpu::Type::kF32) {
        throw InternalError(Format("op %s invalid for f32", vgpu::OpcodeName(i.op)));
      }
      if (i.type == vgpu::Type::kF64) {
        throw InternalError(Format("op %s invalid for f64", vgpu::OpcodeName(i.op)));
      }
      throw InternalError(Format("unhandled opcode %s for type %s", vgpu::OpcodeName(i.op),
                                 vgpu::TypeName(i.type)));
    }
    case kFailBadDispatch:
      throw InternalError(Format("native tier: branch to non-leader pc %llu",
                                 static_cast<unsigned long long>(a)));
    case kFailBadAtomic:
      throw InternalError("bad atomic opcode");
    case kFailNoReconv:
      throw InternalError("divergent branch without reconvergence point");
  }
  throw InternalError(Format("native tier: unknown failure code %d", code));
}

}  // namespace

struct NativeEngine::LoadedModule {
  // Generic TUs are never dlclosed once any kernel ran: they hold
  // thread_local state whose destructors would run after the handle is gone.
  // Shape-variant TUs are emitted without thread_local state precisely so
  // closeable can be true and LRU eviction can really unload them.
  void* handle = nullptr;
  bool closeable = false;
  RunBlockFn run_block = nullptr;
  std::map<std::string, unsigned> kernels;  // name -> export index

  ~LoadedModule() {
    if (handle != nullptr && closeable) ::dlclose(handle);
  }
};

// One artifact's state. The generic artifact and every shape variant run the
// same machine; heat, last_used and promote_queued only matter for shapes.
struct NativeEngine::Slot {
  enum State {
    kUnknown,   // never probed (or evicted; the disk artifact may remain)
    kMissing,   // probed load-only: nothing servable, a build may fix it
    kBuilding,  // one thread (launch or promoter) owns the ladder; others wait or degrade
    kReady,
    kFailed,    // build failed; sticky for the life of the process
  } state = kUnknown;
  std::shared_ptr<LoadedModule> loaded;
  std::uint64_t heat = 0;       // launches observed for this slot
  std::uint64_t last_used = 0;  // LRU tick of the last serve
  bool promote_queued = false;  // a background promotion is queued/running
};

struct NativeEngine::Entry {
  std::mutex mu;
  std::condition_variable cv;
  // By shape canonical text; "" is the generic artifact, which is never
  // evicted. Shape slots are bounded by Options::max_shape_variants.
  std::map<std::string, Slot> slots;
};

struct NativeEngine::Policy {
  bool may_build = false;  // run the build rung when nothing is loadable
  bool wait = false;       // block while another thread owns the slot's ladder
  // Non-null (shape slots only): once the slot is hot, queue a background
  // build of this module.
  std::shared_ptr<const kcc::CompiledModule> promote;
};

struct NativeEngine::PromoteJob {
  std::shared_ptr<Entry> entry;
  kcc::ModuleCacheKey key;
  std::shared_ptr<const kcc::CompiledModule> mod;
  ShapeSpec shape;
  std::string shape_text;
};

NativeEngine::NativeEngine() : NativeEngine(Options{}) {}

NativeEngine::NativeEngine(Options opts)
    : opts_(std::move(opts)), scratch_("kspec-native-so") {}

NativeEngine::~NativeEngine() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    promo_shutdown_ = true;
  }
  promo_cv_.notify_all();
  if (promoter_.joinable()) promoter_.join();
}

std::string NativeEngine::ArtifactFileName(const kcc::ModuleCacheKey& key) {
  return Format("k%016llx.nso", static_cast<unsigned long long>(key.Hash()));
}

std::string NativeEngine::VariantFileName(const kcc::ModuleCacheKey& key,
                                          const ShapeSpec& shape) {
  return Format("k%016llx_s%016llx.nso", static_cast<unsigned long long>(key.Hash()),
                static_cast<unsigned long long>(shape.Hash()));
}

std::string NativeEngine::VariantKeyText(const kcc::ModuleCacheKey& key,
                                         const ShapeSpec& shape) {
  // The module canonical text is length-prefixed binary, so appending a
  // suffix cannot collide with any other module's bare text — and no generic
  // artifact ever embeds a text with this suffix.
  return key.CanonicalText() + "\n" + shape.CanonicalText();
}

NativeEngineStats NativeEngine::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void NativeEngine::Count(std::uint64_t NativeEngineStats::*field, std::uint64_t n) {
  std::lock_guard<std::mutex> lk(mu_);
  stats_.*field += n;
}

std::shared_ptr<NativeEngine::Entry> NativeEngine::EntryFor(const kcc::ModuleCacheKey& key) {
  std::lock_guard<std::mutex> lk(mu_);
  std::shared_ptr<Entry>& entry = entries_[key.CanonicalText()];
  if (!entry) entry = std::make_shared<Entry>();
  return entry;
}

bool NativeEngine::SlotReady(const kcc::ModuleCacheKey& key, const std::string& slot_text) const {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = entries_.find(key.CanonicalText());
    if (it == entries_.end()) return false;
    entry = it->second;
  }
  std::lock_guard<std::mutex> lk(entry->mu);
  auto it = entry->slots.find(slot_text);
  return it != entry->slots.end() && it->second.state == Slot::kReady;
}

bool NativeEngine::IsReady(const kcc::ModuleCacheKey& key) const { return SlotReady(key, ""); }

bool NativeEngine::IsVariantReady(const kcc::ModuleCacheKey& key, const ShapeSpec& shape) const {
  return SlotReady(key, shape.CanonicalText());
}

bool NativeEngine::EnsureReady(const kcc::ModuleCacheKey& key, const kcc::CompiledModule& mod) {
  return Acquire(EntryFor(key), key, /*shape=*/nullptr, &mod,
                 Policy{.may_build = true, .wait = true, .promote = nullptr}) != nullptr;
}

std::shared_ptr<NativeEngine::LoadedModule> NativeEngine::Acquire(
    const std::shared_ptr<Entry>& entry, const kcc::ModuleCacheKey& key, const ShapeSpec* shape,
    const kcc::CompiledModule* mod, const Policy& policy) {
  const std::string slot_text = shape != nullptr ? shape->CanonicalText() : std::string();
  std::unique_lock<std::mutex> lk(entry->mu);
  Slot& slot = entry->slots[slot_text];
  ++slot.heat;
  for (;;) {
    switch (slot.state) {
      case Slot::kReady:
        slot.last_used = ++lru_tick_;
        return slot.loaded;
      case Slot::kFailed:
        return nullptr;
      case Slot::kBuilding:
        // Forced and eager launches wait for the build in flight; kAuto never
        // blocks — the generic artifact (or the decoded tier) serves it.
        if (!policy.wait) return nullptr;
        entry->cv.wait(lk);
        continue;
      case Slot::kUnknown:
      case Slot::kMissing:
        break;
    }
    break;
  }

  if (slot.state == Slot::kMissing && !policy.may_build) {
    // The load-only ladder already came up empty; only a build changes that.
    // Queue a background promotion once the slot is hot.
    if (!policy.promote || slot.promote_queued || slot.heat < opts_.shape_hot_threshold ||
        !ToolchainAvailable()) {
      return nullptr;
    }
    slot.promote_queued = true;
    lk.unlock();
    std::lock_guard<std::mutex> lk2(mu_);
    if (!promo_shutdown_) {
      if (!promoter_.joinable()) promoter_ = std::thread(&NativeEngine::PromoterMain, this);
      promo_queue_.push_back(PromoteJob{entry, key, policy.promote, *shape, slot_text});
      promo_cv_.notify_all();
    }
    return nullptr;
  }

  // First probe (load-only unless the policy builds) or a build: run the
  // ladder with the slot claimed.
  slot.state = Slot::kBuilding;
  lk.unlock();
  std::shared_ptr<LoadedModule> lm;
  try {
    lm = LoadOrBuild(key, shape, mod, policy.may_build);
  } catch (...) {
    lm = nullptr;
  }
  Finish(entry, slot_text, lm, /*built=*/policy.may_build, /*served=*/true);
  return lm;
}

void NativeEngine::Finish(const std::shared_ptr<Entry>& entry, const std::string& slot_text,
                          std::shared_ptr<LoadedModule> lm, bool built, bool served) {
  // Evicted handles are released outside the lock: the shared_ptr dlcloses
  // the SO once the last in-flight launch using it drops its reference.
  std::vector<std::shared_ptr<LoadedModule>> evicted;
  {
    std::lock_guard<std::mutex> lk(entry->mu);
    Slot& slot = entry->slots[slot_text];
    slot.promote_queued = false;
    if (!lm) {
      // A failed *build* is sticky; a fruitless load-only probe is retriable
      // once somebody may build.
      slot.loaded.reset();
      slot.state = built ? Slot::kFailed : Slot::kMissing;
    } else {
      slot.loaded = std::move(lm);
      slot.state = Slot::kReady;
      if (served) slot.last_used = ++lru_tick_;
      unsigned ready = 0;
      for (const auto& [text, s] : entry->slots) {
        if (!text.empty() && s.state == Slot::kReady) ++ready;
      }
      while (!slot_text.empty() && ready > opts_.max_shape_variants) {
        auto victim = entry->slots.end();
        for (auto it = entry->slots.begin(); it != entry->slots.end(); ++it) {
          if (it->first.empty() || it->first == slot_text || it->second.state != Slot::kReady) {
            continue;
          }
          if (victim == entry->slots.end() || it->second.last_used < victim->second.last_used) {
            victim = it;
          }
        }
        if (victim == entry->slots.end()) break;  // only the new variant left
        // Back to kUnknown: the disk/store artifact survives eviction, so a
        // future launch re-enters the load ladder instead of rebuilding.
        Slot& v = victim->second;
        evicted.push_back(std::move(v.loaded));
        v.state = Slot::kUnknown;
        v.heat = 0;
        v.promote_queued = false;
        --ready;
      }
    }
    entry->cv.notify_all();
  }
  if (!evicted.empty()) Count(&NativeEngineStats::shape_evicted, evicted.size());
}

std::shared_ptr<NativeEngine::LoadedModule> NativeEngine::TryLoadEnvelope(
    const std::vector<std::uint8_t>& envelope, const std::string& expect_key_text,
    const std::string& quarantine_path, bool closeable) {
  std::string key_text;
  std::vector<std::uint8_t> so_bytes;
  try {
    so_bytes = kcc::DeserializeNative(envelope, &key_text);
  } catch (const SerializeError&) {
    if (!quarantine_path.empty()) QuarantineFile(quarantine_path);
    Count(&NativeEngineStats::corrupt_quarantined);
    return nullptr;
  }
  if (key_text != expect_key_text) {
    // Hash collision: the artifact belongs to a different key. Leave it in
    // place for its own key; this launch degrades.
    Count(&NativeEngineStats::stale_discarded);
    return nullptr;
  }
  return OpenSharedObject(so_bytes, expect_key_text, quarantine_path, closeable);
}

std::shared_ptr<NativeEngine::LoadedModule> NativeEngine::OpenSharedObject(
    const std::vector<std::uint8_t>& so_bytes, const std::string& expect_key_text,
    const std::string& origin, bool closeable) {
  std::string path;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!scratch_.valid()) return nullptr;
    path = scratch_.File(Format("so_%llu.so",
                                static_cast<unsigned long long>(scratch_seq_++)));
  }
  if (!WriteFileAtomic(path, so_bytes)) return nullptr;
  void* handle = ::dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!handle) return nullptr;

  auto abi = reinterpret_cast<AbiVersionFn>(::dlsym(handle, "kspec_native_abi_version"));
  auto build_key = reinterpret_cast<BuildKeyFn>(::dlsym(handle, "kspec_native_build_key"));
  auto build_key_size =
      reinterpret_cast<BuildKeySizeFn>(::dlsym(handle, "kspec_native_build_key_size"));
  auto count = reinterpret_cast<KernelCountFn>(::dlsym(handle, "kspec_native_kernel_count"));
  auto name = reinterpret_cast<KernelNameFn>(::dlsym(handle, "kspec_native_kernel_name"));
  auto run = reinterpret_cast<RunBlockFn>(::dlsym(handle, "kspec_native_run_block"));
  // The embedded key is binary (the canonical text has NULs) — compare by
  // (pointer, size), never strlen.
  if (!abi || !build_key || !build_key_size || !count || !name || !run ||
      abi() != kNativeAbiVersion ||
      expect_key_text !=
          std::string_view(build_key(), static_cast<std::size_t>(build_key_size()))) {
    // Stale or foreign SO (older codegen, bumped ABI). Nothing stateful ran
    // yet, so dlclose is safe here even for a non-closeable module. An
    // on-disk original is quarantined so the rebuild replaces it.
    ::dlclose(handle);
    if (!origin.empty()) QuarantineFile(origin);
    Count(&NativeEngineStats::stale_discarded);
    return nullptr;
  }

  auto lm = std::make_shared<LoadedModule>();
  lm->handle = handle;
  lm->closeable = closeable;
  lm->run_block = run;
  const unsigned n = count();
  for (unsigned i = 0; i < n; ++i) lm->kernels[name(i)] = i;
  return lm;
}

std::shared_ptr<NativeEngine::LoadedModule> NativeEngine::LoadOrBuild(
    const kcc::ModuleCacheKey& key, const ShapeSpec* shape, const kcc::CompiledModule* mod,
    bool may_build) {
  const KindCounters& c = shape != nullptr ? kShapeCounters : kGenericCounters;
  const std::string key_text = shape != nullptr ? VariantKeyText(key, *shape) : key.CanonicalText();
  const std::string file_name =
      shape != nullptr ? VariantFileName(key, *shape) : ArtifactFileName(key);
  // Only shape TUs are emitted without thread_local state, so only they may
  // be dlclosed on eviction.
  const bool closeable = shape != nullptr;

  // 1. Disk tier.
  std::string disk_path;
  if (!opts_.cache_dir.empty()) {
    disk_path = (fs::path(opts_.cache_dir) / file_name).string();
    std::vector<std::uint8_t> envelope;
    if (ReadFileBytes(disk_path, &envelope)) {
      if (auto lm = TryLoadEnvelope(envelope, key_text, disk_path, closeable)) {
        Count(c.disk_hits);
        return lm;
      }
    }
  }

  // 2. Shared store tier (write through to the disk tier on a hit).
  if (opts_.store) {
    std::vector<std::uint8_t> envelope;
    if (opts_.store->LoadNativeBytes(file_name, key_text, &envelope)) {
      if (auto lm = TryLoadEnvelope(envelope, key_text, /*quarantine_path=*/"", closeable)) {
        if (!disk_path.empty()) WriteFileAtomic(disk_path, envelope);
        Count(c.store_hits);
        return lm;
      }
    }
  }

  // 3. Build.
  if (!may_build || mod == nullptr || !ToolchainAvailable()) return nullptr;
  Count(c.builds_started);
  const std::string source = EmitModuleSource(*mod, key_text, shape);
  std::string error;
  const std::vector<std::uint8_t> so_bytes = CompileSharedObject(source, &error);
  auto lm = so_bytes.empty() ? nullptr
                             : OpenSharedObject(so_bytes, key_text, /*origin=*/"", closeable);
  if (!lm) {
    Count(c.build_failures);
    return nullptr;
  }
  Count(c.builds_completed);
  const std::vector<std::uint8_t> envelope = kcc::SerializeNative(so_bytes, key_text);
  if (!disk_path.empty()) WriteFileAtomic(disk_path, envelope);
  if (opts_.store) opts_.store->PublishNativeBytes(file_name, key_text, envelope);
  return lm;
}

void NativeEngine::PromoterMain() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    promo_cv_.wait(lk, [&] { return promo_shutdown_ || !promo_queue_.empty(); });
    if (promo_shutdown_) return;
    PromoteJob job = std::move(promo_queue_.front());
    promo_queue_.pop_front();
    ++promo_inflight_;
    lk.unlock();

    // Claim the slot unless a launch resolved it since the job was queued.
    bool run = false;
    {
      std::lock_guard<std::mutex> elk(job.entry->mu);
      Slot& slot = job.entry->slots[job.shape_text];
      if (slot.state == Slot::kUnknown || slot.state == Slot::kMissing) {
        slot.state = Slot::kBuilding;
        run = true;
      }
    }
    if (run) {
      std::shared_ptr<LoadedModule> lm;
      try {
        lm = LoadOrBuild(job.key, &job.shape, job.mod.get(), /*may_build=*/true);
      } catch (...) {
        lm = nullptr;
      }
      Finish(job.entry, job.shape_text, std::move(lm), /*built=*/true, /*served=*/false);
    }

    lk.lock();
    --promo_inflight_;
    promo_cv_.notify_all();
  }
}

void NativeEngine::DrainShapeBuilds() {
  std::unique_lock<std::mutex> lk(mu_);
  promo_cv_.wait(lk, [&] { return promo_queue_.empty() && promo_inflight_ == 0; });
}

bool NativeEngine::TryLaunch(vcuda::Context& ctx, const vcuda::NativeLaunchRequest& req,
                             vgpu::LaunchStats* out) {
  if (req.served_shape != nullptr) *req.served_shape = false;
  if (req.key == nullptr || req.kernel == nullptr || req.cfg == nullptr || out == nullptr) {
    Count(&NativeEngineStats::fallbacks);
    return false;
  }

  // The generic slot resolves first and stays resident: it is the
  // always-available fallback the shape slots sit on, and the build/hit
  // counters it feeds keep their exact meanings whether or not a variant
  // ends up serving. Only once the generic artifact can serve this key at
  // all do we look for a shape-specialized variant on top. Variants assume
  // the 32-lane warp layout their codegen bakes in, so any other warp size
  // stays on the generic path.
  const std::shared_ptr<Entry> entry = EntryFor(*req.key);
  const kcc::CompiledModule* mod = req.module.get();
  std::shared_ptr<LoadedModule> lm =
      Acquire(entry, *req.key, /*shape=*/nullptr, mod,
              Policy{.may_build = req.require, .wait = req.require, .promote = nullptr});
  bool shape_served = false;
  if (lm != nullptr) {
    const vgpu::ShapeMode mode = vgpu::ResolveShapeMode(opts_.shape_mode);
    if (mode != vgpu::ShapeMode::kOff && ctx.device().warp_size == 32) {
      const bool eager = mode == vgpu::ShapeMode::kEager;
      const ShapeSpec shape = ShapeSpec::FromConfig(*req.cfg);
      const Policy policy{.may_build = eager && mod != nullptr,
                          .wait = eager,
                          .promote = mode == vgpu::ShapeMode::kAuto ? req.module : nullptr};
      if (std::shared_ptr<LoadedModule> variant = Acquire(entry, *req.key, &shape, mod, policy)) {
        lm = std::move(variant);
        shape_served = true;
      }
    }
  }
  std::map<std::string, unsigned>::const_iterator it;
  if (!lm || (it = lm->kernels.find(req.kernel->name)) == lm->kernels.end()) {
    Count(&NativeEngineStats::fallbacks);
    return false;
  }
  *out = RunNative(ctx, *lm, it->second, req);
  if (shape_served && req.served_shape != nullptr) *req.served_shape = true;
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.served_launches;
  if (shape_served) {
    ++stats_.shape_served_launches;
    ++stats_.shape_memory_hits;
  } else {
    ++stats_.memory_hits;
  }
  return true;
}

vgpu::LaunchStats NativeEngine::RunNative(vcuda::Context& ctx, const LoadedModule& lm,
                                          unsigned kernel_index,
                                          const vcuda::NativeLaunchRequest& req) {
  const vgpu::CompiledKernel& k = *req.kernel;
  const vgpu::LaunchConfig& cfg = *req.cfg;
  const vgpu::DeviceProfile& dev = ctx.device();

  // The shared launch shell — the same validation, spill clamping, policy
  // resolution, and chunk plan the interpreter runs (vgpu/tier.hpp).
  vgpu::LaunchShell shell = vgpu::PrepareLaunch(dev, cfg, k.stats.reg_count, k.static_smem_bytes,
                                                vgpu::HasGlobalAtomic(k));
  KSPEC_CHECK_MSG(cfg.args.size() == k.params.size(), "argument count mismatch");

  const unsigned nthreads = static_cast<unsigned>(cfg.block.Count());
  const unsigned nwarps = CeilDiv(nthreads, dev.warp_size);
  const unsigned stride = nwarps * dev.warp_size;

  // Per-lane thread coordinates, the interpreter's exact formula (padding
  // lanes clamp to the last thread).
  std::vector<std::uint32_t> tid_x(stride), tid_y(stride), tid_z(stride);
  for (unsigned t = 0; t < stride; ++t) {
    const unsigned lin = std::min(t, nthreads - 1);
    tid_x[t] = lin % cfg.block.x;
    tid_y[t] = (lin / cfg.block.x) % cfg.block.y;
    tid_z[t] = lin / (cfg.block.x * cfg.block.y);
  }

  std::vector<KspecNativeTexture> textures(cfg.textures.size());
  for (std::size_t i = 0; i < cfg.textures.size(); ++i) {
    textures[i].base = cfg.textures[i].base;
    textures[i].w = cfg.textures[i].w;
    textures[i].h = cfg.textures[i].h;
  }

  const std::size_t shared_bytes =
      static_cast<std::size_t>(k.static_smem_bytes) + cfg.dynamic_smem_bytes;
  FailCtx fctx;
  fctx.kernel = &k;
  fctx.shared_size = shared_bytes;
  fctx.const_size = req.const_mem.size();

  KspecNativeLaunch L;
  L.is_fermi = dev.IsFermi() ? 1 : 0;
  L.warp_size = dev.warp_size;
  L.shared_mem_banks = dev.shared_mem_banks;
  L.cycles_per_global_tx = dev.cycles_per_global_tx;
  L.shared_access_cost = dev.shared_access_cost;
  L.watchdog_warp_instrs = dev.watchdog_warp_instrs;
  L.grid_x = cfg.grid.x;
  L.grid_y = cfg.grid.y;
  L.grid_z = cfg.grid.z;
  L.block_x = cfg.block.x;
  L.block_y = cfg.block.y;
  L.block_z = cfg.block.z;
  L.args = cfg.args.data();
  L.nargs = cfg.args.size();
  L.cmem = req.const_mem.data();
  L.cmem_bytes = req.const_mem.size();
  L.textures = textures.data();
  L.ntextures = textures.size();
  L.tid_x = tid_x.data();
  L.tid_y = tid_y.data();
  L.tid_z = tid_z.data();
  L.cb.gmem = &ctx.memory();
  L.cb.try_access = &TryAccessCb;
  L.cb.access = &AccessCb;
  L.cb.fail_ctx = &fctx;
  L.cb.fail = &FailCb;

  // The per-worker execution state the SO borrows for each block. Mirrors
  // BlockRunner: the register file and shared array are reused across blocks
  // and chunks, the watchdog accumulator spans the runner's lifetime.
  struct Runner {
    std::vector<std::uint64_t> regs;
    std::vector<unsigned char> shared;
    std::uint64_t wd_accum = 0;
  };
  auto make_runner = [&] {
    auto r = std::make_unique<Runner>();
    r->regs.resize(static_cast<std::size_t>(k.num_vregs) * stride);
    r->shared.resize(shared_bytes);
    return r;
  };

  std::vector<vgpu::BlockStats> parts(shell.nparts);
  auto run_chunk = [&](Runner& r, std::size_t ci) {
    KspecNativeStats ns;  // zero-initialized; the SO only accumulates
    const std::uint64_t b0 = static_cast<std::uint64_t>(ci) * shell.chunk;
    const std::uint64_t b1 = std::min<std::uint64_t>(shell.nblocks, b0 + shell.chunk);
    for (std::uint64_t b = b0; b < b1; ++b) {
      const vgpu::Dim3 cta = vgpu::LinearToCta(cfg.grid, b);
      KspecNativeBlock blk;
      blk.ctaid_x = cta.x;
      blk.ctaid_y = cta.y;
      blk.ctaid_z = cta.z;
      blk.regs = r.regs.data();
      blk.shared = r.shared.data();
      blk.shared_bytes = shared_bytes;
      blk.stats = &ns;
      blk.wd_accum = &r.wd_accum;
      lm.run_block(kernel_index, &L, &blk);
    }
    vgpu::BlockStats& p = parts[ci];
    p.warp_instrs = ns.warp_instrs;
    p.lane_instrs = ns.lane_instrs;
    p.global_instrs = ns.global_instrs;
    p.mem_transactions = ns.mem_transactions;
    p.texture_fetches = ns.texture_fetches;
    p.shared_conflict_cycles = ns.shared_conflict_cycles;
    p.barriers = ns.barriers;
    p.issue_cycles = ns.issue_cycles;
    p.memory_cycles = ns.memory_cycles;
    p.ilp_sum = ns.ilp_sum;
  };

  if (!shell.parallel) {
    std::unique_ptr<Runner> runner = make_runner();
    for (std::size_t ci = 0; ci < shell.nparts; ++ci) run_chunk(*runner, ci);
  } else {
    std::mutex mu;
    std::vector<std::unique_ptr<Runner>> idle;
    std::function<void(std::size_t)> fn = [&](std::size_t ci) {
      std::unique_ptr<Runner> runner;
      {
        std::lock_guard<std::mutex> lk(mu);
        if (!idle.empty()) {
          runner = std::move(idle.back());
          idle.pop_back();
        }
      }
      if (!runner) runner = make_runner();
      run_chunk(*runner, ci);
      std::lock_guard<std::mutex> lk(mu);
      idle.push_back(std::move(runner));
    };
    vgpu::ExecPool::Instance().ParallelFor(shell.workers, shell.nparts, fn);
  }

  vgpu::FinalizeLaunchStats(dev, shell, parts);
  return shell.stats;
}

}  // namespace kspec::native
