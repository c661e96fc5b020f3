// The native execution tier: content-addressed shared-object artifacts plus
// the host-side launch mirror that runs them.
//
// NativeEngine implements vcuda::NativeExecutionService. An artifact is one
// module's emitted TU, either shape-generic or specialized on one launch
// shape (block and grid dimensions compiled in: codegen + maskprop). Each
// module key owns a small map of slots, one per artifact, keyed by the
// shape's canonical text; the generic artifact is the slot with the empty
// text. Every slot runs the same state machine
//
//   unknown -> building -> ready | missing (load-only probe) | failed
//
// over the same artifact ladder:
//
//   memory  — a dlopen'd shared object, reused for every later launch;
//   disk    — `k%016llx.nso` (generic) or `k%016llx_s%016llx.nso` (shape)
//             files in cache_dir, the .kmod layout's sibling: a second
//             process with a warm cache directory serves the native tier
//             with zero rebuilds;
//   store   — the shared netd::ArtifactStore, when attached (write-through
//             to disk on a hit);
//   build   — emit + host C++ compile + dlopen, published to disk and store.
//
// Every artifact is the self-validating kcc::SerializeNative envelope; a
// corrupt file is quarantined (renamed aside) and treated as a miss, a loaded
// SO whose kspec_native_abi_version or embedded build key disagrees is
// discarded as stale — in every case the launch degrades instead of failing.
// The two kinds differ only in key text, file name, whether the SO may be
// dlclosed, and which NativeEngineStats counters they bump.
//
// What one launch may do with a slot is its policy. The generic slot builds
// and waits under a forced native launch (NativeLaunchRequest::require) and
// only serves what is loadable under kAuto, leaving background builds to
// NativeBuildExecutor riding the serve pipeline. Once the generic artifact
// serves, a shape slot is acquired on top of it: under ShapeMode::kEager it
// builds and waits; under kAuto it never blocks, and a (module, shape) pair
// that crosses Options::shape_hot_threshold launches is handed to a
// background promoter thread. The generic artifact always stays resident as
// the fallback. Shape slots beyond Options::max_shape_variants are
// LRU-evicted — and since shape TUs hold no thread_local state, an evicted
// variant's shared object really is dlclosed once its last in-flight launch
// completes.
//
// The launch itself mirrors the interpreter's shell exactly: the shared
// vgpu::PrepareLaunch / FinalizeLaunchStats bracket per-chunk runs, per-worker
// register files come from the same free-list idiom, and the chunk partials
// fold in chunk order — which is why the native tier's LaunchStats are
// bit-identical to the decoded tier's.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "native/abi.hpp"
#include "native/shape.hpp"
#include "support/temp_dir.hpp"
#include "vcuda/native_hook.hpp"
#include "vgpu/tier.hpp"

namespace kspec::netd {
class ArtifactStore;
}

namespace kspec::native {

struct NativeEngineStats {
  std::uint64_t builds_started = 0;
  std::uint64_t builds_completed = 0;
  std::uint64_t build_failures = 0;
  std::uint64_t served_launches = 0;   // launches run on the native tier
  std::uint64_t fallbacks = 0;         // TryLaunch returned false
  std::uint64_t memory_hits = 0;       // already-loaded SO served a launch
  std::uint64_t disk_hits = 0;         // artifact loaded from cache_dir
  std::uint64_t store_hits = 0;        // artifact fetched from the store
  std::uint64_t corrupt_quarantined = 0;
  std::uint64_t stale_discarded = 0;   // ABI-version or key mismatch

  // Shape-specialized variants, counted separately so the generic counters
  // keep their meanings whether or not a variant serves.
  std::uint64_t shape_builds_started = 0;
  std::uint64_t shape_builds_completed = 0;
  std::uint64_t shape_build_failures = 0;
  std::uint64_t shape_served_launches = 0;  // launches run on a shape variant
  std::uint64_t shape_memory_hits = 0;
  std::uint64_t shape_disk_hits = 0;
  std::uint64_t shape_store_hits = 0;
  std::uint64_t shape_evicted = 0;          // resident variants LRU-evicted
};

class NativeEngine : public vcuda::NativeExecutionService {
 public:
  struct Options {
    // Directory for .nso artifacts; "" disables the disk tier. Shared with
    // the .kmod cache_dir by convention (distinct extensions).
    std::string cache_dir;
    // Optional shared artifact store (not owned; must outlive the engine).
    netd::ArtifactStore* store = nullptr;
    // Shape-specialization fallback policy; KSPEC_NATIVE_SHAPE and
    // vgpu::SetShapeModeOverride take precedence (vgpu::ResolveShapeMode).
    vgpu::ShapeMode shape_mode = vgpu::ShapeMode::kAuto;
    // Resident shape variants per module; least-recently-served variants are
    // dlclosed beyond this (their disk/store artifacts survive).
    unsigned max_shape_variants = 4;
    // kAuto: launches of one (module, shape) before background promotion.
    unsigned shape_hot_threshold = 3;
  };

  NativeEngine();
  explicit NativeEngine(Options opts);
  ~NativeEngine() override;

  NativeEngine(const NativeEngine&) = delete;
  NativeEngine& operator=(const NativeEngine&) = delete;

  // vcuda::NativeExecutionService. False = degrade to decoded (and counted);
  // exceptions are the kernel's own faults, raised with the interpreter's
  // exact error text.
  bool TryLaunch(vcuda::Context& ctx, const vcuda::NativeLaunchRequest& req,
                 vgpu::LaunchStats* out) override;

  // Makes the artifact for (key, mod) servable now: memory -> disk -> store
  // -> emit + compile + dlopen, publishing new builds back to disk and store.
  // Blocking; single-flight per key (concurrent callers wait). False when the
  // native tier cannot serve this key (no toolchain, failed build) — that
  // answer is sticky per key until the process restarts.
  bool EnsureReady(const kcc::ModuleCacheKey& key, const kcc::CompiledModule& mod);

  // True when a launch for `key` would be served from memory right now.
  bool IsReady(const kcc::ModuleCacheKey& key) const;

  // True when (key, shape) would be served from a resident shape variant.
  bool IsVariantReady(const kcc::ModuleCacheKey& key, const ShapeSpec& shape) const;

  // Blocks until every background shape promotion queued so far has finished
  // (the queue is empty and no build is in flight). Test/bench hook.
  void DrainShapeBuilds();

  // Disk-tier artifact name for `key` ("k%016llx.nso").
  static std::string ArtifactFileName(const kcc::ModuleCacheKey& key);

  // Disk-tier artifact name for a (key, shape) variant ("k%016llx_s%016llx.nso").
  static std::string VariantFileName(const kcc::ModuleCacheKey& key, const ShapeSpec& shape);

  // The variant build key embedded in a shape artifact: the module key's
  // canonical text, a '\n', then the shape's canonical text. The generic
  // artifact embeds the bare module text, so the two can never be confused.
  static std::string VariantKeyText(const kcc::ModuleCacheKey& key, const ShapeSpec& shape);

  NativeEngineStats stats() const;

 private:
  struct LoadedModule;
  struct Slot;
  struct Entry;
  struct Policy;
  struct PromoteJob;

  std::shared_ptr<Entry> EntryFor(const kcc::ModuleCacheKey& key);
  // True when the slot `slot_text` of `key` is resident ("" = generic).
  bool SlotReady(const kcc::ModuleCacheKey& key, const std::string& slot_text) const;
  // The one acquire path: serves the slot for (key, shape) if ready, else
  // runs the ladder or queues a promotion as `policy` allows. shape ==
  // nullptr is the generic artifact. nullptr = degrade.
  std::shared_ptr<LoadedModule> Acquire(const std::shared_ptr<Entry>& entry,
                                        const kcc::ModuleCacheKey& key, const ShapeSpec* shape,
                                        const kcc::CompiledModule* mod, const Policy& policy);
  // Publishes a ladder result into its slot under entry->mu; `served` marks
  // it most-recently used. Beyond the per-module cap the least-recently-used
  // other shape slot is evicted.
  void Finish(const std::shared_ptr<Entry>& entry, const std::string& slot_text,
              std::shared_ptr<LoadedModule> lm, bool built, bool served);
  // The artifact ladder for (key, shape), called with the slot in kBuilding
  // state: disk -> store -> (may_build) build. Returns the loaded SO or nullptr.
  std::shared_ptr<LoadedModule> LoadOrBuild(const kcc::ModuleCacheKey& key,
                                            const ShapeSpec* shape,
                                            const kcc::CompiledModule* mod, bool may_build);
  std::shared_ptr<LoadedModule> TryLoadEnvelope(const std::vector<std::uint8_t>& envelope,
                                                const std::string& key_text,
                                                const std::string& origin, bool closeable);
  std::shared_ptr<LoadedModule> OpenSharedObject(const std::vector<std::uint8_t>& so_bytes,
                                                 const std::string& key_text,
                                                 const std::string& origin, bool closeable);
  void Count(std::uint64_t NativeEngineStats::*field, std::uint64_t n = 1);
  void PromoterMain();

  vgpu::LaunchStats RunNative(vcuda::Context& ctx, const LoadedModule& lm, unsigned kernel_index,
                              const vcuda::NativeLaunchRequest& req);

  Options opts_;
  ScopedTempDir scratch_;  // dlopen needs the SO image on disk
  mutable std::mutex mu_;  // guards entries_, stats_, scratch_ naming, promoter state
  std::map<std::string, std::shared_ptr<Entry>> entries_;  // by canonical key text
  NativeEngineStats stats_;
  std::uint64_t scratch_seq_ = 0;
  std::atomic<std::uint64_t> lru_tick_{0};  // advanced per slot serve (LRU order)

  // Background promotion of hot (module, shape) pairs (kAuto).
  std::thread promoter_;
  std::condition_variable promo_cv_;
  std::deque<PromoteJob> promo_queue_;
  unsigned promo_inflight_ = 0;
  bool promo_shutdown_ = false;
};

}  // namespace kspec::native
