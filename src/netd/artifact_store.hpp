// Content-addressed shared artifact store.
//
// One directory holding the compiled specializations of every process on the
// machine: file name = hash of the canonical ModuleCacheKey ("k%016llx.kmod",
// the exact layout Context::set_cache_dir uses, so a plain Context pointed at
// the store directory gets the same artifacts with zero glue), contents = the
// self-validating kcc::Serialize envelope. Publishing goes through
// WriteFileAtomic (unique temp + fsync + rename), so concurrent publishers of
// the same key are safe — the last complete rename wins and readers only ever
// observe whole artifacts. Corrupt entries (torn writes from crashed
// publishers, checksum mismatches, format-version bumps) are quarantined:
// renamed aside so the next publish replaces them, never served, never fatal.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "kcc/cache_key.hpp"
#include "kcc/compiler.hpp"

namespace kspec::netd {

struct StoreStats {
  std::uint64_t hits = 0;        // validated artifact served
  std::uint64_t misses = 0;      // no artifact for the key
  std::uint64_t publishes = 0;   // artifacts written
  std::uint64_t corrupt_quarantined = 0;  // unreadable entries renamed aside
  std::uint64_t collisions = 0;  // file present but keyed differently
  // The native-tier (.nso shared object) artifact kind, counted separately so
  // a fleet report can tell module traffic from native-artifact traffic.
  std::uint64_t native_hits = 0;
  std::uint64_t native_misses = 0;
  std::uint64_t native_publishes = 0;
};

class ArtifactStore {
 public:
  // Creates `dir` if absent; throws kspec::Error if that fails.
  explicit ArtifactStore(std::string dir);

  const std::string& dir() const { return dir_; }
  std::string PathFor(const kcc::ModuleCacheKey& key) const;

  // Validated artifact bytes for `key` into *out. False on miss — including
  // corrupt entries (quarantined, counted) and hash-colliding entries (left
  // in place for their own key... which is this file name, so the next
  // publish of `key` overwrites them; counted).
  bool LoadBytes(const kcc::ModuleCacheKey& key, std::vector<std::uint8_t>* out);

  // LoadBytes + deserialize; nullptr on miss.
  std::shared_ptr<const kcc::CompiledModule> Load(const kcc::ModuleCacheKey& key);

  // Serializes and publishes atomically. False on I/O failure (the store is
  // best-effort: callers continue without persistence).
  bool Publish(const kcc::ModuleCacheKey& key, const kcc::CompiledModule& mod);

  // Publishes pre-serialized artifact bytes after validating that they are a
  // well-formed envelope embedding exactly `key` (a daemon response is
  // re-verified before it can poison the shared store). False on validation
  // or I/O failure.
  bool PublishBytes(const kcc::ModuleCacheKey& key, std::span<const std::uint8_t> bytes);

  // Cheap existence probe (no validation, no stats).
  bool Contains(const kcc::ModuleCacheKey& key) const;

  // ---- native-tier artifacts (.nso) ----
  // Same directory, same validation and quarantine policy, but the envelope
  // is kcc::SerializeNative (a host shared object instead of a module) and
  // the caller names the file and the expected embedded key text, because a
  // native artifact's identity can be wider than one ModuleCacheKey: the
  // generic "k<hash>.nso" embeds the module's canonical text, a shape variant
  // "k<hash>_s<hash>.nso" appends "\n" + the shape's canonical text.
  bool LoadNativeBytes(const std::string& file_name, const std::string& key_text,
                       std::vector<std::uint8_t>* out);
  bool PublishNativeBytes(const std::string& file_name, const std::string& key_text,
                          std::span<const std::uint8_t> bytes);
  bool ContainsNative(const std::string& file_name) const;

  StoreStats stats() const;

 private:
  struct Kind;
  static const Kind kModuleKind;  // .kmod: kcc::Serialize, hits/misses/publishes
  static const Kind kNativeKind;  // .nso: kcc::SerializeNative, native_* counters
  // The one load / publish body for every artifact kind: read, parse with
  // the kind's envelope parser, check the embedded key, quarantine corrupt
  // entries, and bump the kind's counters.
  bool LoadAt(const Kind& kind, const std::string& path, const std::string& key_text,
              std::vector<std::uint8_t>* out);
  bool PublishAt(const Kind& kind, const std::string& path, const std::string& key_text,
                 std::span<const std::uint8_t> bytes);
  bool WriteAt(const Kind& kind, const std::string& path, std::span<const std::uint8_t> bytes);
  // Renames a bad entry aside so it is never read again and the next publish
  // lands cleanly. Best-effort; falls back to unlink.
  void Quarantine(const std::string& path);

  std::string dir_;
  mutable std::mutex mu_;  // guards stats_
  StoreStats stats_;
};

}  // namespace kspec::netd
