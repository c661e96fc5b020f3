#include "netd/artifact_store.hpp"

#include <unistd.h>

#include <atomic>
#include <filesystem>

#include "kcc/serialize.hpp"
#include "support/log.hpp"
#include "support/serialize.hpp"
#include "support/status.hpp"
#include "support/str.hpp"

namespace kspec::netd {

ArtifactStore::ArtifactStore(std::string dir) : dir_(std::move(dir)) {
  KSPEC_CHECK_MSG(!dir_.empty(), "artifact store needs a directory");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) throw Error("artifact store: cannot create '" + dir_ + "': " + ec.message());
}

// One artifact kind: its envelope parser (throws SerializeError) and the
// StoreStats counters it feeds.
struct ArtifactStore::Kind {
  const char* noun;
  void (*parse)(std::span<const std::uint8_t> bytes, std::string* key_text);
  std::uint64_t StoreStats::*hits;
  std::uint64_t StoreStats::*misses;
  std::uint64_t StoreStats::*publishes;
};

const ArtifactStore::Kind ArtifactStore::kModuleKind{
    "artifact",
    [](std::span<const std::uint8_t> b, std::string* k) { kcc::Deserialize(b, k); },
    &StoreStats::hits, &StoreStats::misses, &StoreStats::publishes};
const ArtifactStore::Kind ArtifactStore::kNativeKind{
    "native artifact",
    [](std::span<const std::uint8_t> b, std::string* k) { kcc::DeserializeNative(b, k); },
    &StoreStats::native_hits, &StoreStats::native_misses, &StoreStats::native_publishes};

std::string ArtifactStore::PathFor(const kcc::ModuleCacheKey& key) const {
  return dir_ + "/" + key.FileName();
}

void ArtifactStore::Quarantine(const std::string& path) {
  static std::atomic<std::uint64_t> counter{0};
  const std::string aside = path + Format(".bad.%d.%llu", static_cast<int>(::getpid()),
                                          static_cast<unsigned long long>(counter.fetch_add(1)));
  if (std::rename(path.c_str(), aside.c_str()) != 0) ::unlink(path.c_str());
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.corrupt_quarantined;
}

bool ArtifactStore::LoadAt(const Kind& kind, const std::string& path,
                           const std::string& key_text, std::vector<std::uint8_t>* out) {
  std::vector<std::uint8_t> bytes;
  if (!ReadFileBytes(path, &bytes)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++(stats_.*kind.misses);
    return false;
  }
  try {
    std::string stored_key;
    kind.parse(bytes, &stored_key);  // full parse: checksum, version, layout
    if (stored_key != key_text) {
      // A valid artifact for a different key under this hash-derived name.
      // Not corruption — don't quarantine; the caller's eventual publish of
      // this key overwrites it.
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.collisions;
      ++(stats_.*kind.misses);
      KSPEC_LOG_WARN << "artifact store: " << path
                     << " belongs to a different key (hash collision) — treating as miss";
      return false;
    }
  } catch (const SerializeError& e) {
    KSPEC_LOG_WARN << "artifact store: quarantining unreadable " << kind.noun << " " << path
                   << " (" << e.what() << ")";
    Quarantine(path);
    std::lock_guard<std::mutex> lock(mu_);
    ++(stats_.*kind.misses);
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++(stats_.*kind.hits);
  }
  *out = std::move(bytes);
  return true;
}

bool ArtifactStore::PublishAt(const Kind& kind, const std::string& path,
                              const std::string& key_text, std::span<const std::uint8_t> bytes) {
  try {
    std::string stored_key;
    kind.parse(bytes, &stored_key);
    if (stored_key != key_text) {
      KSPEC_LOG_WARN << "artifact store: refusing to publish " << kind.noun
                     << " keyed differently than " << path;
      return false;
    }
  } catch (const SerializeError& e) {
    KSPEC_LOG_WARN << "artifact store: refusing to publish malformed " << kind.noun << " for "
                   << path << " (" << e.what() << ")";
    return false;
  }
  return WriteAt(kind, path, bytes);
}

bool ArtifactStore::WriteAt(const Kind& kind, const std::string& path,
                            std::span<const std::uint8_t> bytes) {
  if (!WriteFileAtomic(path, bytes)) {
    KSPEC_LOG_WARN << "artifact store: failed to publish " << path << " — continuing";
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++(stats_.*kind.publishes);
  return true;
}

bool ArtifactStore::LoadBytes(const kcc::ModuleCacheKey& key, std::vector<std::uint8_t>* out) {
  return LoadAt(kModuleKind, PathFor(key), key.CanonicalText(), out);
}

std::shared_ptr<const kcc::CompiledModule> ArtifactStore::Load(const kcc::ModuleCacheKey& key) {
  std::vector<std::uint8_t> bytes;
  if (!LoadBytes(key, &bytes)) return nullptr;
  // LoadBytes already validated; a parse failure here would mean the bytes
  // changed in flight, which a local vector cannot.
  return std::make_shared<const kcc::CompiledModule>(kcc::Deserialize(bytes));
}

bool ArtifactStore::Publish(const kcc::ModuleCacheKey& key, const kcc::CompiledModule& mod) {
  return WriteAt(kModuleKind, PathFor(key), kcc::Serialize(mod, key.CanonicalText()));
}

bool ArtifactStore::PublishBytes(const kcc::ModuleCacheKey& key,
                                 std::span<const std::uint8_t> bytes) {
  return PublishAt(kModuleKind, PathFor(key), key.CanonicalText(), bytes);
}

bool ArtifactStore::Contains(const kcc::ModuleCacheKey& key) const {
  std::error_code ec;
  return std::filesystem::exists(PathFor(key), ec);
}

bool ArtifactStore::LoadNativeBytes(const std::string& file_name, const std::string& key_text,
                                    std::vector<std::uint8_t>* out) {
  return LoadAt(kNativeKind, dir_ + "/" + file_name, key_text, out);
}

bool ArtifactStore::PublishNativeBytes(const std::string& file_name, const std::string& key_text,
                                       std::span<const std::uint8_t> bytes) {
  return PublishAt(kNativeKind, dir_ + "/" + file_name, key_text, bytes);
}

bool ArtifactStore::ContainsNative(const std::string& file_name) const {
  std::error_code ec;
  return std::filesystem::exists(dir_ + "/" + file_name, ec);
}

StoreStats ArtifactStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace kspec::netd
