#include "src/service/artifact_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/json_fields.h"
#include "src/common/strings.h"
#include "src/estimator/serialization.h"
#include "src/service/protocol.h"

namespace maya {
namespace {

constexpr const char* kManifestFile = "manifest.json";
constexpr const char* kKernelEstimatorFile = "kernel_estimator.json";
constexpr const char* kCollectiveEstimatorFile = "collective_estimator.json";
constexpr const char* kKernelValidationFile = "kernel_validation.json";
constexpr const char* kKernelCacheFile = "kernel_cache.json";
constexpr const char* kCollectiveCacheFile = "collective_cache.json";
constexpr const char* kSimCacheFile = "sim_cache.json";

// Durably syncs `fd`; EINVAL/ENOTSUP (fs without fsync, e.g. some tmpfs
// setups) is treated as success — the data went through the page cache and
// the filesystem offers nothing stronger.
Status FsyncFd(int fd, const std::string& what) {
  MAYA_RETURN_IF_ERROR(FaultInjection::Instance().MaybeFail("artifact.fsync"));
  if (::fsync(fd) != 0 && errno != EINVAL && errno != ENOTSUP) {
    return Status::Internal("fsync of '" + what + "' failed: " + std::string(strerror(errno)));
  }
  return Status::Ok();
}

// Syncs the directory holding `path`, making a just-published rename durable
// (the rename itself lives in the directory's metadata).
Status FsyncParentDir(const std::string& path) {
  const std::string parent = std::filesystem::path(path).parent_path().string();
  const int fd = ::open(parent.empty() ? "." : parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Internal("cannot open directory of '" + path + "' for fsync");
  }
  const Status synced = FsyncFd(fd, parent);
  ::close(fd);
  return synced;
}

// Write-one-file with a fsync'd tmp+rename+dir-fsync publish step, so a file
// either appears in full under its real name or not at all — durably: the
// content is fsync'd before the rename and the parent directory after it, so
// a power cut right after success cannot roll the publish back (crash-of-
// the-process safety alone only needed the rename). Four fault sites model
// how real disks fail:
//   artifact.corrupt     — the write "succeeds" but a byte is damaged; only
//                          a later load's parse can notice (silent fault).
//   artifact.write_short — disk-full mid-write: the tmp holds a prefix, the
//                          save fails, nothing is published.
//   artifact.fsync       — the durability barrier fails: the save fails,
//                          nothing is published.
//   artifact.rename_torn — the tmp is complete but the publish rename never
//                          happens; the target keeps its stale content.
Result<JsonValue> ReadJsonFile(const std::string& path) {
  Result<std::string> contents = ReadArtifactFile(path);
  if (!contents.ok()) {
    return contents.status();
  }
  Result<JsonValue> value = ParseJson(*contents);
  if (!value.ok()) {
    return Status::InvalidArgument(path + ": " + value.status().message());
  }
  return value;
}

// Reads and parses one bundle file into `value`. Bundle files are disk
// state, not engine output: a torn or bit-flipped file must load as a clean
// status (the caller falls back to cold start), never as an abort.
template <class T>
Status ReadFieldsFile(const std::string& path, T& value) {
  MAYA_ASSIGN_OR_RETURN(const JsonValue json, ReadJsonFile(path));
  return ReadJsonFields(json, value);
}

// Usage counters as bit-exact doubles, so a restore round-trips the totals.
constexpr auto kStageTotalBits = [](auto& v, StageTimings& totals) {
  v.Bits("emulation_ms", totals.emulation_ms);
  v.Bits("collation_ms", totals.collation_ms);
  v.Bits("estimation_ms", totals.estimation_ms);
  v.Bits("simulation_ms", totals.simulation_ms);
};

// The keys a v2 deployment entry shares with the v1 manifest root.
template <class V>
void CacheCountFields(V& v, DeploymentManifest& deployment) {
  v("cluster", deployment.cluster);
  v("kernel_cache_entries", deployment.kernel_cache_entries, Presence::kOptional);
  v("collective_cache_entries", deployment.collective_cache_entries, Presence::kOptional);
  v("sim_cache_entries", deployment.sim_cache_entries, Presence::kOptional);
}

}  // namespace

// ---- Bundle file formats --------------------------------------------------------

template <class V>
void Fields(V& v, KernelCacheEntry& entry) {
  v("kernel", entry.first);
  v.Bits("duration_us", entry.second);
}

template <class V>
void Fields(V& v, CollectiveCacheEntry& entry) {
  v("request", entry.first);
  v.Bits("duration_us", entry.second);
}

template <class V>
void Fields(V& v, WorkerSimMetrics& metrics) {
  v.Bits("finish_us", metrics.finish_us);
  v.Bits("host_busy_us", metrics.host_busy_us);
  v.Bits("compute_busy_us", metrics.compute_busy_us);
  v.Bits("comm_busy_us", metrics.comm_busy_us);
  v.Bits("exposed_comm_us", metrics.exposed_comm_us);
  v("events", metrics.events);
}

// Stage-4 component replays: the key is the canonical component fingerprint
// and the metrics are bit-exact, so a warm-started server replays repeated
// components with the saving process's exact timelines.
template <class V>
void Fields(V& v, SimCacheEntry& entry) {
  v.Hex("key", entry.first);
  if (entry.second == nullptr) {
    entry.second = std::make_shared<ComponentSimResult>();  // reading a fresh entry
  }
  // Writing never mutates the shared result; reading fills the fresh one.
  v("workers", const_cast<ComponentSimResult&>(*entry.second).workers);
}

template void Fields(JsonFieldWriter&, KernelCacheEntry&);
template void Fields(JsonFieldReader&, KernelCacheEntry&);
template void Fields(JsonFieldWriter&, CollectiveCacheEntry&);
template void Fields(JsonFieldReader&, CollectiveCacheEntry&);
template void Fields(JsonFieldWriter&, SimCacheEntry&);
template void Fields(JsonFieldReader&, SimCacheEntry&);

// A v2 deployment entry. Usage counters are written once a request was
// timed, and read back together with them.
template <class V>
void Fields(V& v, DeploymentManifest& deployment) {
  v("name", deployment.name);
  v("dir", deployment.dir);
  v.Validate([&deployment] {
    const std::string& dir = deployment.dir;
    if (dir.empty() || dir.find_first_of("/\\") != std::string::npos ||
        dir.find("..") != std::string::npos) {
      return Status::InvalidArgument("v2 manifest names unsafe deployment dir '" + dir + "'");
    }
    return Status::Ok();
  });
  CacheCountFields(v, deployment);
  v("timed_requests", deployment.timed_requests, Presence::kOmitEmpty);
  if (deployment.timed_requests > 0) {
    v.Object("stage_totals", deployment.stage_totals, kStageTotalBits, Presence::kOptional);
  }
}

// v1 holds one deployment whose files sit at the bundle root; v2 lists the
// fleet. Other versions read as just their version number.
template <class V>
void Fields(V& v, ArtifactManifest& manifest) {
  v("version", manifest.version);
  if (manifest.version == kArtifactBundleVersion) {
    manifest.deployments.resize(1);
    CacheCountFields(v, manifest.deployments.front());
  } else if (manifest.version == kArtifactBundleVersionMulti) {
    v("deployments", manifest.deployments);
  }
}

Status WriteArtifactFile(const std::string& path, const std::string& contents) {
  FaultInjection& faults = FaultInjection::Instance();
  std::string payload = contents;
  payload.push_back('\n');
  if (!faults.MaybeFail("artifact.corrupt").ok()) {
    // 0x80 (not a printable-range flip): a case flip of a hex digit would be
    // value-preserving, but a high byte can never parse as JSON structure,
    // a key, or a hex-double field.
    payload[payload.size() / 2] ^= 0x80;
  }
  const Status short_write = faults.MaybeFail("artifact.write_short");
  if (!short_write.ok()) {
    payload.resize(payload.size() / 2);
  }
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot open '" + tmp + "' for writing");
  }
  size_t written = 0;
  while (written < payload.size()) {
    const ssize_t n = ::write(fd, payload.data() + written, payload.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::close(fd);
      return Status::Internal("write to '" + tmp + "' failed: " + std::string(strerror(errno)));
    }
    written += static_cast<size_t>(n);
  }
  if (!short_write.ok()) {
    ::close(fd);
    return Status::Internal("short write to '" + path + "': " + short_write.message());
  }
  // Content durable before the publish rename can make it reachable.
  if (const Status synced = FsyncFd(fd, tmp); !synced.ok()) {
    ::close(fd);
    return synced;
  }
  ::close(fd);
  MAYA_RETURN_IF_ERROR(faults.MaybeFail("artifact.rename_torn"));
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::Internal("cannot publish '" + path + "': " + ec.message());
  }
  // Rename durable: sync the directory entry.
  return FsyncParentDir(path);
}

Result<std::string> ReadArtifactFile(const std::string& path) {
  MAYA_RETURN_IF_ERROR(FaultInjection::Instance().MaybeFail("artifact.read"));
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  if (in.bad()) {
    return Status::Internal("read from '" + path + "' failed");
  }
  return contents.str();
}

std::string ArtifactStore::ClusterSignature(const ClusterSpec& cluster) {
  return WriteJsonFields(cluster);
}

std::string ArtifactStore::PathFor(const std::string& subdir, const char* file) const {
  std::filesystem::path path(dir_);
  if (!subdir.empty()) {
    path /= subdir;
  }
  return (path / file).string();
}

bool ArtifactStore::Exists() const {
  std::error_code ec;
  return std::filesystem::exists(PathFor("", kManifestFile), ec);
}

Status ArtifactStore::InvalidateManifest() const {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::Internal("cannot create bundle directory '" + dir_ + "': " + ec.message());
  }
  std::filesystem::remove(PathFor("", kManifestFile), ec);
  return Status::Ok();
}

Status ArtifactStore::WriteManifest(const ArtifactManifest& manifest) const {
  return WriteArtifactFile(PathFor("", kManifestFile), WriteJsonFields(manifest));
}

Status ArtifactStore::SaveDeploymentFiles(const EstimatorBank& bank, const MayaPipeline* pipeline,
                                          DeploymentManifest& deployment) const {
  if (bank.kernel == nullptr || bank.collective == nullptr) {
    return Status::FailedPrecondition("estimator bank is not trained");
  }
  const std::string& subdir = deployment.dir;
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(dir_) / subdir, ec);
  if (ec) {
    return Status::Internal("cannot create bundle directory '" + PathFor(subdir, "") +
                            "': " + ec.message());
  }
  MAYA_RETURN_IF_ERROR(
      WriteArtifactFile(PathFor(subdir, kKernelEstimatorFile), WriteJsonFields(*bank.kernel)));
  MAYA_RETURN_IF_ERROR(WriteArtifactFile(PathFor(subdir, kCollectiveEstimatorFile),
                                         WriteJsonFields(*bank.collective)));
  MAYA_RETURN_IF_ERROR(WriteArtifactFile(PathFor(subdir, kKernelValidationFile),
                                         WriteJsonFields(bank.kernel_validation)));
  // Estimator-only saves write empty caches, which keep the bundle loadable.
  std::vector<KernelCacheEntry> kernels;
  std::vector<CollectiveCacheEntry> collectives;
  std::vector<SimCacheEntry> components;
  if (pipeline != nullptr) {
    kernels = pipeline->SnapshotKernelEstimates();
    collectives = pipeline->SnapshotCollectiveEstimates();
    components = pipeline->SnapshotSimCache();
  }
  deployment.kernel_cache_entries = kernels.size();
  deployment.collective_cache_entries = collectives.size();
  deployment.sim_cache_entries = components.size();
  MAYA_RETURN_IF_ERROR(
      WriteArtifactFile(PathFor(subdir, kKernelCacheFile), WriteJsonFields(kernels)));
  MAYA_RETURN_IF_ERROR(
      WriteArtifactFile(PathFor(subdir, kCollectiveCacheFile), WriteJsonFields(collectives)));
  return WriteArtifactFile(PathFor(subdir, kSimCacheFile), WriteJsonFields(components));
}

Status ArtifactStore::SaveSingle(const ClusterSpec& cluster, const EstimatorBank& bank,
                                 const MayaPipeline* pipeline) const {
  MAYA_RETURN_IF_ERROR(InvalidateManifest());
  ArtifactManifest manifest;
  manifest.version = kArtifactBundleVersion;
  DeploymentManifest& deployment = manifest.deployments.emplace_back();
  deployment.cluster = cluster;
  MAYA_RETURN_IF_ERROR(SaveDeploymentFiles(bank, pipeline, deployment));
  return WriteManifest(manifest);
}

Status ArtifactStore::SaveEstimators(const ClusterSpec& cluster, const EstimatorBank& bank) const {
  return SaveSingle(cluster, bank, nullptr);
}

Status ArtifactStore::Save(const ClusterSpec& cluster, const EstimatorBank& bank,
                           const MayaPipeline& pipeline) const {
  return SaveSingle(cluster, bank, &pipeline);
}

Status ArtifactStore::SaveRegistry(const DeploymentRegistry& registry,
                                   const std::map<std::string, DeploymentUsage>& usage) const {
  const std::vector<std::shared_ptr<const Deployment>> deployments = registry.Registered();
  if (deployments.empty()) {
    return Status::FailedPrecondition("registry holds no registered deployments to save");
  }
  for (const std::shared_ptr<const Deployment>& deployment : deployments) {
    if (deployment->bank == nullptr) {
      return Status::FailedPrecondition("deployment '" + deployment->name +
                                        "' borrows its estimators and cannot be persisted");
    }
  }
  MAYA_RETURN_IF_ERROR(InvalidateManifest());
  ArtifactManifest manifest;
  manifest.version = kArtifactBundleVersionMulti;
  for (size_t i = 0; i < deployments.size(); ++i) {
    const Deployment& deployment = *deployments[i];
    DeploymentManifest& entry = manifest.deployments.emplace_back();
    entry.name = deployment.name;
    entry.dir = StrFormat("deployment_%zu", i);
    entry.cluster = deployment.cluster;
    if (auto used = usage.find(deployment.name); used != usage.end()) {
      entry.stage_totals = used->second.stage_totals;
      entry.timed_requests = used->second.timed_requests;
    }
    MAYA_RETURN_IF_ERROR(SaveDeploymentFiles(*deployment.bank, deployment.pipeline.get(), entry));
  }
  return WriteManifest(manifest);
}

Result<ArtifactManifest> ArtifactStore::ReadManifest() const {
  ArtifactManifest manifest;
  MAYA_RETURN_IF_ERROR(ReadFieldsFile(PathFor("", kManifestFile), manifest));
  if (manifest.version == kArtifactBundleVersion) {
    manifest.deployments.front().name = kDefaultDeploymentName;
  } else if (manifest.version != kArtifactBundleVersionMulti) {
    return Status::FailedPrecondition(
        StrFormat("artifact bundle version %d is not a supported version (%d or %d)",
                  manifest.version, kArtifactBundleVersion, kArtifactBundleVersionMulti));
  } else if (manifest.deployments.empty()) {
    return Status::InvalidArgument("v2 artifact manifest holds no deployments");
  }
  manifest.cluster = manifest.deployments.front().cluster;
  manifest.kernel_cache_entries = manifest.deployments.front().kernel_cache_entries;
  manifest.collective_cache_entries = manifest.deployments.front().collective_cache_entries;
  return manifest;
}

Result<EstimatorBank> ArtifactStore::LoadBankFrom(const std::string& subdir) const {
  EstimatorBank bank;
  bank.kernel = std::make_unique<RandomForestKernelEstimator>();
  bank.collective = std::make_unique<ProfiledCollectiveEstimator>();
  MAYA_RETURN_IF_ERROR(ReadFieldsFile(PathFor(subdir, kKernelEstimatorFile), *bank.kernel));
  MAYA_RETURN_IF_ERROR(
      ReadFieldsFile(PathFor(subdir, kCollectiveEstimatorFile), *bank.collective));
  MAYA_RETURN_IF_ERROR(
      ReadFieldsFile(PathFor(subdir, kKernelValidationFile), bank.kernel_validation));
  return bank;
}

Result<std::vector<LoadedDeployment>> ArtifactStore::LoadDeployments() const {
  Result<ArtifactManifest> manifest = ReadManifest();
  if (!manifest.ok()) {
    return manifest.status();
  }
  std::vector<LoadedDeployment> deployments;
  deployments.reserve(manifest->deployments.size());
  for (const DeploymentManifest& entry : manifest->deployments) {
    Result<EstimatorBank> bank = LoadBankFrom(entry.dir);
    if (!bank.ok()) {
      return Status(bank.status().code(),
                    "deployment '" + entry.name + "': " + bank.status().message());
    }
    LoadedDeployment deployment;
    deployment.name = entry.name;
    deployment.cluster = entry.cluster;
    deployment.bank = *std::move(bank);
    deployment.stage_totals = entry.stage_totals;
    deployment.timed_requests = entry.timed_requests;
    deployments.push_back(std::move(deployment));
  }
  return deployments;
}

Result<EstimatorBank> ArtifactStore::LoadEstimators(const ClusterSpec& expected_cluster) const {
  Result<ArtifactManifest> manifest = ReadManifest();
  if (!manifest.ok()) {
    return manifest.status();
  }
  const std::string expected = ClusterSignature(expected_cluster);
  for (const DeploymentManifest& entry : manifest->deployments) {
    if (ClusterSignature(entry.cluster) == expected) {
      return LoadBankFrom(entry.dir);
    }
  }
  return Status::FailedPrecondition(
      "artifact bundle was trained for cluster " + manifest->cluster.ToString() + ", not " +
      expected_cluster.ToString());
}

Result<uint64_t> ArtifactStore::WarmPipeline(const std::string& name,
                                             MayaPipeline& pipeline) const {
  Result<ArtifactManifest> manifest = ReadManifest();
  if (!manifest.ok()) {
    return manifest.status();
  }
  const DeploymentManifest* target = nullptr;
  for (const DeploymentManifest& entry : manifest->deployments) {
    if (entry.name == name) {
      target = &entry;
      break;
    }
  }
  if (target == nullptr) {
    return Status::NotFound("bundle holds no deployment named '" + name + "'");
  }
  std::vector<KernelCacheEntry> kernels;
  MAYA_RETURN_IF_ERROR(ReadFieldsFile(PathFor(target->dir, kKernelCacheFile), kernels));
  pipeline.ImportKernelEstimates(kernels);
  std::vector<CollectiveCacheEntry> collectives;
  MAYA_RETURN_IF_ERROR(ReadFieldsFile(PathFor(target->dir, kCollectiveCacheFile), collectives));
  pipeline.ImportCollectiveEstimates(collectives);
  // Tolerate a missing file: bundles written before the sim cache existed
  // still warm-start (estimate caches only).
  std::vector<SimCacheEntry> components;
  if (const Status read = ReadFieldsFile(PathFor(target->dir, kSimCacheFile), components);
      !read.ok() && read.code() != StatusCode::kNotFound) {
    return read;
  }
  pipeline.ImportSimCache(components);
  return kernels.size() + collectives.size() + components.size();
}

}  // namespace maya
