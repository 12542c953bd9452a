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
#include "src/common/json_parser.h"
#include "src/common/json_writer.h"
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

std::string Uint64Hex(uint64_t value) { return StrFormat("%016llx", static_cast<unsigned long long>(value)); }

Result<uint64_t> Uint64FromHex(const std::string& hex) {
  if (hex.size() != 16 || hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
    return Status::InvalidArgument("malformed 16-hex-digit value '" + hex + "'");
  }
  return std::strtoull(hex.c_str(), nullptr, 16);
}

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
Status WriteFile(const std::string& path, const std::string& contents) {
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

Result<std::string> ReadFile(const std::string& path) {
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

Result<JsonValue> ReadJsonFile(const std::string& path) {
  Result<std::string> contents = ReadFile(path);
  if (!contents.ok()) {
    return contents.status();
  }
  Result<JsonValue> value = ParseJson(*contents);
  if (!value.ok()) {
    return Status::InvalidArgument(path + ": " + value.status().message());
  }
  return value;
}

}  // namespace

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

Status ArtifactStore::SaveDeploymentFiles(const std::string& subdir, const EstimatorBank& bank,
                                          const MayaPipeline* pipeline,
                                          uint64_t* kernel_entries,
                                          uint64_t* collective_entries,
                                          uint64_t* sim_entries) const {
  if (bank.kernel == nullptr || bank.collective == nullptr) {
    return Status::FailedPrecondition("estimator bank is not trained");
  }
  std::error_code ec;
  std::filesystem::path dir(dir_);
  if (!subdir.empty()) {
    dir /= subdir;
  }
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create bundle directory '" + dir.string() +
                            "': " + ec.message());
  }

  {
    JsonWriter w;
    WriteKernelEstimator(w, *bank.kernel);
    MAYA_RETURN_IF_ERROR(WriteFile(PathFor(subdir, kKernelEstimatorFile), w.str()));
  }
  {
    JsonWriter w;
    WriteCollectiveEstimator(w, *bank.collective);
    MAYA_RETURN_IF_ERROR(WriteFile(PathFor(subdir, kCollectiveEstimatorFile), w.str()));
  }
  {
    JsonWriter w;
    WriteKernelDataset(w, bank.kernel_validation);
    MAYA_RETURN_IF_ERROR(WriteFile(PathFor(subdir, kKernelValidationFile), w.str()));
  }

  *kernel_entries = 0;
  *collective_entries = 0;
  *sim_entries = 0;
  if (pipeline == nullptr) {
    // Estimator-only save: empty cache files keep the bundle loadable.
    MAYA_RETURN_IF_ERROR(WriteFile(PathFor(subdir, kKernelCacheFile), "[]"));
    MAYA_RETURN_IF_ERROR(WriteFile(PathFor(subdir, kCollectiveCacheFile), "[]"));
    MAYA_RETURN_IF_ERROR(WriteFile(PathFor(subdir, kSimCacheFile), "[]"));
    return Status::Ok();
  }
  const std::vector<std::pair<KernelDesc, double>> kernels =
      pipeline->SnapshotKernelEstimates();
  *kernel_entries = kernels.size();
  JsonWriter kernel_writer;
  kernel_writer.BeginArray();
  for (const auto& [kernel, duration_us] : kernels) {
    kernel_writer.BeginObject();
    kernel_writer.Key("kernel");
    WriteKernelDescExact(kernel_writer, kernel);
    kernel_writer.Field("duration_us", std::string_view(DoubleBits(duration_us)));
    kernel_writer.EndObject();
  }
  kernel_writer.EndArray();
  MAYA_RETURN_IF_ERROR(WriteFile(PathFor(subdir, kKernelCacheFile), kernel_writer.str()));

  const std::vector<std::pair<CollectiveRequest, double>> collectives =
      pipeline->SnapshotCollectiveEstimates();
  *collective_entries = collectives.size();
  JsonWriter collective_writer;
  collective_writer.BeginArray();
  for (const auto& [request, duration_us] : collectives) {
    collective_writer.BeginObject();
    collective_writer.Key("request");
    WriteCollectiveRequest(collective_writer, request);
    collective_writer.Field("duration_us", std::string_view(DoubleBits(duration_us)));
    collective_writer.EndObject();
  }
  collective_writer.EndArray();
  MAYA_RETURN_IF_ERROR(
      WriteFile(PathFor(subdir, kCollectiveCacheFile), collective_writer.str()));

  // Stage-4 component replays: key is the canonical component fingerprint
  // (uint64, hex), metrics are bit-exact doubles — a warm-started server
  // replays repeated components with the saving process's exact timelines.
  const std::vector<std::pair<uint64_t, std::shared_ptr<const ComponentSimResult>>>
      components = pipeline->SnapshotSimCache();
  *sim_entries = components.size();
  JsonWriter sim_writer;
  sim_writer.BeginArray();
  for (const auto& [key, result] : components) {
    sim_writer.BeginObject();
    sim_writer.Field("key", std::string_view(Uint64Hex(key)));
    sim_writer.KeyedBeginArray("workers");
    for (const WorkerSimMetrics& metrics : result->workers) {
      sim_writer.BeginObject();
      sim_writer.Field("finish_us", std::string_view(DoubleBits(metrics.finish_us)));
      sim_writer.Field("host_busy_us", std::string_view(DoubleBits(metrics.host_busy_us)));
      sim_writer.Field("compute_busy_us",
                       std::string_view(DoubleBits(metrics.compute_busy_us)));
      sim_writer.Field("comm_busy_us", std::string_view(DoubleBits(metrics.comm_busy_us)));
      sim_writer.Field("exposed_comm_us",
                       std::string_view(DoubleBits(metrics.exposed_comm_us)));
      sim_writer.Field("events", metrics.events);
      sim_writer.EndObject();
    }
    sim_writer.EndArray();
    sim_writer.EndObject();
  }
  sim_writer.EndArray();
  return WriteFile(PathFor(subdir, kSimCacheFile), sim_writer.str());
}

Status ArtifactStore::SaveEstimators(const ClusterSpec& cluster, const EstimatorBank& bank) const {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::Internal("cannot create bundle directory '" + dir_ + "': " + ec.message());
  }
  // Invalidate any existing bundle before touching its files, and write the
  // manifest strictly last (see Save).
  std::filesystem::remove(PathFor("", kManifestFile), ec);
  uint64_t kernel_entries = 0;
  uint64_t collective_entries = 0;
  uint64_t sim_entries = 0;
  MAYA_RETURN_IF_ERROR(SaveDeploymentFiles("", bank, nullptr, &kernel_entries,
                                           &collective_entries, &sim_entries));
  JsonWriter manifest;
  manifest.BeginObject();
  manifest.Field("version", static_cast<int64_t>(kArtifactBundleVersion));
  manifest.Key("cluster");
  WriteJsonFields(manifest, cluster);
  manifest.Field("kernel_cache_entries", kernel_entries);
  manifest.Field("collective_cache_entries", collective_entries);
  manifest.Field("sim_cache_entries", sim_entries);
  manifest.EndObject();
  return WriteFile(PathFor("", kManifestFile), manifest.str());
}

Status ArtifactStore::Save(const ClusterSpec& cluster, const EstimatorBank& bank,
                           const MayaPipeline& pipeline) const {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::Internal("cannot create bundle directory '" + dir_ + "': " + ec.message());
  }
  // Invalidate any existing bundle before touching its files, and write the
  // manifest strictly last: a crash at any point mid-save leaves a directory
  // without a manifest, which never loads — not a loadable bundle mixing new
  // and stale (or torn) files.
  std::filesystem::remove(PathFor("", kManifestFile), ec);
  uint64_t kernel_entries = 0;
  uint64_t collective_entries = 0;
  uint64_t sim_entries = 0;
  MAYA_RETURN_IF_ERROR(SaveDeploymentFiles("", bank, &pipeline, &kernel_entries,
                                           &collective_entries, &sim_entries));
  JsonWriter manifest;
  manifest.BeginObject();
  manifest.Field("version", static_cast<int64_t>(kArtifactBundleVersion));
  manifest.Key("cluster");
  WriteJsonFields(manifest, cluster);
  manifest.Field("kernel_cache_entries", kernel_entries);
  manifest.Field("collective_cache_entries", collective_entries);
  manifest.Field("sim_cache_entries", sim_entries);
  manifest.EndObject();
  return WriteFile(PathFor("", kManifestFile), manifest.str());
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
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::Internal("cannot create bundle directory '" + dir_ + "': " + ec.message());
  }
  std::filesystem::remove(PathFor("", kManifestFile), ec);

  JsonWriter manifest;
  manifest.BeginObject();
  manifest.Field("version", static_cast<int64_t>(kArtifactBundleVersionMulti));
  manifest.KeyedBeginArray("deployments");
  for (size_t i = 0; i < deployments.size(); ++i) {
    const Deployment& deployment = *deployments[i];
    const std::string subdir = StrFormat("deployment_%zu", i);
    uint64_t kernel_entries = 0;
    uint64_t collective_entries = 0;
    uint64_t sim_entries = 0;
    MAYA_RETURN_IF_ERROR(SaveDeploymentFiles(subdir, *deployment.bank,
                                             deployment.pipeline.get(), &kernel_entries,
                                             &collective_entries, &sim_entries));
    manifest.BeginObject();
    manifest.Field("name", std::string_view(deployment.name));
    manifest.Field("dir", std::string_view(subdir));
    manifest.Key("cluster");
    WriteJsonFields(manifest, deployment.cluster);
    manifest.Field("kernel_cache_entries", kernel_entries);
    manifest.Field("collective_cache_entries", collective_entries);
    manifest.Field("sim_cache_entries", sim_entries);
    auto used = usage.find(deployment.name);
    if (used != usage.end() && used->second.timed_requests > 0) {
      // Bit-exact doubles: a restore round-trips the exact totals.
      manifest.Field("timed_requests", used->second.timed_requests);
      manifest.KeyedBeginObject("stage_totals");
      manifest.Field("emulation_ms",
                     std::string_view(DoubleBits(used->second.stage_totals.emulation_ms)));
      manifest.Field("collation_ms",
                     std::string_view(DoubleBits(used->second.stage_totals.collation_ms)));
      manifest.Field("estimation_ms",
                     std::string_view(DoubleBits(used->second.stage_totals.estimation_ms)));
      manifest.Field("simulation_ms",
                     std::string_view(DoubleBits(used->second.stage_totals.simulation_ms)));
      manifest.EndObject();
    }
    manifest.EndObject();
  }
  manifest.EndArray();
  manifest.EndObject();
  return WriteFile(PathFor("", kManifestFile), manifest.str());
}

Result<ArtifactManifest> ArtifactStore::ReadManifest() const {
  Result<JsonValue> root = ReadJsonFile(PathFor("", kManifestFile));
  if (!root.ok()) {
    return root.status();
  }
  if (!root->is_object() || !root->Has("version")) {
    return Status::InvalidArgument("malformed artifact manifest");
  }
  ArtifactManifest manifest;
  // A manifest is disk state, not engine output: a torn or bit-flipped
  // bundle must load as a clean status (caller falls back to cold start),
  // never as an abort — hence To* conversions throughout.
  MAYA_ASSIGN_OR_RETURN(const int64_t version, ToInt(root->at("version")));
  manifest.version = static_cast<int>(version);
  if (manifest.version == kArtifactBundleVersion) {
    if (!root->Has("cluster")) {
      return Status::InvalidArgument("malformed artifact manifest");
    }
    DeploymentManifest deployment;
    deployment.name = kDefaultDeploymentName;
    Result<ClusterSpec> cluster = ReadJsonFields<ClusterSpec>(root->at("cluster"));
    if (!cluster.ok()) {
      return cluster.status();
    }
    deployment.cluster = *std::move(cluster);
    if (root->Has("kernel_cache_entries")) {
      MAYA_ASSIGN_OR_RETURN(deployment.kernel_cache_entries,
                            ToUint(root->at("kernel_cache_entries")));
    }
    if (root->Has("collective_cache_entries")) {
      MAYA_ASSIGN_OR_RETURN(deployment.collective_cache_entries,
                            ToUint(root->at("collective_cache_entries")));
    }
    if (root->Has("sim_cache_entries")) {
      MAYA_ASSIGN_OR_RETURN(deployment.sim_cache_entries,
                            ToUint(root->at("sim_cache_entries")));
    }
    manifest.cluster = deployment.cluster;
    manifest.kernel_cache_entries = deployment.kernel_cache_entries;
    manifest.collective_cache_entries = deployment.collective_cache_entries;
    manifest.deployments.push_back(std::move(deployment));
    return manifest;
  }
  if (manifest.version == kArtifactBundleVersionMulti) {
    if (!root->Has("deployments")) {
      return Status::InvalidArgument("malformed v2 artifact manifest: no deployments");
    }
    MAYA_ASSIGN_OR_RETURN(const JsonArray* entries, ToArray(root->at("deployments")));
    for (const JsonValue& entry : *entries) {
      MAYA_RETURN_IF_ERROR(RequireKeys(entry, {"name", "dir", "cluster"}));
      DeploymentManifest deployment;
      MAYA_ASSIGN_OR_RETURN(deployment.name, ToString(entry.at("name")));
      MAYA_ASSIGN_OR_RETURN(deployment.dir, ToString(entry.at("dir")));
      if (deployment.dir.empty() ||
          deployment.dir.find_first_of("/\\") != std::string::npos ||
          deployment.dir.find("..") != std::string::npos) {
        return Status::InvalidArgument("v2 manifest names unsafe deployment dir '" +
                                       deployment.dir + "'");
      }
      Result<ClusterSpec> cluster = ReadJsonFields<ClusterSpec>(entry.at("cluster"));
      if (!cluster.ok()) {
        return cluster.status();
      }
      deployment.cluster = *std::move(cluster);
      if (entry.Has("kernel_cache_entries")) {
        MAYA_ASSIGN_OR_RETURN(deployment.kernel_cache_entries,
                              ToUint(entry.at("kernel_cache_entries")));
      }
      if (entry.Has("collective_cache_entries")) {
        MAYA_ASSIGN_OR_RETURN(deployment.collective_cache_entries,
                              ToUint(entry.at("collective_cache_entries")));
      }
      if (entry.Has("sim_cache_entries")) {
        MAYA_ASSIGN_OR_RETURN(deployment.sim_cache_entries,
                              ToUint(entry.at("sim_cache_entries")));
      }
      if (entry.Has("timed_requests") && entry.Has("stage_totals")) {
        MAYA_ASSIGN_OR_RETURN(deployment.timed_requests, ToUint(entry.at("timed_requests")));
        const JsonValue& totals = entry.at("stage_totals");
        MAYA_RETURN_IF_ERROR(RequireKeys(
            totals, {"emulation_ms", "collation_ms", "estimation_ms", "simulation_ms"}));
        auto bits = [&totals](const char* field) -> Result<double> {
          MAYA_ASSIGN_OR_RETURN(const std::string hex, ToString(totals.at(field)));
          return DoubleFromBits(hex);
        };
        MAYA_ASSIGN_OR_RETURN(deployment.stage_totals.emulation_ms, bits("emulation_ms"));
        MAYA_ASSIGN_OR_RETURN(deployment.stage_totals.collation_ms, bits("collation_ms"));
        MAYA_ASSIGN_OR_RETURN(deployment.stage_totals.estimation_ms, bits("estimation_ms"));
        MAYA_ASSIGN_OR_RETURN(deployment.stage_totals.simulation_ms, bits("simulation_ms"));
      }
      manifest.deployments.push_back(std::move(deployment));
    }
    if (manifest.deployments.empty()) {
      return Status::InvalidArgument("v2 artifact manifest holds no deployments");
    }
    manifest.cluster = manifest.deployments.front().cluster;
    manifest.kernel_cache_entries = manifest.deployments.front().kernel_cache_entries;
    manifest.collective_cache_entries =
        manifest.deployments.front().collective_cache_entries;
    return manifest;
  }
  return Status::FailedPrecondition(
      StrFormat("artifact bundle version %d is not a supported version (%d or %d)",
                manifest.version, kArtifactBundleVersion, kArtifactBundleVersionMulti));
}

Result<EstimatorBank> ArtifactStore::LoadBankFrom(const std::string& subdir) const {
  EstimatorBank bank;
  {
    Result<JsonValue> value = ReadJsonFile(PathFor(subdir, kKernelEstimatorFile));
    if (!value.ok()) {
      return value.status();
    }
    Result<std::unique_ptr<RandomForestKernelEstimator>> estimator =
        ParseKernelEstimator(*value);
    if (!estimator.ok()) {
      return estimator.status();
    }
    bank.kernel = *std::move(estimator);
  }
  {
    Result<JsonValue> value = ReadJsonFile(PathFor(subdir, kCollectiveEstimatorFile));
    if (!value.ok()) {
      return value.status();
    }
    Result<std::unique_ptr<ProfiledCollectiveEstimator>> estimator =
        ParseCollectiveEstimator(*value);
    if (!estimator.ok()) {
      return estimator.status();
    }
    bank.collective = *std::move(estimator);
  }
  {
    Result<JsonValue> value = ReadJsonFile(PathFor(subdir, kKernelValidationFile));
    if (!value.ok()) {
      return value.status();
    }
    Result<KernelDataset> validation = ParseKernelDataset(*value);
    if (!validation.ok()) {
      return validation.status();
    }
    bank.kernel_validation = *std::move(validation);
  }
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
  uint64_t imported = 0;
  {
    Result<JsonValue> value = ReadJsonFile(PathFor(target->dir, kKernelCacheFile));
    if (!value.ok()) {
      return value.status();
    }
    // Cache files are disk state like the manifest: torn or damaged bytes
    // must surface as a status, so To* conversions replace the CHECK-failing
    // As* accessors throughout the warm path.
    MAYA_ASSIGN_OR_RETURN(const JsonArray* kernel_items, ToArray(*value));
    std::vector<std::pair<KernelDesc, double>> entries;
    for (const JsonValue& entry : *kernel_items) {
      if (!entry.Has("kernel") || !entry.Has("duration_us")) {
        return Status::InvalidArgument("malformed kernel cache entry");
      }
      Result<KernelDesc> kernel = ParseKernelDescExact(entry.at("kernel"));
      if (!kernel.ok()) {
        return kernel.status();
      }
      MAYA_ASSIGN_OR_RETURN(const std::string duration_hex, ToString(entry.at("duration_us")));
      Result<double> duration = DoubleFromBits(duration_hex);
      if (!duration.ok()) {
        return duration.status();
      }
      entries.emplace_back(*kernel, *duration);
    }
    pipeline.ImportKernelEstimates(entries);
    imported += entries.size();
  }
  {
    Result<JsonValue> value = ReadJsonFile(PathFor(target->dir, kCollectiveCacheFile));
    if (!value.ok()) {
      return value.status();
    }
    MAYA_ASSIGN_OR_RETURN(const JsonArray* collective_items, ToArray(*value));
    std::vector<std::pair<CollectiveRequest, double>> entries;
    for (const JsonValue& entry : *collective_items) {
      if (!entry.Has("request") || !entry.Has("duration_us")) {
        return Status::InvalidArgument("malformed collective cache entry");
      }
      Result<CollectiveRequest> request = ParseCollectiveRequest(entry.at("request"));
      if (!request.ok()) {
        return request.status();
      }
      MAYA_ASSIGN_OR_RETURN(const std::string duration_hex, ToString(entry.at("duration_us")));
      Result<double> duration = DoubleFromBits(duration_hex);
      if (!duration.ok()) {
        return duration.status();
      }
      entries.emplace_back(*std::move(request), *duration);
    }
    pipeline.ImportCollectiveEstimates(entries);
    imported += entries.size();
  }
  {
    // Tolerate a missing file: bundles written before the sim cache existed
    // still warm-start (estimate caches only).
    Result<JsonValue> value = ReadJsonFile(PathFor(target->dir, kSimCacheFile));
    if (value.ok()) {
      MAYA_ASSIGN_OR_RETURN(const JsonArray* sim_items, ToArray(*value));
      std::vector<std::pair<uint64_t, std::shared_ptr<const ComponentSimResult>>> entries;
      for (const JsonValue& entry : *sim_items) {
        if (!entry.Has("key") || !entry.Has("workers")) {
          return Status::InvalidArgument("malformed sim cache entry");
        }
        MAYA_ASSIGN_OR_RETURN(const std::string key_hex, ToString(entry.at("key")));
        Result<uint64_t> key = Uint64FromHex(key_hex);
        if (!key.ok()) {
          return key.status();
        }
        auto result = std::make_shared<ComponentSimResult>();
        MAYA_ASSIGN_OR_RETURN(const JsonArray* workers, ToArray(entry.at("workers")));
        for (const JsonValue& worker : *workers) {
          MAYA_RETURN_IF_ERROR(RequireKeys(
              worker, {"finish_us", "host_busy_us", "compute_busy_us", "comm_busy_us",
                       "exposed_comm_us", "events"}));
          WorkerSimMetrics metrics;
          auto bits = [&worker](const char* field) -> Result<double> {
            MAYA_ASSIGN_OR_RETURN(const std::string hex, ToString(worker.at(field)));
            return DoubleFromBits(hex);
          };
          MAYA_ASSIGN_OR_RETURN(metrics.finish_us, bits("finish_us"));
          MAYA_ASSIGN_OR_RETURN(metrics.host_busy_us, bits("host_busy_us"));
          MAYA_ASSIGN_OR_RETURN(metrics.compute_busy_us, bits("compute_busy_us"));
          MAYA_ASSIGN_OR_RETURN(metrics.comm_busy_us, bits("comm_busy_us"));
          MAYA_ASSIGN_OR_RETURN(metrics.exposed_comm_us, bits("exposed_comm_us"));
          MAYA_ASSIGN_OR_RETURN(metrics.events, ToUint(worker.at("events")));
          result->workers.push_back(metrics);
        }
        entries.emplace_back(*key, std::move(result));
      }
      pipeline.ImportSimCache(entries);
      imported += entries.size();
    } else if (value.status().code() != StatusCode::kNotFound) {
      return value.status();
    }
  }
  return imported;
}

}  // namespace maya
