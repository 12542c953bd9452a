#include "src/service/bundle_merge.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "src/common/json_parser.h"
#include "src/common/json_writer.h"
#include "src/common/strings.h"
#include "src/estimator/serialization.h"
#include "src/service/artifact_store.h"
#include "src/service/metrics_exporter.h"
#include "src/service/protocol.h"

namespace maya {
namespace {

constexpr const char* kEstimatorFiles[] = {"kernel_estimator.json", "collective_estimator.json"};
constexpr const char* kValidationFile = "kernel_validation.json";

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

// The store's writer terminates every file with exactly one trailing newline;
// match it so a self-merge reproduces the input bundle byte for byte.
Status WriteBundleFile(const std::string& path, std::string content) {
  if (content.empty() || content.back() != '\n') {
    content.push_back('\n');
  }
  return WriteTextFile(path, content);
}

std::string JoinPath(const std::string& dir, const std::string& subdir, const char* file) {
  std::filesystem::path path(dir);
  if (!subdir.empty()) {
    path /= subdir;
  }
  return (path / file).string();
}

// One cache file's entries, keyed canonically, in first-seen order.
struct MergedCache {
  std::vector<std::string> entries;  // rendered objects
  std::map<std::string, size_t> index;
  uint64_t conflicts = 0;

  void Add(std::string key, std::string rendered) {
    if (index.count(key) != 0) {
      ++conflicts;  // keep-first: earlier inputs win
      return;
    }
    index.emplace(std::move(key), entries.size());
    entries.push_back(std::move(rendered));
  }

  std::string Render() const {
    std::string out = "[";
    for (size_t i = 0; i < entries.size(); ++i) {
      if (i != 0) {
        out.push_back(',');
      }
      out += entries[i];
    }
    out.push_back(']');
    return out;
  }
};

// One deployment accumulating across inputs.
struct MergedDeployment {
  std::string name;
  std::string first_input;  // bundle dir the estimators came from
  ClusterSpec cluster;
  std::string estimators[2];  // kernel_estimator / collective_estimator bytes
  std::string validation;
  MergedCache kernel_cache;
  MergedCache collective_cache;
  MergedCache sim_cache;
  StageTimings stage_totals;
  uint64_t timed_requests = 0;
  uint64_t inputs = 0;
};

// Re-renders one kernel-cache entry with its canonical key. The duration hex
// string passes through verbatim; the kernel object is round-tripped through
// the exact (bit-preserving) codec, which is also what canonicalizes key
// order for deduplication.
Status MergeKernelCache(const JsonValue& root, const std::string& path, MergedCache* cache) {
  MAYA_ASSIGN_OR_RETURN(const JsonArray* entries, ToArray(root));
  for (const JsonValue& entry : *entries) {
    MAYA_RETURN_IF_ERROR(RequireKeys(entry, {"kernel", "duration_us"}));
    Result<KernelDesc> kernel = ParseKernelDescExact(entry.at("kernel"));
    if (!kernel.ok()) {
      return Status::InvalidArgument(path + ": " + kernel.status().message());
    }
    MAYA_ASSIGN_OR_RETURN(const std::string duration, ToString(entry.at("duration_us")));
    JsonWriter key;
    WriteKernelDescExact(key, *kernel);
    JsonWriter rendered;
    rendered.BeginObject();
    rendered.Key("kernel");
    WriteKernelDescExact(rendered, *kernel);
    rendered.Field("duration_us", std::string_view(duration));
    rendered.EndObject();
    cache->Add(key.str(), rendered.str());
  }
  return Status::Ok();
}

Status MergeCollectiveCache(const JsonValue& root, const std::string& path, MergedCache* cache) {
  MAYA_ASSIGN_OR_RETURN(const JsonArray* entries, ToArray(root));
  for (const JsonValue& entry : *entries) {
    MAYA_RETURN_IF_ERROR(RequireKeys(entry, {"request", "duration_us"}));
    Result<CollectiveRequest> request = ParseCollectiveRequest(entry.at("request"));
    if (!request.ok()) {
      return Status::InvalidArgument(path + ": " + request.status().message());
    }
    MAYA_ASSIGN_OR_RETURN(const std::string duration, ToString(entry.at("duration_us")));
    JsonWriter key;
    WriteCollectiveRequest(key, *request);
    JsonWriter rendered;
    rendered.BeginObject();
    rendered.Key("request");
    WriteCollectiveRequest(rendered, *request);
    rendered.Field("duration_us", std::string_view(duration));
    rendered.EndObject();
    cache->Add(key.str(), rendered.str());
  }
  return Status::Ok();
}

Status MergeSimCache(const JsonValue& root, const std::string& path, MergedCache* cache) {
  MAYA_ASSIGN_OR_RETURN(const JsonArray* entries, ToArray(root));
  for (const JsonValue& entry : *entries) {
    MAYA_RETURN_IF_ERROR(RequireKeys(entry, {"key", "workers"}));
    MAYA_ASSIGN_OR_RETURN(const std::string key, ToString(entry.at("key")));
    MAYA_ASSIGN_OR_RETURN(const JsonArray* workers, ToArray(entry.at("workers")));
    JsonWriter rendered;
    rendered.BeginObject();
    rendered.Field("key", std::string_view(key));
    rendered.KeyedBeginArray("workers");
    for (const JsonValue& worker : *workers) {
      MAYA_RETURN_IF_ERROR(RequireKeys(worker, {"finish_us", "host_busy_us", "compute_busy_us",
                                                "comm_busy_us", "exposed_comm_us", "events"}));
      rendered.BeginObject();
      for (const char* field :
           {"finish_us", "host_busy_us", "compute_busy_us", "comm_busy_us", "exposed_comm_us"}) {
        MAYA_ASSIGN_OR_RETURN(const std::string hex, ToString(worker.at(field)));
        if (!DoubleFromBits(hex).ok()) {
          return Status::InvalidArgument(path + ": sim cache field '" + std::string(field) +
                                         "' is not a hex double");
        }
        rendered.Field(field, std::string_view(hex));
      }
      MAYA_ASSIGN_OR_RETURN(const uint64_t events, ToUint(worker.at("events")));
      rendered.Field("events", events);
      rendered.EndObject();
    }
    rendered.EndArray();
    rendered.EndObject();
    cache->Add(key, rendered.str());
  }
  return Status::Ok();
}

Status MergeCacheFile(const std::string& dir, const std::string& subdir, const char* file,
                      Status (*merge)(const JsonValue&, const std::string&, MergedCache*),
                      MergedCache* cache) {
  const std::string path = JoinPath(dir, subdir, file);
  MAYA_ASSIGN_OR_RETURN(const std::string contents, ReadFile(path));
  Result<JsonValue> root = ParseJson(contents);
  if (!root.ok()) {
    return Status::InvalidArgument(path + ": " + root.status().message());
  }
  return merge(*root, path, cache);
}

}  // namespace

Result<BundleMergeReport> MergeBundles(const std::vector<std::string>& inputs,
                                       const std::string& out_dir) {
  if (inputs.size() < 2) {
    return Status::InvalidArgument("merge needs at least two input bundles");
  }
  std::error_code ec;
  const std::filesystem::path out_canonical = std::filesystem::weakly_canonical(out_dir, ec);
  for (const std::string& input : inputs) {
    if (std::filesystem::weakly_canonical(input, ec) == out_canonical) {
      return Status::InvalidArgument("output directory '" + out_dir + "' is also an input");
    }
  }

  std::vector<MergedDeployment> merged;
  std::map<std::string, size_t> by_name;
  for (const std::string& input : inputs) {
    const ArtifactStore store(input);
    Result<ArtifactManifest> manifest = store.ReadManifest();
    if (!manifest.ok()) {
      return Status::InvalidArgument("input bundle '" + input +
                                     "': " + manifest.status().message());
    }
    for (const DeploymentManifest& deployment : manifest->deployments) {
      const std::string& subdir = deployment.dir;  // "" for v1 bundles
      std::string estimators[2];
      for (int i = 0; i < 2; ++i) {
        MAYA_ASSIGN_OR_RETURN(estimators[i],
                              ReadFile(JoinPath(input, subdir, kEstimatorFiles[i])));
      }
      MergedDeployment* target = nullptr;
      if (auto it = by_name.find(deployment.name); it != by_name.end()) {
        target = &merged[it->second];
        // Cached durations are only meaningful for the bank that produced
        // them; same-name deployments trained differently do not merge.
        for (int i = 0; i < 2; ++i) {
          if (estimators[i] != target->estimators[i]) {
            return Status::FailedPrecondition(StrFormat(
                "deployment '%s' in '%s' carries a different %s than '%s'; refusing to merge "
                "caches across differently trained estimators",
                deployment.name.c_str(), input.c_str(), kEstimatorFiles[i],
                target->first_input.c_str()));
          }
        }
      } else {
        by_name.emplace(deployment.name, merged.size());
        merged.emplace_back();
        target = &merged.back();
        target->name = deployment.name;
        target->first_input = input;
        target->cluster = deployment.cluster;
        target->estimators[0] = std::move(estimators[0]);
        target->estimators[1] = std::move(estimators[1]);
        MAYA_ASSIGN_OR_RETURN(target->validation,
                              ReadFile(JoinPath(input, subdir, kValidationFile)));
        target->stage_totals = deployment.stage_totals;
        target->timed_requests = deployment.timed_requests;
      }
      ++target->inputs;
      MAYA_RETURN_IF_ERROR(MergeCacheFile(input, subdir, "kernel_cache.json", MergeKernelCache,
                                          &target->kernel_cache));
      MAYA_RETURN_IF_ERROR(MergeCacheFile(input, subdir, "collective_cache.json",
                                          MergeCollectiveCache, &target->collective_cache));
      MAYA_RETURN_IF_ERROR(
          MergeCacheFile(input, subdir, "sim_cache.json", MergeSimCache, &target->sim_cache));
    }
  }

  // Write like the store writes: invalidate any existing manifest first,
  // data files next, the fresh manifest strictly last.
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    return Status::Internal("cannot create '" + out_dir + "': " + ec.message());
  }
  std::filesystem::remove(std::filesystem::path(out_dir) / "manifest.json", ec);

  JsonWriter manifest;
  manifest.BeginObject();
  manifest.Field("version", static_cast<int64_t>(kArtifactBundleVersionMulti));
  manifest.KeyedBeginArray("deployments");
  BundleMergeReport report;
  for (size_t i = 0; i < merged.size(); ++i) {
    const MergedDeployment& deployment = merged[i];
    const std::string subdir = StrFormat("deployment_%zu", i);
    std::filesystem::create_directories(std::filesystem::path(out_dir) / subdir, ec);
    if (ec) {
      return Status::Internal("cannot create '" + out_dir + "/" + subdir + "': " + ec.message());
    }
    for (int f = 0; f < 2; ++f) {
      MAYA_RETURN_IF_ERROR(
          WriteBundleFile(JoinPath(out_dir, subdir, kEstimatorFiles[f]), deployment.estimators[f]));
    }
    MAYA_RETURN_IF_ERROR(
        WriteBundleFile(JoinPath(out_dir, subdir, kValidationFile), deployment.validation));
    MAYA_RETURN_IF_ERROR(WriteBundleFile(JoinPath(out_dir, subdir, "kernel_cache.json"),
                                       deployment.kernel_cache.Render()));
    MAYA_RETURN_IF_ERROR(WriteBundleFile(JoinPath(out_dir, subdir, "collective_cache.json"),
                                       deployment.collective_cache.Render()));
    MAYA_RETURN_IF_ERROR(WriteBundleFile(JoinPath(out_dir, subdir, "sim_cache.json"),
                                       deployment.sim_cache.Render()));

    manifest.BeginObject();
    manifest.Field("name", std::string_view(deployment.name));
    manifest.Field("dir", std::string_view(subdir));
    manifest.Key("cluster");
    WriteJsonFields(manifest, deployment.cluster);
    manifest.Field("kernel_cache_entries",
                   static_cast<uint64_t>(deployment.kernel_cache.entries.size()));
    manifest.Field("collective_cache_entries",
                   static_cast<uint64_t>(deployment.collective_cache.entries.size()));
    manifest.Field("sim_cache_entries",
                   static_cast<uint64_t>(deployment.sim_cache.entries.size()));
    if (deployment.timed_requests > 0) {
      manifest.Field("timed_requests", deployment.timed_requests);
      manifest.KeyedBeginObject("stage_totals");
      manifest.Field("emulation_ms",
                     std::string_view(DoubleBits(deployment.stage_totals.emulation_ms)));
      manifest.Field("collation_ms",
                     std::string_view(DoubleBits(deployment.stage_totals.collation_ms)));
      manifest.Field("estimation_ms",
                     std::string_view(DoubleBits(deployment.stage_totals.estimation_ms)));
      manifest.Field("simulation_ms",
                     std::string_view(DoubleBits(deployment.stage_totals.simulation_ms)));
      manifest.EndObject();
    }
    manifest.EndObject();

    BundleMergeReport::DeploymentReport entry;
    entry.name = deployment.name;
    entry.inputs = deployment.inputs;
    entry.kernel_entries = deployment.kernel_cache.entries.size();
    entry.collective_entries = deployment.collective_cache.entries.size();
    entry.sim_entries = deployment.sim_cache.entries.size();
    entry.kernel_conflicts = deployment.kernel_cache.conflicts;
    entry.collective_conflicts = deployment.collective_cache.conflicts;
    entry.sim_conflicts = deployment.sim_cache.conflicts;
    report.deployments.push_back(std::move(entry));
  }
  manifest.EndArray();
  manifest.EndObject();
  MAYA_RETURN_IF_ERROR(
      WriteBundleFile((std::filesystem::path(out_dir) / "manifest.json").string(), manifest.str()));
  return report;
}

}  // namespace maya
