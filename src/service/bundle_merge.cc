#include "src/service/bundle_merge.h"

#include <filesystem>
#include <map>
#include <utility>

#include "src/common/json_fields.h"
#include "src/common/json_parser.h"
#include "src/common/strings.h"
#include "src/estimator/serialization.h"
#include "src/service/artifact_store.h"

namespace maya {
namespace {

constexpr const char* kEstimatorFiles[] = {"kernel_estimator.json", "collective_estimator.json"};
constexpr const char* kValidationFile = "kernel_validation.json";

std::string JoinPath(const std::string& dir, const std::string& subdir, const char* file) {
  std::filesystem::path path(dir);
  if (!subdir.empty()) {
    path /= subdir;
  }
  return (path / file).string();
}

// A file's bytes for verbatim pass-through, less the trailing newline
// WriteArtifactFile appends again.
Result<std::string> ReadPassThrough(const std::string& path) {
  MAYA_ASSIGN_OR_RETURN(std::string bytes, ReadArtifactFile(path));
  if (!bytes.empty() && bytes.back() == '\n') {
    bytes.pop_back();
  }
  return bytes;
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
  DeploymentManifest manifest;  // the first input's name, cluster and usage
  std::string first_input;      // bundle dir the estimators came from
  std::string estimators[2];    // kernel_estimator / collective_estimator bytes
  std::string validation;
  MergedCache kernel_cache;
  MergedCache collective_cache;
  MergedCache sim_cache;
  uint64_t inputs = 0;
};

// Adds one cache file's entries under their canonical keys. Each entry is
// parsed and re-rendered through the store's own codec (bit-exact), which
// also canonicalizes key order, so merging reproduces the store's bytes.
template <class Entry>
Status MergeCacheFile(const std::string& path, MergedCache* cache) {
  MAYA_ASSIGN_OR_RETURN(const std::string contents, ReadArtifactFile(path));
  Result<JsonValue> root = ParseJson(contents);
  if (!root.ok()) {
    return Status::InvalidArgument(path + ": " + root.status().message());
  }
  std::vector<Entry> entries;
  if (const Status read = ReadJsonFields(*root, entries); !read.ok()) {
    return Status::InvalidArgument(path + ": " + read.message());
  }
  for (const Entry& entry : entries) {
    cache->Add(WriteJsonFields(entry.first), WriteJsonFields(entry));
  }
  return Status::Ok();
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
                              ReadPassThrough(JoinPath(input, subdir, kEstimatorFiles[i])));
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
        target->manifest = deployment;
        target->first_input = input;
        target->estimators[0] = std::move(estimators[0]);
        target->estimators[1] = std::move(estimators[1]);
        MAYA_ASSIGN_OR_RETURN(target->validation,
                              ReadPassThrough(JoinPath(input, subdir, kValidationFile)));
      }
      ++target->inputs;
      MAYA_RETURN_IF_ERROR(MergeCacheFile<KernelCacheEntry>(
          JoinPath(input, subdir, "kernel_cache.json"), &target->kernel_cache));
      MAYA_RETURN_IF_ERROR(MergeCacheFile<CollectiveCacheEntry>(
          JoinPath(input, subdir, "collective_cache.json"), &target->collective_cache));
      MAYA_RETURN_IF_ERROR(MergeCacheFile<SimCacheEntry>(
          JoinPath(input, subdir, "sim_cache.json"), &target->sim_cache));
    }
  }

  // Write like the store writes: invalidate any existing manifest first,
  // data files next, the fresh manifest strictly last.
  const ArtifactStore out(out_dir);
  MAYA_RETURN_IF_ERROR(out.InvalidateManifest());

  ArtifactManifest manifest;
  manifest.version = kArtifactBundleVersionMulti;
  BundleMergeReport report;
  for (size_t i = 0; i < merged.size(); ++i) {
    const MergedDeployment& deployment = merged[i];
    const std::string subdir = StrFormat("deployment_%zu", i);
    std::filesystem::create_directories(std::filesystem::path(out_dir) / subdir, ec);
    if (ec) {
      return Status::Internal("cannot create '" + out_dir + "/" + subdir + "': " + ec.message());
    }
    for (int f = 0; f < 2; ++f) {
      MAYA_RETURN_IF_ERROR(WriteArtifactFile(JoinPath(out_dir, subdir, kEstimatorFiles[f]),
                                             deployment.estimators[f]));
    }
    MAYA_RETURN_IF_ERROR(
        WriteArtifactFile(JoinPath(out_dir, subdir, kValidationFile), deployment.validation));
    MAYA_RETURN_IF_ERROR(WriteArtifactFile(JoinPath(out_dir, subdir, "kernel_cache.json"),
                                           deployment.kernel_cache.Render()));
    MAYA_RETURN_IF_ERROR(WriteArtifactFile(JoinPath(out_dir, subdir, "collective_cache.json"),
                                           deployment.collective_cache.Render()));
    MAYA_RETURN_IF_ERROR(WriteArtifactFile(JoinPath(out_dir, subdir, "sim_cache.json"),
                                           deployment.sim_cache.Render()));

    DeploymentManifest& entry = manifest.deployments.emplace_back(deployment.manifest);
    entry.dir = subdir;
    entry.kernel_cache_entries = deployment.kernel_cache.entries.size();
    entry.collective_cache_entries = deployment.collective_cache.entries.size();
    entry.sim_cache_entries = deployment.sim_cache.entries.size();

    BundleMergeReport::DeploymentReport& counts = report.deployments.emplace_back();
    counts.name = entry.name;
    counts.inputs = deployment.inputs;
    counts.kernel_entries = entry.kernel_cache_entries;
    counts.collective_entries = entry.collective_cache_entries;
    counts.sim_entries = entry.sim_cache_entries;
    counts.kernel_conflicts = deployment.kernel_cache.conflicts;
    counts.collective_conflicts = deployment.collective_cache.conflicts;
    counts.sim_conflicts = deployment.sim_cache.conflicts;
  }
  MAYA_RETURN_IF_ERROR(out.WriteManifest(manifest));
  return report;
}

}  // namespace maya
