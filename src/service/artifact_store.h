// Persistent estimator artifacts: a versioned on-disk bundle holding
// everything a Maya server needs to warm-start — trained per-kind kernel
// forests, the profiled collective estimator, the held-out validation split,
// and the kernel/collective estimate caches. A restarted server (or a fresh
// sweep process) loads the bundle instead of re-running profiling sweeps and
// re-training forests, and answers a repeated sweep with the previous
// process's cache hit rate and bit-identical predictions.
//
// v1 bundle (single deployment, directory of JSON files):
//   manifest.json            — format version, full ClusterSpec, entry counts
//   kernel_estimator.json    — RandomForestKernelEstimator (per-kind forests)
//   collective_estimator.json— ProfiledCollectiveEstimator tables
//   kernel_validation.json   — held-out KernelDataset (MAPE evaluation)
//   kernel_cache.json        — KernelDesc -> duration_us estimate entries
//   collective_cache.json    — CollectiveRequest -> duration_us entries
//   sim_cache.json           — component fingerprint -> per-worker replay
//                              metrics (the stage-4 cross-trial cache);
//                              absent in bundles predating it (tolerated)
//
// v2 bundle (fleet of deployments, one per-arch estimator bank each):
//   manifest.json            — version 2 + a deployments array naming each
//                              deployment, its cluster and its subdirectory
//   deployment_<i>/          — the same per-deployment file set as v1
//
// v1 bundles still load — as a single deployment named "default". All
// prediction-relevant doubles use the bit-exact hex encoding from
// src/estimator/serialization.h, so loading is lossless.
#ifndef SRC_SERVICE_ARTIFACT_STORE_H_
#define SRC_SERVICE_ARTIFACT_STORE_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/core/deployment_registry.h"
#include "src/core/estimator_bank.h"
#include "src/core/pipeline.h"
#include "src/hw/cluster_spec.h"

namespace maya {

// Bumped on any incompatible change to the bundle layout or encodings.
inline constexpr int kArtifactBundleVersion = 1;
// The multi-deployment bundle format.
inline constexpr int kArtifactBundleVersionMulti = 2;

struct DeploymentManifest {
  std::string name;
  std::string dir;  // bundle-relative subdirectory ("" for v1 bundles)
  ClusterSpec cluster;
  uint64_t kernel_cache_entries = 0;
  uint64_t collective_cache_entries = 0;
  uint64_t sim_cache_entries = 0;  // 0 for bundles predating the sim cache
  // Cumulative per-stage wall time the saving engine had accumulated for
  // this deployment (ServiceStats::stage_totals), so observability counters
  // survive restarts like cache contents do. Zero for bundles predating it.
  StageTimings stage_totals;
  uint64_t timed_requests = 0;
};

struct ArtifactManifest {
  int version = 0;
  // The first (v1: only) deployment's cluster — kept for single-deployment
  // callers; `deployments` is the full fleet either way.
  ClusterSpec cluster;
  uint64_t kernel_cache_entries = 0;
  uint64_t collective_cache_entries = 0;
  std::vector<DeploymentManifest> deployments;
};

// One deployment rebuilt from a bundle.
struct LoadedDeployment {
  std::string name;
  ClusterSpec cluster;
  EstimatorBank bank;
  // Restored usage counters (see DeploymentManifest).
  StageTimings stage_totals;
  uint64_t timed_requests = 0;
};

// Per-deployment usage counters a saving engine passes to SaveRegistry,
// keyed by deployment name.
struct DeploymentUsage {
  StageTimings stage_totals;
  uint64_t timed_requests = 0;
};

// One entry of each cache file: the canonical key and its bit-exact value.
using KernelCacheEntry = std::pair<KernelDesc, double>;
using CollectiveCacheEntry = std::pair<CollectiveRequest, double>;
using SimCacheEntry = std::pair<uint64_t, std::shared_ptr<const ComponentSimResult>>;

// The cache files' entry formats, shared with bundle merging. Instantiated
// for JsonFieldWriter and JsonFieldReader.
template <class V>
void Fields(V& v, KernelCacheEntry& entry);
template <class V>
void Fields(V& v, CollectiveCacheEntry& entry);
template <class V>
void Fields(V& v, SimCacheEntry& entry);

// The store's file I/O, shared with bundle merging. WriteArtifactFile
// publishes `contents` plus a trailing newline durably (fsync'd tmp, rename,
// directory fsync) behind the artifact.* fault sites; ReadArtifactFile reads
// a whole file (NotFound when it cannot be opened).
Status WriteArtifactFile(const std::string& path, const std::string& contents);
Result<std::string> ReadArtifactFile(const std::string& path);

class ArtifactStore {
 public:
  explicit ArtifactStore(std::string dir) : dir_(std::move(dir)) {}

  const std::string& dir() const { return dir_; }
  // True when the bundle directory holds a manifest.
  bool Exists() const;

  // Writes a v1 single-deployment bundle (estimators + the pipeline's
  // current estimate caches) atomically enough for a single writer: any
  // existing manifest is removed first and the new one lands last, so a
  // crash at any point leaves a manifest-less directory that never loads —
  // not a torn bundle.
  Status Save(const ClusterSpec& cluster, const EstimatorBank& bank,
              const MayaPipeline& pipeline) const;

  // Estimators only (no caches to snapshot yet) — e.g. right after training.
  Status SaveEstimators(const ClusterSpec& cluster, const EstimatorBank& bank) const;

  // Writes a v2 bundle holding every registered deployment that owns its
  // bank (estimators + that deployment's pipeline caches). Same manifest-
  // last crash discipline as Save. Borrowed-estimator deployments cannot be
  // persisted and make the save fail. `usage` optionally carries cumulative
  // per-deployment stage totals (by name) to persist alongside the caches.
  Status SaveRegistry(const DeploymentRegistry& registry,
                      const std::map<std::string, DeploymentUsage>& usage = {}) const;

  // Accepts v1 and v2 manifests.
  Result<ArtifactManifest> ReadManifest() const;
  // The first and last steps of every bundle write. InvalidateManifest
  // creates the bundle directory and removes any manifest, so a crash from
  // there until WriteManifest publishes the new one leaves a bundle that
  // never loads — not one mixing new and stale (or torn) files.
  Status InvalidateManifest() const;
  Status WriteManifest(const ArtifactManifest& manifest) const;

  // Rebuilds every deployment in the bundle (v1: one, named "default").
  Result<std::vector<LoadedDeployment>> LoadDeployments() const;

  // v1-style single-bank load. Fails on version mismatch or when no bundled
  // deployment's cluster matches `expected_cluster` (trained estimators are
  // cluster-specific; a bundle from another cluster would silently answer
  // with the wrong hardware model).
  Result<EstimatorBank> LoadEstimators(const ClusterSpec& expected_cluster) const;

  // Seeds the pipeline's estimate caches from deployment `name`'s cache
  // files; returns the number of entries imported. Call with a pipeline
  // built over estimators loaded from the SAME bundle — cache values are
  // only valid for the estimators that produced them.
  Result<uint64_t> WarmPipeline(const std::string& name, MayaPipeline& pipeline) const;
  // v1 convenience: warms from the default deployment.
  Result<uint64_t> WarmPipeline(MayaPipeline& pipeline) const {
    return WarmPipeline(kDefaultDeploymentName, pipeline);
  }

  // Structural cluster identity via the canonical JSON encoding: the
  // evaluation clusters are constructed from constants, so equal specs
  // serialize equally.
  static std::string ClusterSignature(const ClusterSpec& cluster);

 private:
  // Save and SaveEstimators: a null pipeline writes empty cache files.
  Status SaveSingle(const ClusterSpec& cluster, const EstimatorBank& bank,
                    const MayaPipeline* pipeline) const;
  // Writes one deployment's file set into dir_/deployment.dir ("" = bundle
  // root) and records its cache entry counts in `deployment`.
  Status SaveDeploymentFiles(const EstimatorBank& bank, const MayaPipeline* pipeline,
                             DeploymentManifest& deployment) const;
  Result<EstimatorBank> LoadBankFrom(const std::string& subdir) const;
  std::string PathFor(const std::string& subdir, const char* file) const;

  std::string dir_;
};

}  // namespace maya

#endif  // SRC_SERVICE_ARTIFACT_STORE_H_
