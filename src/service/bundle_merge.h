// Offline merge of artifact bundles (see artifact_store.h) into one v2
// bundle, so caches warmed by separate maya_serve processes — a fleet of
// what-if servers, CI shards, a laptop and a batch job — pool their work.
//
// Merge semantics:
//   - Deployments are matched by name across inputs (a v1 bundle is one
//     deployment named "default"); first-seen order is preserved and
//     distinct names are all carried into the output.
//   - Same-name deployments must carry byte-identical estimator files
//     (kernel_estimator.json / collective_estimator.json): cached durations
//     are only valid for the estimators that produced them, so differently
//     trained banks under one name refuse to merge rather than mix.
//   - Cache files union entry by entry with keep-first conflict resolution.
//     Entries are parsed and re-rendered through the store's own cache-entry
//     codec, keyed by their canonical key serialization; durations and
//     metrics are bit-exact hex doubles, so a bundle merged with itself is
//     byte-identical to the input and warm-start predictions stay bit-exact.
//   - Per-deployment usage metadata (stage_totals, timed_requests) keeps the
//     first input's values.
//
// The output directory is written through the store's durable file writer,
// like the store writes bundles: manifest removed first, data files next,
// manifest strictly last — a crash or failed write mid-merge leaves a
// directory that never loads, not a half-merged bundle.
#ifndef SRC_SERVICE_BUNDLE_MERGE_H_
#define SRC_SERVICE_BUNDLE_MERGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace maya {

struct BundleMergeReport {
  struct DeploymentReport {
    std::string name;
    uint64_t inputs = 0;  // input bundles contributing this deployment
    uint64_t kernel_entries = 0;
    uint64_t collective_entries = 0;
    uint64_t sim_entries = 0;
    // Duplicate keys dropped by keep-first resolution.
    uint64_t kernel_conflicts = 0;
    uint64_t collective_conflicts = 0;
    uint64_t sim_conflicts = 0;
  };
  std::vector<DeploymentReport> deployments;
};

// Merges `inputs` (paths of existing bundle directories, v1 or v2, earlier =
// higher precedence) into a v2 bundle at `out_dir`. `out_dir` must not be an
// input. Fails without writing a manifest on unreadable inputs or
// same-name/different-estimator conflicts.
Result<BundleMergeReport> MergeBundles(const std::vector<std::string>& inputs,
                                       const std::string& out_dir);

}  // namespace maya

#endif  // SRC_SERVICE_BUNDLE_MERGE_H_
