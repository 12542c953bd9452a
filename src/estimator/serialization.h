// JSON serialization of trained estimator state — the substrate of the
// service layer's persistent artifact bundles (ArtifactStore). Everything a
// warm Maya server needs to answer predictions without re-training round-trips
// through these functions: random forests (per-tree SoA node arrays), the
// per-kind kernel estimator, the profiled collective estimator's
// interpolation tables, and profiling datasets.
//
// Bit-exactness contract: doubles that participate in predictions (tree
// thresholds/leaf values, interpolation curves, cached estimates, KernelDesc
// flop/byte counts used as cache keys) are encoded as 16-hex-digit IEEE-754
// bit patterns, so a reloaded estimator produces bit-identical outputs to the
// process that trained it. (JSON numbers round-trip through decimal and a
// double-typed DOM, which loses bits above 2^53.)
#ifndef SRC_ESTIMATOR_SERIALIZATION_H_
#define SRC_ESTIMATOR_SERIALIZATION_H_

#include <memory>
#include <string>

#include "src/common/json_parser.h"
#include "src/common/json_writer.h"
#include "src/common/status.h"
#include "src/common/strings.h"
#include "src/estimator/collective_estimator.h"
#include "src/estimator/kernel_estimator.h"
#include "src/estimator/random_forest.h"

namespace maya {

// KernelDesc with flop/byte counts encoded bit-exactly — required when the
// desc is a cache key (Hash()/operator== are over the raw bits).
void WriteKernelDescExact(JsonWriter& w, const KernelDesc& kernel);
Result<KernelDesc> ParseKernelDescExact(const JsonValue& value);

void WriteCollectiveRequest(JsonWriter& w, const CollectiveRequest& request);
Result<CollectiveRequest> ParseCollectiveRequest(const JsonValue& value);

void WriteDataset(JsonWriter& w, const Dataset& data);
Result<Dataset> ParseDataset(const JsonValue& value);

void WriteKernelDataset(JsonWriter& w, const KernelDataset& samples);
Result<KernelDataset> ParseKernelDataset(const JsonValue& value);

void WriteRandomForest(JsonWriter& w, const RandomForestRegressor& forest);
Result<RandomForestRegressor> ParseRandomForest(const JsonValue& value);

void WriteKernelEstimator(JsonWriter& w, const RandomForestKernelEstimator& estimator);
Result<std::unique_ptr<RandomForestKernelEstimator>> ParseKernelEstimator(
    const JsonValue& value);

void WriteCollectiveEstimator(JsonWriter& w, const ProfiledCollectiveEstimator& estimator);
Result<std::unique_ptr<ProfiledCollectiveEstimator>> ParseCollectiveEstimator(
    const JsonValue& value);

}  // namespace maya

#endif  // SRC_ESTIMATOR_SERIALIZATION_H_
