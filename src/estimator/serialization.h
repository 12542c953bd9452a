// JSON serialization of trained estimator state — the substrate of the
// service layer's persistent artifact bundles (ArtifactStore). Everything a
// warm Maya server needs to answer predictions without re-training round-trips
// through these Fields functions (src/common/json_fields.h): random forests
// (per-tree SoA node arrays), the per-kind kernel estimator, the profiled
// collective estimator's interpolation tables, and profiling datasets.
// Instantiated for JsonFieldWriter and JsonFieldReader; serialize with
// WriteJsonFields and parse with ReadJsonFields.
//
// Bit-exactness contract: doubles that participate in predictions (tree
// thresholds/leaf values, interpolation curves, cached estimates, KernelDesc
// flop/byte counts used as cache keys) are encoded as 16-hex-digit IEEE-754
// bit patterns, so a reloaded estimator produces bit-identical outputs to the
// process that trained it. (JSON numbers round-trip through decimal and a
// double-typed DOM, which loses bits above 2^53.)
#ifndef SRC_ESTIMATOR_SERIALIZATION_H_
#define SRC_ESTIMATOR_SERIALIZATION_H_

#include "src/common/json_fields.h"
#include "src/estimator/collective_estimator.h"
#include "src/estimator/kernel_estimator.h"
#include "src/estimator/random_forest.h"

namespace maya {

// KernelDesc with flop/byte counts encoded bit-exactly — required when the
// desc is a cache key (Hash()/operator== are over the raw bits). Traces carry
// a decimal form of their own (src/trace/serialization.cc).
template <class V>
void Fields(V& v, KernelDesc& kernel);
template <class V>
void Fields(V& v, CollectiveRequest& request);
template <class V>
void Fields(V& v, Dataset& data);
template <class V>
void Fields(V& v, KernelSample& sample);
template <class V>
void Fields(V& v, RandomForestRegressor& forest);
template <class V>
void Fields(V& v, RandomForestKernelEstimator& estimator);
template <class V>
void Fields(V& v, ProfiledCollectiveEstimator& estimator);

}  // namespace maya

#endif  // SRC_ESTIMATOR_SERIALIZATION_H_
