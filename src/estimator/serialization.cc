#include "src/estimator/serialization.h"

#include "src/trace/serialization.h"

namespace maya {

template <class V>
void Fields(V& v, KernelDesc& kernel) {
  v.Enum("kind", kernel.kind, KernelKindName, kKernelKinds);
  v.Enum("dtype", kernel.dtype, DTypeName, kDTypes);
  v("params", kernel.params);
  v.Bits("flops", kernel.flops);
  v.Bits("bytes_read", kernel.bytes_read);
  v.Bits("bytes_written", kernel.bytes_written);
  v("fused_ops", kernel.fused_op_count);
}

template <class V>
void Fields(V& v, CollectiveRequest& request) {
  v.Enum("kind", request.kind, CollectiveKindName, kCollectiveKinds);
  v("bytes", request.bytes);
  v("ranks", request.ranks);
}

template <class V>
void Fields(V& v, Dataset& data) {
  v.Bits("x", data.x);
  v.Bits("y", data.y);
  v.Validate([&data] {
    for (const std::vector<double>& row : data.x) {
      if (row.size() != data.x.front().size()) {
        return Status::InvalidArgument("dataset rows disagree on feature width");
      }
    }
    if (data.x.size() != data.y.size()) {
      return Status::InvalidArgument("dataset x/y length mismatch");
    }
    return Status::Ok();
  });
}

template <class V>
void Fields(V& v, KernelSample& sample) {
  v("kernel", sample.kernel);
  v.Bits("runtime_us", sample.runtime_us);
}

template <class V>
void Fields(V& v, RandomForestOptions& options) {
  v("num_trees", options.num_trees);
  v("max_depth", options.max_depth);
  v("min_samples_leaf", options.min_samples_leaf);
  v.Bits("feature_fraction", options.feature_fraction);
  v.Bits("sample_fraction", options.sample_fraction);
  v("seed", options.seed);
}

// The node arrays must agree in length, and every branch must point inside
// them: prediction walks them unchecked.
template <class V>
void Fields(V& v, RegressionTree& tree) {
  v("feature", tree.feature_);
  v.Bits("threshold", tree.threshold_);
  v("left", tree.left_);
  v("right", tree.right_);
  v.Bits("value", tree.value_);
  v.Validate([&tree] {
    const size_t nodes = tree.feature_.size();
    if (tree.threshold_.size() != nodes || tree.left_.size() != nodes ||
        tree.right_.size() != nodes || tree.value_.size() != nodes) {
      return Status::InvalidArgument("regression tree node arrays disagree on length");
    }
    if (nodes == 0) {
      return Status::InvalidArgument("regression tree has no nodes");
    }
    for (size_t i = 0; i < nodes; ++i) {
      const int32_t left = tree.left_[i];
      const int32_t right = tree.right_[i];
      if (tree.feature_[i] >= 0 && (left < 0 || right < 0 || static_cast<size_t>(left) >= nodes ||
                                    static_cast<size_t>(right) >= nodes)) {
        return Status::InvalidArgument("regression tree child index out of range");
      }
    }
    return Status::Ok();
  });
}

template <class V>
void Fields(V& v, RandomForestRegressor& forest) {
  v("options", forest.options_);
  v("trees", forest.trees_);
  v.Validate([&forest] {
    return forest.trees_.empty() ? Status::InvalidArgument("random forest has no trees")
                                 : Status::Ok();
  });
}

template <class V>
void Fields(V& v, RandomForestKernelEstimator& estimator) {
  v("options", estimator.options_);
  v.Map("forests", estimator.forests_,
        [](auto& entry, KernelKind& kind, RandomForestRegressor& forest) {
          entry.Enum("kind", kind, KernelKindName, kKernelKinds);
          entry("forest", forest);
        });
}

template <class V>
void Fields(V& v, ProfiledCollectiveEstimator& estimator) {
  v.Map("tables", estimator.tables_,
        [](auto& entry, ProfiledCollectiveEstimator::Key& key,
           ProfiledCollectiveEstimator::Curve& curve) {
          entry.Enum("kind", key.kind, CollectiveKindName, kCollectiveKinds);
          entry("nranks", key.nranks);
          entry("num_nodes", key.num_nodes);
          entry.Bits("curve", curve);
        });
}

#define MAYA_INSTANTIATE_FIELDS(T)              \
  template void Fields(JsonFieldWriter&, T&); \
  template void Fields(JsonFieldReader&, T&);
MAYA_INSTANTIATE_FIELDS(KernelDesc)
MAYA_INSTANTIATE_FIELDS(CollectiveRequest)
MAYA_INSTANTIATE_FIELDS(Dataset)
MAYA_INSTANTIATE_FIELDS(KernelSample)
MAYA_INSTANTIATE_FIELDS(RandomForestRegressor)
MAYA_INSTANTIATE_FIELDS(RandomForestKernelEstimator)
MAYA_INSTANTIATE_FIELDS(ProfiledCollectiveEstimator)
#undef MAYA_INSTANTIATE_FIELDS

}  // namespace maya
