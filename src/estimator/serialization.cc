#include "src/estimator/serialization.h"

#include <utility>
#include <vector>

#include "src/common/strings.h"
#include "src/trace/serialization.h"

namespace maya {
namespace {

// Reads a bit-encoded double field.
Result<double> BitsField(const JsonValue& value, const char* key) {
  if (!value.Has(key)) {
    return Status::InvalidArgument(std::string("missing key '") + key + "'");
  }
  return DoubleFromBits(value.at(key).AsString());
}

void WriteBitsArray(JsonWriter& w, std::string_view key, const std::vector<double>& values) {
  w.KeyedBeginArray(key);
  for (double value : values) {
    w.String(DoubleBits(value));
  }
  w.EndArray();
}

Result<std::vector<double>> ParseBitsArray(const JsonValue& value) {
  std::vector<double> out;
  out.reserve(value.AsArray().size());
  for (const JsonValue& entry : value.AsArray()) {
    Result<double> bits = DoubleFromBits(entry.AsString());
    if (!bits.ok()) {
      return bits.status();
    }
    out.push_back(*bits);
  }
  return out;
}

void WriteInt32Array(JsonWriter& w, std::string_view key, const std::vector<int32_t>& values) {
  w.KeyedBeginArray(key);
  for (int32_t value : values) {
    w.Int(value);
  }
  w.EndArray();
}

std::vector<int32_t> ParseInt32Array(const JsonValue& value) {
  std::vector<int32_t> out;
  out.reserve(value.AsArray().size());
  for (const JsonValue& entry : value.AsArray()) {
    out.push_back(static_cast<int32_t>(entry.AsInt()));
  }
  return out;
}

void WriteForestOptions(JsonWriter& w, const RandomForestOptions& options) {
  w.KeyedBeginObject("options");
  w.Field("num_trees", static_cast<int64_t>(options.num_trees));
  w.Field("max_depth", static_cast<int64_t>(options.max_depth));
  w.Field("min_samples_leaf", static_cast<int64_t>(options.min_samples_leaf));
  w.Key("feature_fraction");
  w.String(DoubleBits(options.feature_fraction));
  w.Key("sample_fraction");
  w.String(DoubleBits(options.sample_fraction));
  w.Field("seed", options.seed);
  w.EndObject();
}

Result<RandomForestOptions> ParseForestOptions(const JsonValue& value) {
  MAYA_RETURN_IF_ERROR(RequireKeys(value, {"num_trees", "max_depth", "min_samples_leaf",
                                           "feature_fraction", "sample_fraction", "seed"}));
  RandomForestOptions options;
  options.num_trees = static_cast<int>(value.at("num_trees").AsInt());
  options.max_depth = static_cast<int>(value.at("max_depth").AsInt());
  options.min_samples_leaf = static_cast<int>(value.at("min_samples_leaf").AsInt());
  Result<double> feature_fraction = BitsField(value, "feature_fraction");
  if (!feature_fraction.ok()) {
    return feature_fraction.status();
  }
  options.feature_fraction = *feature_fraction;
  Result<double> sample_fraction = BitsField(value, "sample_fraction");
  if (!sample_fraction.ok()) {
    return sample_fraction.status();
  }
  options.sample_fraction = *sample_fraction;
  options.seed = value.at("seed").AsUint();
  return options;
}

}  // namespace

// Friend of RegressionTree / RandomForestRegressor / RandomForestKernelEstimator:
// reads and writes their private model state directly so the classes stay free
// of serialization concerns (and of mutators that could corrupt a live model).
struct ForestSerializer {
  static void WriteTree(JsonWriter& w, const RegressionTree& tree) {
    w.BeginObject();
    WriteInt32Array(w, "feature", tree.feature_);
    WriteBitsArray(w, "threshold", tree.threshold_);
    WriteInt32Array(w, "left", tree.left_);
    WriteInt32Array(w, "right", tree.right_);
    WriteBitsArray(w, "value", tree.value_);
    w.EndObject();
  }

  static Result<RegressionTree> ParseTree(const JsonValue& value) {
    MAYA_RETURN_IF_ERROR(
        RequireKeys(value, {"feature", "threshold", "left", "right", "value"}));
    RegressionTree tree;
    tree.feature_ = ParseInt32Array(value.at("feature"));
    Result<std::vector<double>> threshold = ParseBitsArray(value.at("threshold"));
    if (!threshold.ok()) {
      return threshold.status();
    }
    tree.threshold_ = *std::move(threshold);
    tree.left_ = ParseInt32Array(value.at("left"));
    tree.right_ = ParseInt32Array(value.at("right"));
    Result<std::vector<double>> leaf_value = ParseBitsArray(value.at("value"));
    if (!leaf_value.ok()) {
      return leaf_value.status();
    }
    tree.value_ = *std::move(leaf_value);
    const size_t nodes = tree.feature_.size();
    if (tree.threshold_.size() != nodes || tree.left_.size() != nodes ||
        tree.right_.size() != nodes || tree.value_.size() != nodes) {
      return Status::InvalidArgument("regression tree node arrays disagree on length");
    }
    if (nodes == 0) {
      return Status::InvalidArgument("regression tree has no nodes");
    }
    for (size_t i = 0; i < nodes; ++i) {
      const bool leaf = tree.feature_[i] < 0;
      const int32_t left = tree.left_[i];
      const int32_t right = tree.right_[i];
      if (!leaf && (left < 0 || right < 0 || static_cast<size_t>(left) >= nodes ||
                    static_cast<size_t>(right) >= nodes)) {
        return Status::InvalidArgument("regression tree child index out of range");
      }
    }
    return tree;
  }

  static void WriteForest(JsonWriter& w, const RandomForestRegressor& forest) {
    w.BeginObject();
    WriteForestOptions(w, forest.options_);
    w.KeyedBeginArray("trees");
    for (const RegressionTree& tree : forest.trees_) {
      WriteTree(w, tree);
    }
    w.EndArray();
    w.EndObject();
  }

  static Result<RandomForestRegressor> ParseForest(const JsonValue& value) {
    MAYA_RETURN_IF_ERROR(RequireKeys(value, {"options", "trees"}));
    Result<RandomForestOptions> options = ParseForestOptions(value.at("options"));
    if (!options.ok()) {
      return options.status();
    }
    RandomForestRegressor forest(*options);
    for (const JsonValue& tree_value : value.at("trees").AsArray()) {
      Result<RegressionTree> tree = ParseTree(tree_value);
      if (!tree.ok()) {
        return tree.status();
      }
      forest.trees_.push_back(*std::move(tree));
    }
    if (forest.trees_.empty()) {
      return Status::InvalidArgument("random forest has no trees");
    }
    return forest;
  }

  static void WriteEstimator(JsonWriter& w, const RandomForestKernelEstimator& estimator) {
    w.BeginObject();
    WriteForestOptions(w, estimator.options_);
    w.KeyedBeginArray("forests");
    for (const auto& [kind, forest] : estimator.forests_) {
      w.BeginObject();
      w.Field("kind", std::string_view(KernelKindName(kind)));
      w.Key("forest");
      WriteForest(w, forest);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }

  static Result<std::unique_ptr<RandomForestKernelEstimator>> ParseEstimator(
      const JsonValue& value) {
    MAYA_RETURN_IF_ERROR(RequireKeys(value, {"options", "forests"}));
    Result<RandomForestOptions> options = ParseForestOptions(value.at("options"));
    if (!options.ok()) {
      return options.status();
    }
    auto estimator = std::make_unique<RandomForestKernelEstimator>(*options);
    for (const JsonValue& entry : value.at("forests").AsArray()) {
      MAYA_RETURN_IF_ERROR(RequireKeys(entry, {"kind", "forest"}));
      Result<KernelKind> kind = KernelKindFromName(entry.at("kind").AsString());
      if (!kind.ok()) {
        return kind.status();
      }
      Result<RandomForestRegressor> forest = ParseForest(entry.at("forest"));
      if (!forest.ok()) {
        return forest.status();
      }
      if (!estimator->forests_.emplace(*kind, *std::move(forest)).second) {
        return Status::InvalidArgument("duplicate kernel kind in estimator");
      }
    }
    return estimator;
  }
};

// Friend of ProfiledCollectiveEstimator (accesses the private Key/Curve map).
struct CollectiveEstimatorSerializer {
  static void Write(JsonWriter& w, const ProfiledCollectiveEstimator& estimator) {
    w.BeginObject();
    w.KeyedBeginArray("tables");
    for (const auto& [key, curve] : estimator.tables_) {
      w.BeginObject();
      w.Field("kind", std::string_view(CollectiveKindName(key.kind)));
      w.Field("nranks", static_cast<int64_t>(key.nranks));
      w.Field("num_nodes", static_cast<int64_t>(key.num_nodes));
      w.KeyedBeginArray("curve");
      for (const auto& [log_bytes, log_us] : curve) {
        w.BeginArray();
        w.String(DoubleBits(log_bytes));
        w.String(DoubleBits(log_us));
        w.EndArray();
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }

  static Result<std::unique_ptr<ProfiledCollectiveEstimator>> Parse(const JsonValue& value) {
    MAYA_RETURN_IF_ERROR(RequireKeys(value, {"tables"}));
    auto estimator = std::make_unique<ProfiledCollectiveEstimator>();
    for (const JsonValue& entry : value.at("tables").AsArray()) {
      MAYA_RETURN_IF_ERROR(RequireKeys(entry, {"kind", "nranks", "num_nodes", "curve"}));
      Result<CollectiveKind> kind = CollectiveKindFromName(entry.at("kind").AsString());
      if (!kind.ok()) {
        return kind.status();
      }
      ProfiledCollectiveEstimator::Key key{
          *kind, static_cast<int32_t>(entry.at("nranks").AsInt()),
          static_cast<int32_t>(entry.at("num_nodes").AsInt())};
      ProfiledCollectiveEstimator::Curve curve;
      for (const JsonValue& point : entry.at("curve").AsArray()) {
        const JsonArray& pair = point.AsArray();
        if (pair.size() != 2) {
          return Status::InvalidArgument("collective curve point must be a [bytes, us] pair");
        }
        Result<double> log_bytes = DoubleFromBits(pair[0].AsString());
        if (!log_bytes.ok()) {
          return log_bytes.status();
        }
        Result<double> log_us = DoubleFromBits(pair[1].AsString());
        if (!log_us.ok()) {
          return log_us.status();
        }
        curve.emplace_back(*log_bytes, *log_us);
      }
      if (!estimator->tables_.emplace(key, std::move(curve)).second) {
        return Status::InvalidArgument("duplicate collective table key");
      }
    }
    return estimator;
  }
};

void WriteKernelDescExact(JsonWriter& w, const KernelDesc& kernel) {
  w.BeginObject();
  w.Field("kind", std::string_view(KernelKindName(kernel.kind)));
  w.Field("dtype", std::string_view(DTypeName(kernel.dtype)));
  w.KeyedBeginArray("params");
  for (int64_t p : kernel.params) {
    w.Int(p);
  }
  w.EndArray();
  w.Field("flops", std::string_view(DoubleBits(kernel.flops)));
  w.Field("bytes_read", std::string_view(DoubleBits(kernel.bytes_read)));
  w.Field("bytes_written", std::string_view(DoubleBits(kernel.bytes_written)));
  w.Field("fused_ops", static_cast<int64_t>(kernel.fused_op_count));
  w.EndObject();
}

Result<KernelDesc> ParseKernelDescExact(const JsonValue& value) {
  MAYA_RETURN_IF_ERROR(RequireKeys(
      value, {"kind", "dtype", "params", "flops", "bytes_read", "bytes_written", "fused_ops"}));
  KernelDesc kernel;
  Result<KernelKind> kind = KernelKindFromName(value.at("kind").AsString());
  if (!kind.ok()) {
    return kind.status();
  }
  kernel.kind = *kind;
  Result<DType> dtype = DTypeFromName(value.at("dtype").AsString());
  if (!dtype.ok()) {
    return dtype.status();
  }
  kernel.dtype = *dtype;
  const JsonArray& params = value.at("params").AsArray();
  if (params.size() != kernel.params.size()) {
    return Status::InvalidArgument("kernel params must have 8 entries");
  }
  for (size_t i = 0; i < params.size(); ++i) {
    kernel.params[i] = params[i].AsInt();
  }
  Result<double> flops = BitsField(value, "flops");
  if (!flops.ok()) {
    return flops.status();
  }
  kernel.flops = *flops;
  Result<double> bytes_read = BitsField(value, "bytes_read");
  if (!bytes_read.ok()) {
    return bytes_read.status();
  }
  kernel.bytes_read = *bytes_read;
  Result<double> bytes_written = BitsField(value, "bytes_written");
  if (!bytes_written.ok()) {
    return bytes_written.status();
  }
  kernel.bytes_written = *bytes_written;
  kernel.fused_op_count = static_cast<int>(value.at("fused_ops").AsInt());
  return kernel;
}

void WriteCollectiveRequest(JsonWriter& w, const CollectiveRequest& request) {
  w.BeginObject();
  w.Field("kind", std::string_view(CollectiveKindName(request.kind)));
  w.Field("bytes", request.bytes);
  w.KeyedBeginArray("ranks");
  for (int rank : request.ranks) {
    w.Int(rank);
  }
  w.EndArray();
  w.EndObject();
}

Result<CollectiveRequest> ParseCollectiveRequest(const JsonValue& value) {
  MAYA_RETURN_IF_ERROR(RequireKeys(value, {"kind", "bytes", "ranks"}));
  CollectiveRequest request;
  Result<CollectiveKind> kind = CollectiveKindFromName(value.at("kind").AsString());
  if (!kind.ok()) {
    return kind.status();
  }
  request.kind = *kind;
  request.bytes = value.at("bytes").AsUint();
  for (const JsonValue& rank : value.at("ranks").AsArray()) {
    request.ranks.push_back(static_cast<int>(rank.AsInt()));
  }
  return request;
}

void WriteDataset(JsonWriter& w, const Dataset& data) {
  w.BeginObject();
  w.KeyedBeginArray("x");
  for (const std::vector<double>& row : data.x) {
    w.BeginArray();
    for (double feature : row) {
      w.String(DoubleBits(feature));
    }
    w.EndArray();
  }
  w.EndArray();
  WriteBitsArray(w, "y", data.y);
  w.EndObject();
}

Result<Dataset> ParseDataset(const JsonValue& value) {
  MAYA_RETURN_IF_ERROR(RequireKeys(value, {"x", "y"}));
  Dataset data;
  for (const JsonValue& row_value : value.at("x").AsArray()) {
    Result<std::vector<double>> row = ParseBitsArray(row_value);
    if (!row.ok()) {
      return row.status();
    }
    if (!data.x.empty() && row->size() != data.x.front().size()) {
      return Status::InvalidArgument("dataset rows disagree on feature width");
    }
    data.x.push_back(*std::move(row));
  }
  Result<std::vector<double>> y = ParseBitsArray(value.at("y"));
  if (!y.ok()) {
    return y.status();
  }
  data.y = *std::move(y);
  if (data.x.size() != data.y.size()) {
    return Status::InvalidArgument("dataset x/y length mismatch");
  }
  return data;
}

void WriteKernelDataset(JsonWriter& w, const KernelDataset& samples) {
  w.BeginArray();
  for (const KernelSample& sample : samples) {
    w.BeginObject();
    w.Key("kernel");
    WriteKernelDescExact(w, sample.kernel);
    w.Field("runtime_us", std::string_view(DoubleBits(sample.runtime_us)));
    w.EndObject();
  }
  w.EndArray();
}

Result<KernelDataset> ParseKernelDataset(const JsonValue& value) {
  KernelDataset samples;
  for (const JsonValue& entry : value.AsArray()) {
    MAYA_RETURN_IF_ERROR(RequireKeys(entry, {"kernel", "runtime_us"}));
    KernelSample sample;
    Result<KernelDesc> kernel = ParseKernelDescExact(entry.at("kernel"));
    if (!kernel.ok()) {
      return kernel.status();
    }
    sample.kernel = *kernel;
    Result<double> runtime = BitsField(entry, "runtime_us");
    if (!runtime.ok()) {
      return runtime.status();
    }
    sample.runtime_us = *runtime;
    samples.push_back(std::move(sample));
  }
  return samples;
}

void WriteRandomForest(JsonWriter& w, const RandomForestRegressor& forest) {
  ForestSerializer::WriteForest(w, forest);
}

Result<RandomForestRegressor> ParseRandomForest(const JsonValue& value) {
  return ForestSerializer::ParseForest(value);
}

void WriteKernelEstimator(JsonWriter& w, const RandomForestKernelEstimator& estimator) {
  ForestSerializer::WriteEstimator(w, estimator);
}

Result<std::unique_ptr<RandomForestKernelEstimator>> ParseKernelEstimator(
    const JsonValue& value) {
  return ForestSerializer::ParseEstimator(value);
}

void WriteCollectiveEstimator(JsonWriter& w, const ProfiledCollectiveEstimator& estimator) {
  CollectiveEstimatorSerializer::Write(w, estimator);
}

Result<std::unique_ptr<ProfiledCollectiveEstimator>> ParseCollectiveEstimator(
    const JsonValue& value) {
  return CollectiveEstimatorSerializer::Parse(value);
}

}  // namespace maya
