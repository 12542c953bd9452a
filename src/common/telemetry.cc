#include "src/common/telemetry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "src/common/json_writer.h"
#include "src/common/strings.h"

namespace maya {
namespace {

// Keep at most this many slow trace ids retained for slow-only exports; the
// oldest are evicted first so a long-running server cannot grow unbounded.
constexpr size_t kMaxRetainedSlowTraces = 64;

thread_local TraceContext tls_trace_context;

std::chrono::steady_clock::time_point TelemetryEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

// ---- LatencyHistogram -----------------------------------------------------

double LatencyHistogram::BucketBound(size_t i) {
  if (i + 1 >= kNumBuckets) {
    return std::numeric_limits<double>::infinity();
  }
  return std::pow(2.0, static_cast<double>(i + 1) / 2.0);
}

void LatencyHistogram::Record(double value_us) {
  size_t bucket = 0;
  if (value_us > BucketBound(0)) {
    const double raw = std::ceil(2.0 * std::log2(value_us)) - 1.0;
    bucket = raw >= static_cast<double>(kNumBuckets - 1)
                 ? kNumBuckets - 1
                 : static_cast<size_t>(raw);
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(value_us, std::memory_order_relaxed);
}

double LatencyHistogram::Percentile(double p) const {
  std::array<uint64_t, kNumBuckets> counts;
  uint64_t total = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) {
    return 0.0;
  }
  p = std::clamp(p, 0.0, 100.0);
  // Same rank convention as stats.h Percentile(): rank = p/100 * (n-1),
  // linearly interpolated between the straddling sample positions. A sample
  // at position k inside a bucket is placed at the bucket midpoint offset
  // (k - cum_before + 0.5) / bucket_count of the bucket's width.
  const double rank = p / 100.0 * static_cast<double>(total - 1);
  const auto value_at = [&](uint64_t k) {
    uint64_t cum_before = 0;
    for (size_t i = 0; i < kNumBuckets; ++i) {
      if (counts[i] == 0) {
        continue;
      }
      if (k < cum_before + counts[i]) {
        const double lower = i == 0 ? 0.0 : BucketBound(i - 1);
        double upper = BucketBound(i);
        if (std::isinf(upper)) {
          // Overflow bucket: no finite upper edge to interpolate toward.
          return lower;
        }
        const double offset =
            (static_cast<double>(k - cum_before) + 0.5) / static_cast<double>(counts[i]);
        return lower + offset * (upper - lower);
      }
      cum_before += counts[i];
    }
    return BucketBound(kNumBuckets - 2);
  };
  const uint64_t lo = static_cast<uint64_t>(rank);
  const uint64_t hi = std::min<uint64_t>(lo + 1, total - 1);
  const double frac = rank - static_cast<double>(lo);
  return value_at(lo) * (1.0 - frac) + value_at(hi) * frac;
}

// ---- Snapshot / exposition ------------------------------------------------

MetricSeries HistogramSeries(const LatencyHistogram& histogram) {
  MetricSeries series;
  series.count = 0;
  series.sum_us = histogram.sum_us();
  for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    const uint64_t c = histogram.bucket_count(i);
    if (c == 0) {
      continue;
    }
    series.count += c;
    // The overflow bucket has no finite upper bound; its count is implied
    // by `count` (it becomes the Prometheus `+Inf` line), which keeps every
    // serialized `le` a finite JSON number.
    if (i + 1 < LatencyHistogram::kNumBuckets) {
      series.buckets.push_back({LatencyHistogram::BucketBound(i), c});
    }
  }
  series.p50_us = histogram.Percentile(50.0);
  series.p95_us = histogram.Percentile(95.0);
  series.p99_us = histogram.Percentile(99.0);
  return series;
}

const char* MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "counter";
}

std::string RenderPrometheus(const MetricsReport& report) {
  std::string out;
  const auto with_label = [](const std::string& labels, const std::string& extra) {
    if (labels.empty() && extra.empty()) {
      return std::string();
    }
    if (labels.empty()) {
      return "{" + extra + "}";
    }
    if (extra.empty()) {
      return "{" + labels + "}";
    }
    return "{" + labels + "," + extra + "}";
  };
  for (const MetricFamily& family : report) {
    if (!family.help.empty()) {
      out += "# HELP " + family.name + " " + family.help + "\n";
    }
    out += "# TYPE " + family.name + " " + MetricTypeName(family.type) + "\n";
    for (const MetricSeries& series : family.series) {
      if (family.type == MetricType::kHistogram) {
        uint64_t cumulative = 0;
        for (const MetricBucket& bucket : series.buckets) {
          cumulative += bucket.count;
          out += family.name + "_bucket" +
                 with_label(series.labels,
                            StrFormat("le=\"%.9g\"", bucket.le)) +
                 StrFormat(" %llu\n", static_cast<unsigned long long>(cumulative));
        }
        out += family.name + "_bucket" +
               with_label(series.labels, "le=\"+Inf\"") +
               StrFormat(" %llu\n", static_cast<unsigned long long>(series.count));
        out += family.name + "_sum" + with_label(series.labels, "") +
               StrFormat(" %.9g\n", series.sum_us);
        out += family.name + "_count" + with_label(series.labels, "") +
               StrFormat(" %llu\n", static_cast<unsigned long long>(series.count));
      } else {
        // Counters may be fractional (cumulative wall-ms); %.9g renders
        // integral values without a decimal point either way.
        out += family.name + with_label(series.labels, "") +
               StrFormat(" %.9g\n", series.value);
      }
    }
  }
  return out;
}

// ---- MetricsRegistry ------------------------------------------------------

MetricsRegistry& MetricsRegistry::Instance() {
  static MetricsRegistry* instance = new MetricsRegistry;
  return *instance;
}

MetricsRegistry::Entry& MetricsRegistry::GetEntry(const std::string& name,
                                                  MetricType type,
                                                  const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry entry;
    entry.type = type;
    entry.help = help;
    switch (type) {
      case MetricType::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case MetricType::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case MetricType::kHistogram:
        entry.histogram = std::make_unique<LatencyHistogram>();
        break;
    }
    it = entries_.emplace(name, std::move(entry)).first;
  }
  return it->second;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  return *GetEntry(name, MetricType::kCounter, help).counter;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  return *GetEntry(name, MetricType::kGauge, help).gauge;
}

LatencyHistogram& MetricsRegistry::GetHistogram(const std::string& name,
                                                const std::string& help) {
  return *GetEntry(name, MetricType::kHistogram, help).histogram;
}

MetricsReport MetricsRegistry::Collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsReport report;
  // entries_ is a std::map: iteration is already sorted by full name, which
  // groups `family{labels}` series behind their bare `family` prefix.
  for (const auto& [name, entry] : entries_) {
    std::string family_name = name;
    std::string labels;
    const size_t brace = name.find('{');
    if (brace != std::string::npos && name.back() == '}') {
      family_name = name.substr(0, brace);
      labels = name.substr(brace + 1, name.size() - brace - 2);
    }
    if (report.empty() || report.back().name != family_name ||
        report.back().type != entry.type) {
      MetricFamily family;
      family.name = family_name;
      family.type = entry.type;
      family.help = entry.help;
      report.push_back(std::move(family));
    }
    MetricSeries series;
    series.labels = labels;
    switch (entry.type) {
      case MetricType::kCounter:
        series.value = static_cast<double>(entry.counter->value());
        break;
      case MetricType::kGauge:
        series.value = entry.gauge->value();
        break;
      case MetricType::kHistogram:
        series = HistogramSeries(*entry.histogram);
        series.labels = labels;
        break;
    }
    report.back().series.push_back(std::move(series));
  }
  return report;
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

// ---- Telemetry ------------------------------------------------------------

std::atomic<bool> Telemetry::g_active{false};

namespace {
// Bumped on every Configure/Disable so threads drop stale cached buffers.
std::atomic<uint64_t> g_telemetry_generation{0};
}  // namespace

struct Telemetry::ThreadBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> ring;
  size_t capacity = 0;
  size_t next = 0;
  size_t size = 0;
  uint64_t dropped = 0;
  uint32_t tid = 0;
};

Telemetry& Telemetry::Instance() {
  static Telemetry* instance = new Telemetry;
  return *instance;
}

void Telemetry::Configure(const Options& options) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    options_ = options;
    if (options_.ring_capacity == 0) {
      options_.ring_capacity = 1;
    }
    buffers_.clear();
    retained_slow_ids_.clear();
  }
  g_telemetry_generation.fetch_add(1, std::memory_order_relaxed);
  g_active.store(options.tracing || options.slow_request_threshold_ms > 0.0,
                 std::memory_order_relaxed);
}

void Telemetry::Disable() {
  g_active.store(false, std::memory_order_relaxed);
  g_telemetry_generation.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  options_ = Options{};
  options_.tracing = false;
  buffers_.clear();
  retained_slow_ids_.clear();
  sink_ = nullptr;
}

bool Telemetry::tracing_enabled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return options_.tracing;
}

double Telemetry::slow_request_threshold_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return options_.slow_request_threshold_ms;
}

double Telemetry::NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - TelemetryEpoch())
      .count();
}

Telemetry::ThreadBuffer* Telemetry::BufferForThisThread() {
  // Keeping the slot thread_local inside the member function lets it name
  // the private ThreadBuffer type; the shared_ptr keeps a buffer alive past
  // its thread's exit until the registry drops it on reconfiguration.
  struct Slot {
    std::shared_ptr<ThreadBuffer> buffer;
    uint64_t generation = 0;
  };
  thread_local Slot slot;
  const uint64_t generation = g_telemetry_generation.load(std::memory_order_relaxed);
  if (slot.buffer != nullptr && slot.generation == generation) {
    return slot.buffer.get();
  }
  auto buffer = std::make_shared<ThreadBuffer>();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    buffer->capacity = options_.ring_capacity;
    buffer->ring.resize(buffer->capacity);
    buffer->tid = static_cast<uint32_t>(buffers_.size());
    buffers_.push_back(buffer);
  }
  slot.buffer = std::move(buffer);
  slot.generation = generation;
  return slot.buffer.get();
}

void Telemetry::Record(TraceEvent event) {
  if (!IsActive()) {
    return;
  }
  ThreadBuffer* buffer = BufferForThisThread();
  std::lock_guard<std::mutex> lock(buffer->mutex);
  event.tid = buffer->tid;
  buffer->ring[buffer->next] = event;
  buffer->next = (buffer->next + 1) % buffer->capacity;
  if (buffer->size < buffer->capacity) {
    ++buffer->size;
  } else {
    ++buffer->dropped;
  }
}

TraceContext Telemetry::CurrentContext() { return tls_trace_context; }

void Telemetry::SetContext(const TraceContext& context) {
  tls_trace_context = context;
}

bool Telemetry::OnRequestComplete(uint64_t trace_id, double latency_ms) {
  if (trace_id == 0) {
    return false;
  }
  TraceSink sink;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (options_.slow_request_threshold_ms <= 0.0 ||
        latency_ms < options_.slow_request_threshold_ms) {
      return false;
    }
    retained_slow_ids_.push_back(trace_id);
    if (retained_slow_ids_.size() > kMaxRetainedSlowTraces) {
      retained_slow_ids_.erase(retained_slow_ids_.begin());
    }
    sink = sink_;
  }
  slow_requests_.fetch_add(1, std::memory_order_relaxed);
  if (sink) {
    sink(trace_id, ExportChromeTrace(trace_id));
  }
  return true;
}

void Telemetry::SetTraceSink(TraceSink sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  sink_ = std::move(sink);
}

void Telemetry::CollectEvents(std::vector<TraceEvent>* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    const size_t start = buffer->size < buffer->capacity
                             ? 0
                             : buffer->next;  // oldest surviving slot
    for (size_t i = 0; i < buffer->size; ++i) {
      out->push_back(buffer->ring[(start + i) % buffer->capacity]);
    }
  }
  std::stable_sort(out->begin(), out->end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
}

bool Telemetry::ShouldExport(uint64_t event_trace_id,
                             uint64_t trace_id_filter) const {
  if (trace_id_filter != 0) {
    return event_trace_id == trace_id_filter;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (options_.tracing) {
    return true;
  }
  // Slow-only mode: export just the retained slow traces.
  return std::find(retained_slow_ids_.begin(), retained_slow_ids_.end(),
                   event_trace_id) != retained_slow_ids_.end();
}

std::string Telemetry::ExportChromeTrace(uint64_t trace_id_filter,
                                         size_t* exported_events) const {
  std::vector<TraceEvent> events;
  CollectEvents(&events);
  size_t exported = 0;
  JsonWriter w;
  w.BeginObject();
  w.KeyedBeginArray("traceEvents");
  for (const TraceEvent& event : events) {
    if (!ShouldExport(event.trace_id, trace_id_filter)) {
      continue;
    }
    ++exported;
    w.BeginObject();
    // string_view wraps: a bare const char* would resolve to the bool
    // overload of Field (pointer-to-bool beats conversion to string_view).
    w.Field("name", std::string_view(event.name));
    w.Field("cat", std::string_view(event.category));
    w.Field("ph", std::string_view("X"));
    w.Field("ts", event.ts_us);
    w.Field("dur", event.dur_us);
    w.Field("pid", static_cast<int64_t>(1));
    w.Field("tid", static_cast<int64_t>(event.tid));
    w.KeyedBeginObject("args");
    w.Field("trace_id", static_cast<uint64_t>(event.trace_id));
    if (event.conn_id != 0) {
      w.Field("conn", static_cast<uint64_t>(event.conn_id));
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Field("displayTimeUnit", std::string_view("ms"));
  w.EndObject();
  if (exported_events != nullptr) {
    *exported_events = exported;
  }
  return w.str();
}

std::vector<TraceEvent> Telemetry::SnapshotEvents() const {
  std::vector<TraceEvent> events;
  CollectEvents(&events);
  return events;
}

size_t Telemetry::buffered_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t total = 0;
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    total += buffer->size;
  }
  return total;
}

uint64_t Telemetry::dropped_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    total += buffer->dropped;
  }
  return total;
}

// ---- ScopedSpan -----------------------------------------------------------

void ScopedSpan::Begin(const char* name, const char* category) {
  armed_ = true;
  name_ = name;
  category_ = category;
  const TraceContext context = Telemetry::CurrentContext();
  trace_id_ = context.trace_id;
  conn_id_ = context.conn_id;
  start_us_ = Telemetry::NowUs();
}

void ScopedSpan::End() {
  TraceEvent event;
  event.name = name_;
  event.category = category_;
  event.trace_id = trace_id_;
  event.conn_id = conn_id_;
  event.ts_us = start_us_;
  event.dur_us = Telemetry::NowUs() - start_us_;
  Telemetry::Instance().Record(event);
}

}  // namespace maya
