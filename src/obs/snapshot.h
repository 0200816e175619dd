#ifndef MAGMA_OBS_SNAPSHOT_H_
#define MAGMA_OBS_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace magma::obs {

/** One counter at capture time. */
struct CounterSnap {
    std::string name;
    int64_t value = 0;

    bool operator==(const CounterSnap&) const = default;
};

/** One gauge at capture time. */
struct GaugeSnap {
    std::string name;
    double value = 0.0;

    bool operator==(const GaugeSnap& o) const;
};

/**
 * One histogram at capture time: the exact aggregate stats plus the
 * sparse occupied buckets, from which quantiles are re-derivable after
 * a round-trip (quantile() shares Histogram's walk, so a parsed
 * snapshot answers p50/p99 identically to the live histogram it came
 * from).
 */
struct HistogramSnap {
    std::string name;
    int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    HistogramBuckets buckets;

    double quantile(double q) const
    {
        return Histogram::quantileOf(buckets, count, min, max, q);
    }
    double mean() const
    {
        return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }

    bool operator==(const HistogramSnap& o) const;
};

/**
 * One merged profiler node at capture time (a ProfileRow as artifact):
 * '/'-joined scope path, call count, inclusive and exclusive wall
 * seconds. Present only in Profile-level snapshots.
 */
struct ProfileSnap {
    std::string path;
    int64_t count = 0;
    double totalSeconds = 0.0;
    double selfSeconds = 0.0;

    bool operator==(const ProfileSnap& o) const;
};

/**
 * A whole registry (plus drained trace events) captured as a value —
 * the schema-1 JSON artifact behind `m3e_cli --metrics-out` and
 * `m3e_serve --metrics-out`. Like every other artifact in the codebase
 * it round-trips exactly: fromJson(toJson(s)) == s, with doubles under
 * the repo-wide %.17g discipline. (Non-finite doubles serialize as JSON
 * null and parse back as quiet NaN; equality treats all NaNs alike.)
 *
 * JSON shape (schema 1, the shared {schema, bench, config, metrics,
 * samples} telemetry layout):
 *   { "schema": 1, "bench": "metrics_snapshot",
 *     "config": {"source": ..., "level": ...},
 *     "metrics": {"counters": n, "gauges": n, "histograms": n,
 *                 "spans": n, "spans_dropped": n, "profile_nodes": n},
 *     "samples": [
 *       {"kind":"counter","name":...,"value":...},
 *       {"kind":"gauge","name":...,"value":...},
 *       {"kind":"histogram","name":...,"count":...,"sum":...,
 *        "min":...,"max":...,"p50":...,"p90":...,"p99":...,
 *        "buckets":[[index,count],...]},
 *       {"kind":"span","name":...,"thread":...,"start_seconds":...,
 *        "dur_seconds":...,"i":...,"a":...,"b":...},
 *       {"kind":"profile","name":...,"count":...,"total_seconds":...,
 *        "self_seconds":...} ] }
 * The p50/p90/p99 fields are derived conveniences for CI tooling; the
 * parser recomputes them from the buckets rather than trusting them.
 * (Parsers of schema-1 predating the "profile" kind reject Profile-
 * level snapshots loudly instead of misreading them — the size echo in
 * "metrics" is forward-tolerant, the samples are strict on purpose.)
 */
struct MetricsSnapshot {
    std::string source;  ///< producing binary ("m3e_cli", "m3e_serve")
    MetricsLevel level = MetricsLevel::Counters;
    std::vector<CounterSnap> counters;      // name-sorted
    std::vector<GaugeSnap> gauges;          // name-sorted
    std::vector<HistogramSnap> histograms;  // name-sorted
    std::vector<TraceEvent> spans;          // start-time order
    std::vector<ProfileSnap> profile;       // depth-first tree order
    int64_t spansDropped = 0;  ///< ring-wrap losses since last drain

    const CounterSnap* findCounter(const std::string& name) const;
    const GaugeSnap* findGauge(const std::string& name) const;
    const HistogramSnap* findHistogram(const std::string& name) const;

    std::string toJson() const;
    /** Exact inverse of toJson(); throws std::invalid_argument. */
    static MetricsSnapshot fromJson(const std::string& text);

    bool operator==(const MetricsSnapshot& o) const;
};

/**
 * Captures a MetricsRegistry plus — at Trace level and above — the
 * drained Tracer rings, plus — at Profile level — the merged Profiler
 * rows, into a MetricsSnapshot, and writes it as schema-1 JSON. The
 * single definition of the snapshot artifact shared by `--metrics-out`
 * in m3e_cli/m3e_serve, the serve bench telemetry, and the CI
 * metrics-smoke gate.
 */
class SnapshotWriter {
  public:
    /**
     * Snapshot `reg` under the current process level; drains `tracer`
     * when the level is Trace or Profile (pass null to skip trace
     * collection, e.g. for local registries that never traced). The
     * profiler read is non-destructive, so RunReport's capture and a
     * later --metrics-out both see the whole profile.
     */
    static MetricsSnapshot capture(const std::string& source,
                                   MetricsRegistry& reg,
                                   Tracer* tracer = nullptr);

    /** capture() of the global registry + global tracer. */
    static MetricsSnapshot captureGlobal(const std::string& source);

    /**
     * Write the snapshot to `path` and verify the written text parses
     * back equal (the repo's artifact discipline). Returns false with a
     * stderr note on I/O failure or round-trip mismatch.
     */
    static bool write(const MetricsSnapshot& snap, const std::string& path);

    /**
     * The shared bench config-echo: beginTelemetry(bench) plus the
     * config keys every harness repeats (full, seed, task, setting,
     * system_bw_gbps, group_size). Leaves the "config" object OPEN so
     * the harness appends its bench-specific fields, then calls
     * w.endObject() itself.
     */
    static void beginBenchConfig(JsonWriter& w, const std::string& bench,
                                 bool full, uint64_t seed,
                                 const std::string& task,
                                 const std::string& setting,
                                 double systemBwGbps, int groupSize);
};

}  // namespace magma::obs

#endif  // MAGMA_OBS_SNAPSHOT_H_
