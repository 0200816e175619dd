// Shared pieces of the benchmark driver: run configuration, the report a
// run prints, statistics and seeding helpers. Every workload times calls
// into the library's public API from here, outside the library.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Workload parameters, given as `--set key=value` (workloads.json). */
class Params {
  public:
    /** Parse one "key=value"; throws std::invalid_argument. */
    void set(const std::string& key_value);
    /** Value of a required key; throws std::invalid_argument if absent. */
    const std::string& str(const std::string& key) const;
    double num(const std::string& key) const;
    int integer(const std::string& key) const;

  private:
    std::map<std::string, std::string> kv_;
};

struct RunConfig {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;  ///< length of the measured phase
    bool trace = false;     ///< per-layer run instead of end-to-end
    Params params;
};

/**
 * What one run reports. `attempted` counts work items (searches or
 * requests); `failed` counts items that were shed, threw, or failed an
 * output check. A failed check also clears `correct`, as does a run
 * that is invalid for another reason (a late open-loop generator).
 */
class Report {
  public:
    void metric(const std::string& name, double value,
                const std::string& unit);
    /** Informational line (printed, not part of the result JSON). */
    void info(const std::string& name, double value,
              const std::string& unit);
    /**
     * Record an output check; a failure clears `correct`, is explained
     * on stderr and counts `items` work items as failed.
     */
    bool check(bool ok, const std::string& what, int64_t items = 1);
    /** Mark the run invalid without counting a failed item. */
    void invalidate(const std::string& why);

    void addAttempted(int64_t n) { attempted_ += n; }
    void addFailed(int64_t n) { failed_ += n; }

    /** Human-readable lines, then the result JSON as the last line. */
    void print() const;

  private:
    struct Line {
        std::string name;
        double value;
        std::string unit;
    };
    bool correct_ = true;
    int64_t attempted_ = 0;
    int64_t failed_ = 0;
    int64_t failed_checks_ = 0;
    std::vector<Line> metrics_;
    std::vector<Line> infos_;
};

/** Linear-interpolation quantile (q in [0, 1]) of a non-empty sample. */
double quantile(std::vector<double> v, double q);
inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}
/**
 * Highest percentile (at most the 99th, at least the median) with at
 * least ten samples beyond it: a tail a sample of `n` can support.
 */
inline double
tailQuantile(size_t n)
{
    return std::clamp(1.0 - 10.0 / static_cast<double>(n), 0.5, 0.99);
}
double mean(const std::vector<double>& v);
double sum(const std::vector<double>& v);

/**
 * Time `builds` set-ups back to back and append each wall time to `out`.
 * `build(k)` gets the set-up's index in `out`; what it returns is
 * destroyed off the clock.
 */
template <typename Fn>
void
timeSetups(int builds, std::vector<double>& out, Fn&& build)
{
    for (int k = 0; k < builds; ++k) {
        auto t0 = Clock::now();
        auto made = build(static_cast<int>(out.size()));
        out.push_back(secondsBetween(t0, Clock::now()));
    }
}

/**
 * Set-up time of a run: the median over ten interleaved groups (set-up
 * k in group k mod 10) of each group's mean. Set-ups
 * are timed a few at a time across the whole run, so every group spans
 * it. A plain median flips between two values when the host alternates
 * between a fast and a ~1.7x slower state for about a second at a time
 * and a run spends about half its time in each; a group mean follows the
 * share of time in each state instead, and the median over groups drops
 * a group that a stall distorted.
 */
double setupSeconds(const std::vector<double>& setups);

/** Peak resident set of this process in MB (getrusage). */
double peakRssMb();

/** Independent 64-bit stream seed derived from the run seed. */
uint64_t streamSeed(uint64_t seed, uint64_t stream);

/** Bitwise equality of two doubles. */
bool sameBits(double a, double b);

Report runSearch(const RunConfig& rc);
Report runServe(const RunConfig& rc);
Report runRl(const RunConfig& rc);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
