#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <stdexcept>

namespace perfbench {

void
Params::set(const std::string& key_value)
{
    size_t eq = key_value.find('=');
    if (eq == std::string::npos || eq == 0)
        throw std::invalid_argument("--set expects key=value, got '" +
                                    key_value + "'");
    kv_[key_value.substr(0, eq)] = key_value.substr(eq + 1);
}

const std::string&
Params::str(const std::string& key) const
{
    auto it = kv_.find(key);
    if (it == kv_.end())
        throw std::invalid_argument("missing workload parameter '" + key +
                                    "'");
    return it->second;
}

double
Params::num(const std::string& key) const
{
    return std::stod(str(key));
}

int
Params::integer(const std::string& key) const
{
    return std::stoi(str(key));
}

void
Report::metric(const std::string& name, double value,
               const std::string& unit)
{
    metrics_.push_back({name, value, unit});
}

void
Report::info(const std::string& name, double value, const std::string& unit)
{
    infos_.push_back({name, value, unit});
}

bool
Report::check(bool ok, const std::string& what, int64_t items)
{
    if (!ok) {
        correct_ = false;
        ++failed_checks_;
        failed_ += items;
        std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
    return ok;
}

void
Report::invalidate(const std::string& why)
{
    correct_ = false;
    std::fprintf(stderr, "run invalid: %s\n", why.c_str());
}

void
Report::print() const
{
    for (const Line& l : metrics_)
        std::printf("metric %-28s %.17g %s\n", l.name.c_str(), l.value,
                    l.unit.c_str());
    for (const Line& l : infos_)
        std::printf("info   %-28s %.17g %s\n", l.name.c_str(), l.value,
                    l.unit.c_str());
    std::printf("info   %-28s %lld count\n", "failed_checks",
                static_cast<long long>(failed_checks_));
    std::printf("info   %-28s %.17g ratio\n", "error_frac",
                attempted_ ? static_cast<double>(failed_) / attempted_ : 0.0);
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct_ ? "true" : "false",
                static_cast<long long>(attempted_),
                static_cast<long long>(failed_));
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const Line& l = metrics_[i];
        // JSON has no inf/nan; null makes the consumer reject the run.
        if (std::isfinite(l.value))
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", l.name.c_str(), l.value,
                        l.unit.c_str());
        else
            std::printf("%s\"%s\": {\"value\": null, \"unit\": \"%s\"}",
                        i ? ", " : "", l.name.c_str(), l.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        throw std::invalid_argument("quantile of an empty sample");
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
mean(const std::vector<double>& v)
{
    return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

double
sum(const std::vector<double>& v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

double
setupSeconds(const std::vector<double>& setups)
{
    constexpr size_t kSetupGroups = 10;
    std::vector<std::vector<double>> groups(kSetupGroups);
    for (size_t k = 0; k < setups.size(); ++k)
        groups[k % kSetupGroups].push_back(setups[k]);
    std::vector<double> means;
    for (const std::vector<double>& g : groups)
        if (!g.empty())
            means.push_back(mean(g));
    return median(means);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t
streamSeed(uint64_t seed, uint64_t stream)
{
    // splitmix64 over (seed, stream): distinct streams never collide for
    // the small stream indices used here.
    uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 0x632be59bd9b4e019ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace perfbench
