/** @file Fixed-seed outputs of the whole scoring path pinned bit for bit:
 * MAGMA through api::Runner at one and two evaluation lanes, the NSGA-II
 * throughput/energy front, a dyn:: trace replay and the Herald-like
 * baseline. Every candidate these runs score goes cost model -> Job
 * Analysis Table -> schedule simulation -> fitness, so a change anywhere
 * on that path that moves a single bit of any score shows here. Fitness
 * values are pinned as bit patterns, sequences of them as FNV-1a hashes
 * over those bit patterns, mappings and fronts as FNV-1a hashes of their
 * exact text (printed in full on a mismatch). */

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/runner.h"
#include "api/spec.h"
#include "dyn/engine.h"
#include "dyn/trace.h"

using namespace magma;

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t
bitsOf(double v)
{
    uint64_t u;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

/** FNV-1a over the bit patterns of `values`. */
uint64_t
hashBits(const std::vector<double>& values)
{
    uint64_t h = kFnvOffset;
    for (double v : values) {
        h ^= bitsOf(v);
        h *= kFnvPrime;
    }
    return h;
}

/** FNV-1a over the bytes of `text`. */
uint64_t
hashText(const std::string& text)
{
    uint64_t h = kFnvOffset;
    for (unsigned char c : text) {
        h ^= c;
        h *= kFnvPrime;
    }
    return h;
}

api::RunReport
magmaS4Run(int threads)
{
    api::ProblemSpec ps;
    ps.task = dnn::TaskType::Mix;
    ps.setting = accel::Setting::S4;
    ps.systemBwGbps = 64.0;
    ps.groupSize = 100;
    api::SearchSpec ss;
    ss.method = "MAGMA";
    ss.sampleBudget = 2000;
    ss.seed = 7919;
    ss.threads = threads;
    ss.recordConvergence = true;
    api::Runner runner;
    return runner.run(ps, ss);
}

void
expectMagmaS4Golden(const api::RunReport& r)
{
    EXPECT_EQ(r.samplesUsed, 2000);
    std::string best = r.best.toText();
    EXPECT_EQ(hashText(best), 0x97522931cd0d0facull)
        << std::hex << hashText(best) << "\n" << best;
    EXPECT_EQ(bitsOf(r.bestFitness), 0x40c6fc5e8a4acc31ull)
        << std::hex << bitsOf(r.bestFitness);
    EXPECT_EQ(hashBits(r.convergence), 0xc660d32ed4d44582ull)
        << std::hex << hashBits(r.convergence);
}

}  // namespace

TEST(EvalGolden, MagmaS4MixOneLane)
{
    expectMagmaS4Golden(magmaS4Run(1));
}

TEST(EvalGolden, MagmaS4MixTwoLanes)
{
    expectMagmaS4Golden(magmaS4Run(2));
}

TEST(EvalGolden, Nsga2ThroughputEnergyFront)
{
    api::ProblemSpec ps;
    ps.task = dnn::TaskType::Mix;
    ps.setting = accel::Setting::S2;
    ps.systemBwGbps = 2.0;
    ps.groupSize = 30;
    api::SearchSpec ss;
    ss.method = "NSGA-II";
    ss.objectives = {sched::Objective::Throughput, sched::Objective::Energy};
    ss.sampleBudget = 1200;
    ss.seed = 7;
    api::Runner runner;
    api::RunReport r = runner.run(ps, ss);
    std::string front = r.frontArchive().toText();
    EXPECT_EQ(r.samplesUsed, 1200);
    EXPECT_EQ(r.front.size(), 5u);
    EXPECT_EQ(hashText(front), 0x341721ee22ea14efull)
        << std::hex << hashText(front) << "\n" << front;
}

TEST(EvalGolden, DynSmoothTraceReplay)
{
    dyn::WorkloadTrace trace = dyn::WorkloadTrace::load(
        std::string(MAGMA_SOURCE_DIR) + "/examples/specs/dyn_smooth.trace");
    dyn::DynConfig cfg;
    cfg.search.sampleBudget = 800;
    cfg.search.seed = 5;
    dyn::EventEngine engine(cfg);
    dyn::DynResult r = engine.replay(trace);

    std::vector<double> scores;
    std::string mappings;
    for (const dyn::EventRecord& rec : r.records) {
        scores.push_back(rec.fitness);
        scores.push_back(rec.makespanSeconds);
        scores.push_back(rec.steadyMakespanSeconds);
        mappings += rec.mapping.toText() + "\n";
    }
    EXPECT_EQ(r.records.size(), 6u);
    EXPECT_EQ(r.totalSamples, 1800);
    EXPECT_EQ(bitsOf(r.finalFitness), 0x409b866c78e19cf4ull)
        << std::hex << bitsOf(r.finalFitness);
    EXPECT_EQ(hashBits(scores), 0x2de9cebd077105ffull)
        << std::hex << hashBits(scores);
    EXPECT_EQ(hashText(mappings), 0x4d0ba523d4e52518ull)
        << std::hex << hashText(mappings) << "\n" << mappings;
}

TEST(EvalGolden, HeraldLikeBestFitness)
{
    api::ProblemSpec ps;
    ps.task = dnn::TaskType::Mix;
    ps.setting = accel::Setting::S2;
    ps.systemBwGbps = 16.0;
    ps.groupSize = 40;
    api::SearchSpec ss;
    ss.method = "Herald-like";
    ss.sampleBudget = 100;
    api::Runner runner;
    api::RunReport r = runner.run(ps, ss);
    EXPECT_EQ(bitsOf(r.bestFitness), 0x40a10b9194751d3aull)
        << std::hex << bitsOf(r.bestFitness);
    std::string best = r.best.toText();
    EXPECT_EQ(hashText(best), 0x2c9f786ebaadbdefull)
        << std::hex << hashText(best) << "\n" << best;
}
