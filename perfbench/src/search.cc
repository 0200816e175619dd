// The two whole-search workloads. Each runs complete searches back to
// back (a closed loop with one client) for the measured time:
//
//   search-s4-mix  MAGMA through api::Runner on a large heterogeneous
//                  platform with several evaluation lanes;
//   rl-a2c         RL A2C constructed through the optimizer registry and
//                  run with opt::Optimizer::search on one lane.
//
// Every reported best mapping is re-scored through a separately built
// reference sched::MappingEvaluator, and search 0 is run a second time to
// check that the result repeats bitwise.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/registry.h"
#include "api/runner.h"
#include "bench.h"
#include "common/rng.h"
#include "layers.h"
#include "opt/magma_ga.h"
#include "opt/optimizer.h"
#include "rl/a2c.h"
#include "rl/actor_critic.h"

namespace perfbench {

using namespace magma;

namespace {

/** The workload's fixed problem instance. */
api::ProblemSpec
specFrom(const Params& p)
{
    api::ProblemSpec spec;
    spec.task = dnn::taskTypeFromName(p.str("task"));
    spec.setting = accel::settingFromName(p.str("setting"));
    spec.systemBwGbps = p.num("bw_gbps");
    spec.groupSize = p.integer("group");
    spec.workloadSeed = static_cast<uint64_t>(p.integer("workload_seed"));
    return spec;
}

/** One finished search, timed from outside the library. */
struct Finished {
    double seconds = 0.0;       ///< wall time of the whole call
    double innerSeconds = 0.0;  ///< the search alone (Runner's own clock)
    int64_t samples = 0;
    double bestFitness = 0.0;
    double gflops = 0.0;
    sched::Mapping best;
    std::vector<sched::Mapping> sampled;  ///< traced searches only
    std::vector<double> sampledFitness;
};

/**
 * One check per finished search: it spent its budget, and its best
 * mapping re-scores bitwise on the reference evaluator.
 */
void
checkFinished(const sched::MappingEvaluator& ref, const Finished& f,
              int64_t budget, const std::string& tag, Report& rep)
{
    double gflops = ref.throughputGflops(ref.evaluate(f.best).makespanSeconds);
    rep.check(f.samples == budget && sameBits(ref.fitness(f.best),
                                              f.bestFitness) &&
                  sameBits(gflops, f.gflops),
              tag + ": spends its budget and re-scores bitwise on the "
                    "reference evaluator");
}

/**
 * Run `one(i)` back to back until `seconds` have passed and at least
 * `min_count` searches finished.
 */
template <typename Fn>
std::vector<Finished>
closedLoop(double seconds, int min_count, Fn&& one)
{
    std::vector<Finished> out;
    auto t0 = Clock::now();
    while (static_cast<int>(out.size()) < min_count ||
           secondsBetween(t0, Clock::now()) < seconds)
        out.push_back(one(static_cast<int>(out.size())));
    return out;
}

double
medianRate(const std::vector<Finished>& runs)
{
    std::vector<double> rate;
    for (const Finished& f : runs)
        rate.push_back(static_cast<double>(f.samples) / f.seconds);
    return median(rate);
}

/** End-to-end metrics of a whole-search workload. */
void
reportEndToEnd(const std::vector<Finished>& runs, double setup_s,
               int quality_searches, Report& rep)
{
    std::vector<double> ms;
    double wall = 0.0;
    for (const Finished& f : runs) {
        ms.push_back(f.seconds * 1e3);
        wall += f.seconds;
    }
    // Quality over a fixed number of searches, so it repeats bitwise for
    // a fixed seed however many searches fit in the measured time. The
    // median, because search quality is multi-modal across seeds (A2C
    // settles on one of a few plateaus) and a mean follows the mix.
    std::vector<double> gflops;
    for (int i = 0; i < quality_searches; ++i)
        gflops.push_back(runs[i].gflops);

    rep.metric("setup_s", setup_s, "s");
    rep.metric("samples_per_s", medianRate(runs), "1/s");
    rep.metric("mapping_gflops", median(gflops), "GFLOP/s");
    rep.metric("peak_rss_mb", peakRssMb(), "MB");
    rep.metric("latency_p50_ms", quantile(ms, 0.50), "ms");
    // About a hundred searches fit in a run, too few for a 99th
    // percentile: report the highest one the sample supports.
    rep.metric("latency_p99_ms", quantile(ms, tailQuantile(ms.size())), "ms");
    rep.metric("capacity_rps", static_cast<double>(runs.size()) / wall,
               "req/s");
    rep.info("searches", static_cast<double>(runs.size()), "count");
    rep.info("latency_tail_quantile", tailQuantile(ms.size()), "ratio");
}

/**
 * Every traced search records its samples (that is the tracing cost);
 * only the first keeps them for the replays, which bounds memory.
 */
Finished
keepSamplesOfFirst(Finished f, int i)
{
    if (i > 0) {
        f.sampled = {};
        f.sampledFitness = {};
    }
    return f;
}

/** Count a batch of searches as attempted and check each one. */
void
checkSearches(const sched::MappingEvaluator& ref,
              const std::vector<Finished>& runs, int64_t budget,
              const std::string& tag, Report& rep)
{
    rep.addAttempted(static_cast<int64_t>(runs.size()));
    for (size_t i = 0; i < runs.size(); ++i)
        checkFinished(ref, runs[i], budget, tag + " " + std::to_string(i),
                      rep);
}

/** Same seed, same mapping: repeat a search and compare bitwise. */
void
checkRepeat(const Finished& a, const Finished& b, const std::string& tag,
            Report& rep)
{
    rep.check(a.best == b.best && sameBits(a.bestFitness, b.bestFitness) &&
                  sameBits(a.gflops, b.gflops),
              tag + ": repeating search 0 gives the same mapping, bitwise");
}

/** Share of a traced run's time lost to tracing, against an untraced one. */
double
overheadShare(const std::vector<Finished>& untraced,
              const std::vector<Finished>& traced)
{
    return 1.0 - medianRate(traced) / medianRate(untraced);
}

}  // namespace

Report
runSearch(const RunConfig& rc)
{
    const Params& p = rc.params;
    const api::ProblemSpec spec = specFrom(p);
    const int64_t budget = p.integer("budget");
    const int lanes = p.integer("lanes");
    const int quality = p.integer("quality_searches");
    // The registry builds MAGMA with its default configuration.
    const int population = opt::MagmaConfig{}.population;
    const int setup_per_search = p.integer("setup_builds_per_search");
    Report rep;

    const auto ref = api::buildProblem(spec);
    const sched::MappingEvaluator& ref_eval = ref->evaluator();

    api::Runner runner;
    runner.problem(spec, sched::Objective::Throughput);
    auto one = [&](int i, int threads, bool record) {
        api::SearchSpec ss;
        ss.method = "MAGMA";
        ss.sampleBudget = budget;
        ss.seed = streamSeed(rc.seed, 1 + static_cast<uint64_t>(i));
        ss.threads = threads;
        ss.recordSamples = record;
        opt::SearchResult raw;
        auto t0 = Clock::now();
        api::RunReport r = runner.run(spec, ss, &raw);
        Finished f;
        f.seconds = secondsBetween(t0, Clock::now());
        f.innerSeconds = r.wallSeconds;
        f.samples = r.samplesUsed;
        f.bestFitness = r.bestFitness;
        f.gflops = r.throughputGflops;
        f.best = r.best;
        f.sampled = std::move(raw.sampled);
        f.sampledFitness = std::move(raw.sampledFitness);
        return f;
    };

    if (!rc.trace) {
        // Set-up (specs to a ready evaluator) is timed a few builds at a
        // time before every search, so the set-ups span the run.
        std::vector<double> setup;
        std::vector<Finished> runs =
            closedLoop(rc.seconds, quality, [&](int i) {
                timeSetups(setup_per_search, setup,
                           [&](int) { return api::buildProblem(spec); });
                return one(i, lanes, false);
            });
        checkSearches(ref_eval, runs, budget, "search", rep);
        // The repeat runs serially: results must not depend on lanes.
        checkRepeat(runs[0], one(0, 1, false), "search-s4-mix", rep);
        reportEndToEnd(runs, setupSeconds(setup), quality, rep);
        return rep;
    }

    // Traced run: untraced searches, then searches that record every
    // sampled candidate, then replays of those candidates layer by layer.
    std::vector<Finished> untraced = closedLoop(
        0.4 * rc.seconds, 2, [&](int i) { return one(i, lanes, false); });
    std::vector<Finished> traced =
        closedLoop(0.4 * rc.seconds, 1, [&](int i) {
            return keepSamplesOfFirst(one(i, lanes, true), i);
        });
    checkSearches(ref_eval, untraced, budget, "untraced search", rep);
    checkSearches(ref_eval, traced, budget, "traced search", rep);
    const Finished& t = traced[0];

    reportProblemProbe(probeProblems({spec}, 20), rep);
    SimulateReplay sim =
        replaySimulate(ref_eval, t.sampled, t.sampledFitness, 3, rep);
    BatchReplay batches = replayBatches(ref_eval, t.sampled,
                                        t.sampledFitness, population, lanes,
                                        rep);
    std::vector<double> outer, inner;
    for (const Finished& f : untraced) {
        outer.push_back(f.seconds);
        inner.push_back(f.innerSeconds);
    }
    const double search_s = median(inner);
    const double outer_s = median(outer);
    rep.metric("sched.simulate_ns", sim.perCandidateNs, "ns");
    rep.metric("sched.simulate_share", sim.totalSeconds / search_s, "ratio");
    rep.metric("exec.batch_us", batches.perBatchUs, "us");
    rep.metric("exec.parallel_eff",
               sim.totalSeconds / (lanes * batches.totalSeconds), "ratio");
    rep.metric("exec.pool_roundtrip_us", poolRoundtripUs(lanes, 2000), "us");
    rep.metric("opt.search_s", search_s, "s");
    rep.metric("opt.self_share",
               (search_s - batches.totalSeconds) / search_s, "ratio");
    rep.metric("opt.generations",
               static_cast<double>(budget) / population, "count");
    // Directly timed on the search path: the Runner's own overhead
    // (outer - inner) and the batch replay. Breeding and recorder
    // bookkeeping have no public entry point, so they stay unattributed.
    rep.metric("trace.unattributed_share",
               (search_s - batches.totalSeconds) / outer_s, "ratio");
    rep.metric("trace.overhead_share", overheadShare(untraced, traced),
               "ratio");
    return rep;
}

Report
runRl(const RunConfig& rc)
{
    const Params& p = rc.params;
    const api::ProblemSpec spec = specFrom(p);
    const int64_t budget = p.integer("budget");
    const int lanes = p.integer("lanes");
    const int quality = p.integer("quality_searches");
    // The registry builds A2C with its default configuration.
    const int hidden = rl::A2cConfig{}.hidden;
    const int setup_per_search = p.integer("setup_builds_per_search");
    Report rep;

    const auto problem = api::buildProblem(spec);
    const sched::MappingEvaluator& eval = problem->evaluator();
    const auto ref = api::buildProblem(spec);
    const sched::MappingEvaluator& ref_eval = ref->evaluator();

    auto one = [&](int i, bool record) {
        std::unique_ptr<opt::Optimizer> a2c =
            api::OptimizerRegistry::global().make(
                "RL A2C", streamSeed(rc.seed, 1 + static_cast<uint64_t>(i)));
        opt::SearchOptions opts;
        opts.sampleBudget = budget;
        opts.threads = lanes;
        opts.recordSamples = record;
        auto t0 = Clock::now();
        opt::SearchResult res = a2c->search(eval, opts);
        Finished f;
        f.seconds = secondsBetween(t0, Clock::now());
        f.innerSeconds = f.seconds;
        f.samples = res.samplesUsed;
        f.bestFitness = res.bestFitness;
        f.best = res.best;
        // Throughput of the best mapping, off the clock.
        f.gflops = eval.throughputGflops(eval.evaluate(f.best).makespanSeconds);
        f.sampled = std::move(res.sampled);
        f.sampledFitness = std::move(res.sampledFitness);
        return f;
    };

    if (!rc.trace) {
        // Set-up (specs to a ready evaluator plus the A2C networks) is
        // timed a few builds at a time before every search.
        std::vector<double> setup;
        auto build = [&](int k) {
            auto built = api::buildProblem(spec);
            auto nets = std::make_unique<rl::ActorCritic>(
                built->evaluator(), streamSeed(rc.seed, k), hidden);
            return std::make_pair(std::move(built), std::move(nets));
        };
        std::vector<Finished> runs =
            closedLoop(rc.seconds, quality, [&](int i) {
                timeSetups(setup_per_search, setup, build);
                return one(i, false);
            });
        checkSearches(ref_eval, runs, budget, "search", rep);
        checkRepeat(runs[0], one(0, false), "rl-a2c", rep);
        reportEndToEnd(runs, setupSeconds(setup), quality, rep);
        return rep;
    }

    std::vector<Finished> untraced = closedLoop(
        0.4 * rc.seconds, 2, [&](int i) { return one(i, false); });
    std::vector<Finished> traced =
        closedLoop(0.3 * rc.seconds, 1, [&](int i) {
            return keepSamplesOfFirst(one(i, true), i);
        });
    checkSearches(ref_eval, untraced, budget, "untraced search", rep);
    checkSearches(ref_eval, traced, budget, "traced search", rep);
    const Finished& t = traced[0];

    // Episode rollouts alone, with a fresh policy on the same problem.
    rl::ActorCritic ac(eval, streamSeed(rc.seed, 7), hidden);
    const int episodes = p.integer("rollout_episodes");
    opt::SearchOptions rollout_opts;
    rollout_opts.sampleBudget = episodes;
    rollout_opts.threads = lanes;
    opt::SearchRecorder recorder(eval, rollout_opts);
    common::Rng rng(streamSeed(rc.seed, 8));
    std::vector<double> rollout_ms;
    for (int e = 0; e < episodes; ++e) {
        auto t0 = Clock::now();
        rl::Episode ep = ac.rollout(rng, recorder);
        rollout_ms.push_back(secondsBetween(t0, Clock::now()) * 1e3);
    }
    const double rollout = median(rollout_ms);

    reportProblemProbe(probeProblems({spec}, 20), rep);
    SimulateReplay sim =
        replaySimulate(ref_eval, t.sampled, t.sampledFitness, 3, rep);
    std::vector<double> walls;
    for (const Finished& f : untraced)
        walls.push_back(f.seconds);
    const double search_s = median(walls);
    const double per_sample_ms = search_s * 1e3 / static_cast<double>(budget);
    rep.metric("sched.simulate_ns", sim.perCandidateNs, "ns");
    rep.metric("sched.simulate_share", sim.totalSeconds / search_s, "ratio");
    rep.metric("opt.search_s", search_s, "s");
    // A2C scores one candidate per episode, so the evaluation replay is
    // the serial one.
    rep.metric("opt.self_share", (search_s - sim.totalSeconds) / search_s,
               "ratio");
    rep.metric("opt.generations", static_cast<double>(budget), "count");
    rep.metric("rl.rollout_ms", rollout, "ms");
    rep.metric("rl.update_ms", per_sample_ms - rollout, "ms");
    // Directly timed: the rollouts. The update has no public entry point.
    rep.metric("trace.unattributed_share",
               (per_sample_ms - rollout) / per_sample_ms, "ratio");
    rep.metric("trace.overhead_share", overheadShare(untraced, traced),
               "ratio");
    return rep;
}

}  // namespace perfbench
