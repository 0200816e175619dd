#include "layers.h"

#include <algorithm>

#include "api/runner.h"
#include "bench.h"
#include "cost/cost_model.h"
#include "dnn/workload.h"
#include "exec/eval_engine.h"
#include "exec/thread_pool.h"
#include "sched/flat_eval.h"
#include "sched/job_analyzer.h"

namespace perfbench {

using namespace magma;

ProblemProbe
probeProblems(const std::vector<api::ProblemSpec>& specs, int reps)
{
    std::vector<double> build_ms, cost_ns, queries, analyze_ms;
    for (const api::ProblemSpec& spec : specs) {
        dnn::WorkloadGenerator gen(spec.workloadSeed);
        dnn::JobGroup group = gen.makeGroup(spec.task, spec.groupSize);
        accel::Platform platform = api::buildPlatform(spec);
        cost::CostModel model;
        sched::JobAnalyzer analyzer(model);

        std::vector<double> b, c, a;
        for (int r = 0; r < reps; ++r) {
            auto t0 = Clock::now();
            auto problem = api::buildProblem(spec);
            auto t1 = Clock::now();
            b.push_back(secondsBetween(t0, t1) * 1e3);

            int64_t pairs = 0;
            t0 = Clock::now();
            for (const dnn::Job& job : group.jobs)
                for (const cost::SubAccelConfig& sub : platform.subAccels) {
                    model.analyze(job.layer, job.batch, sub);
                    ++pairs;
                }
            t1 = Clock::now();
            c.push_back(secondsBetween(t0, t1) * 1e9 /
                        static_cast<double>(std::max<int64_t>(pairs, 1)));

            t0 = Clock::now();
            analyzer.analyze(group, platform);
            t1 = Clock::now();
            a.push_back(secondsBetween(t0, t1) * 1e3);
        }
        build_ms.push_back(median(b));
        cost_ns.push_back(median(c));
        analyze_ms.push_back(median(a));
        queries.push_back(static_cast<double>(analyzer.lastUniqueQueries()));
    }
    ProblemProbe p;
    p.buildMs = mean(build_ms);
    p.costAnalyzeNs = mean(cost_ns);
    p.costQueries = mean(queries);
    p.analyzeMs = mean(analyze_ms);
    return p;
}

void
reportProblemProbe(const ProblemProbe& p, Report& rep)
{
    rep.metric("api.build_problem_ms", p.buildMs, "ms");
    rep.metric("cost.analyze_ns", p.costAnalyzeNs, "ns");
    rep.metric("cost.queries", p.costQueries, "count");
    rep.metric("sched.analyze_ms", p.analyzeMs, "ms");
}

SimulateReplay
replaySimulate(const sched::MappingEvaluator& eval,
               const std::vector<sched::Mapping>& cands,
               const std::vector<double>& expected, int reps, Report& rep)
{
    sched::FlatEvaluator flat(eval);
    sched::EvalScratch scratch;
    std::vector<double> got(cands.size());
    std::vector<double> totals;
    for (int r = 0; r < reps; ++r) {
        auto t0 = Clock::now();
        for (size_t i = 0; i < cands.size(); ++i)
            got[i] = flat.fitness(cands[i], scratch);
        totals.push_back(secondsBetween(t0, Clock::now()));
    }
    size_t mismatches = 0;
    for (size_t i = 0; i < cands.size(); ++i)
        mismatches += !sameBits(got[i], expected[i]);
    rep.check(mismatches == 0,
              "serial replay reproduces every sampled fitness (" +
                  std::to_string(mismatches) + " mismatches)");
    SimulateReplay s;
    s.totalSeconds = median(totals);
    s.perCandidateNs = s.totalSeconds * 1e9 /
                       static_cast<double>(std::max<size_t>(cands.size(), 1));
    return s;
}

BatchReplay
replayBatches(const sched::MappingEvaluator& eval,
              const std::vector<sched::Mapping>& cands,
              const std::vector<double>& expected, int batch, int lanes,
              Report& rep)
{
    exec::EvalEngine engine(eval, lanes);
    std::vector<double> batch_us;
    size_t mismatches = 0;
    double total = 0.0;
    for (size_t first = 0; first < cands.size(); first += batch) {
        size_t n = std::min(cands.size() - first, static_cast<size_t>(batch));
        auto t0 = Clock::now();
        std::vector<double> f = engine.evaluateBatch(&cands[first], n);
        double s = secondsBetween(t0, Clock::now());
        total += s;
        batch_us.push_back(s * 1e6);
        for (size_t i = 0; i < n; ++i)
            mismatches += !sameBits(f[i], expected[first + i]);
    }
    rep.check(mismatches == 0,
              "batch replay reproduces every sampled fitness (" +
                  std::to_string(mismatches) + " mismatches)");
    BatchReplay b;
    b.perBatchUs = batch_us.empty() ? 0.0 : median(batch_us);
    b.totalSeconds = total;
    return b;
}

double
poolRoundtripUs(int lanes, int reps)
{
    exec::ThreadPool pool(lanes);
    std::vector<double> us;
    for (int r = 0; r < reps + reps / 10; ++r) {
        auto t0 = Clock::now();
        pool.parallelFor(lanes, [](int64_t) {});
        if (r >= reps / 10)  // the first tenth warms the workers
            us.push_back(secondsBetween(t0, Clock::now()) * 1e6);
    }
    return median(us);
}

}  // namespace perfbench
