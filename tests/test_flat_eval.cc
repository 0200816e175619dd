/** @file Parity tests for the allocation-free fast-path evaluator:
 * sched::FlatEvaluator must be bitwise identical to the reference
 * MappingEvaluator on every mapping, platform, BW policy and objective —
 * the contract that lets the flat kernel score every search while the
 * reference evaluator stays the oracle. */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "exec/eval_engine.h"
#include "m3e/problem.h"
#include "opt/magma_ga.h"
#include "sched/flat_eval.h"

using namespace magma;
using sched::EvalScratch;
using sched::FlatEvaluator;
using sched::Mapping;
using sched::Objective;
using sched::ScheduleResult;

namespace {

constexpr Objective kObjectives[] = {
    Objective::Throughput, Objective::Latency, Objective::Energy,
    Objective::EnergyDelay, Objective::PerfPerWatt,
};

void
expectSameSchedule(const ScheduleResult& a, const ScheduleResult& b)
{
    EXPECT_EQ(a.makespanSeconds, b.makespanSeconds);
    ASSERT_EQ(a.finishTime.size(), b.finishTime.size());
    for (size_t i = 0; i < a.finishTime.size(); ++i)
        EXPECT_EQ(a.finishTime[i], b.finishTime[i]) << "job " << i;
    ASSERT_EQ(a.events.size(), b.events.size());
    for (size_t e = 0; e < a.events.size(); ++e) {
        EXPECT_EQ(a.events[e].start, b.events[e].start);
        EXPECT_EQ(a.events[e].end, b.events[e].end);
        EXPECT_EQ(a.events[e].job, b.events[e].job);
        EXPECT_EQ(a.events[e].accel, b.events[e].accel);
        EXPECT_EQ(a.events[e].allocBw, b.events[e].allocBw);
    }
}

}  // namespace

/** The headline property: randomized mappings x platforms x BW policies x
 * all five objectives give bitwise-identical fitness and schedules. */
TEST(FlatEval, RandomizedBitwiseParityAcrossPlatformsPoliciesObjectives)
{
    common::Rng meta(0xf1a7);
    const accel::Setting settings[] = {accel::Setting::S1, accel::Setting::S2,
                                       accel::Setting::S4, accel::Setting::S6};
    const dnn::TaskType tasks[] = {dnn::TaskType::Vision,
                                   dnn::TaskType::Language,
                                   dnn::TaskType::Recommendation,
                                   dnn::TaskType::Mix};
    for (int trial = 0; trial < 12; ++trial) {
        dnn::TaskType task = tasks[meta.uniformInt(4)];
        accel::Setting setting = settings[meta.uniformInt(4)];
        double bw = 4.0 + 12.0 * meta.uniform();
        int group = 4 + meta.uniformInt(16);
        sched::BwPolicy policy = (trial % 2 == 0)
                                     ? sched::BwPolicy::Proportional
                                     : sched::BwPolicy::EvenSplit;
        Objective obj = kObjectives[trial % 5];
        auto p = m3e::makeProblem(task, setting, bw, group,
                                  /*seed=*/trial + 1, obj, policy);
        const sched::MappingEvaluator& ev = p->evaluator();
        FlatEvaluator flat(ev);
        EXPECT_EQ(flat.numJobs(), ev.groupSize());
        EXPECT_EQ(flat.numAccels(), ev.numAccels());
        EXPECT_EQ(flat.objective(), obj);

        EvalScratch scratch;
        common::Rng rng(100 + trial);
        for (int i = 0; i < 40; ++i) {
            Mapping m = Mapping::random(group, ev.numAccels(), rng);
            EXPECT_EQ(ev.fitness(m), flat.fitness(m, scratch))
                << "trial " << trial << " candidate " << i;
            expectSameSchedule(ev.evaluate(m, true),
                               flat.evaluate(m, scratch, true));
            EXPECT_EQ(ev.totalJoules(m), flat.totalJoules(m));
        }
    }
}

/** Equal priorities must keep the decoder's stable job-id order. */
TEST(FlatEval, TiedPrioritiesMatchStableDecodeOrder)
{
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 8.0,
                              12, 3);
    const sched::MappingEvaluator& ev = p->evaluator();
    FlatEvaluator flat(ev);
    EvalScratch scratch;
    Mapping m;
    m.accelSel.assign(12, 0);
    m.priority.assign(12, 0.5);  // all tied -> job-id order
    for (int j = 0; j < 12; ++j)
        m.accelSel[j] = j % ev.numAccels();
    expectSameSchedule(ev.evaluate(m, true), flat.evaluate(m, scratch, true));
    EXPECT_EQ(ev.fitness(m), flat.fitness(m, scratch));
}

/** One scratch must be reusable across problems of different shapes. */
TEST(FlatEval, ScratchResizesAcrossProblems)
{
    EvalScratch scratch;
    common::Rng rng(7);
    for (int group : {20, 6, 33}) {
        auto p = m3e::makeProblem(dnn::TaskType::Vision, accel::Setting::S3,
                                  10.0, group, group);
        const sched::MappingEvaluator& ev = p->evaluator();
        FlatEvaluator flat(ev);
        for (int i = 0; i < 10; ++i) {
            Mapping m = Mapping::random(group, ev.numAccels(), rng);
            EXPECT_EQ(ev.fitness(m), flat.fitness(m, scratch));
        }
    }
}

/** Flat evaluations tick the shared sample meter exactly like reference
 * ones — budget accounting must not depend on the kernel. */
TEST(FlatEval, SharesSampleMeterWithReference)
{
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 8.0,
                              10, 5);
    sched::MappingEvaluator& ev = p->evaluator();
    FlatEvaluator flat(ev);
    EvalScratch scratch;
    common::Rng rng(9);
    Mapping m = Mapping::random(10, ev.numAccels(), rng);
    ev.resetSampleCount();
    flat.fitness(m, scratch);
    flat.fitness(m, scratch);
    ev.fitness(m);
    EXPECT_EQ(ev.sampleCount(), 3);
}

/** EvalEngine batch parity: a 4-lane flat batch must equal the serial
 * reference loop element-by-element, in submission order. */
TEST(FlatEval, EvalEngineFourThreadBatchMatchesSerialReference)
{
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S4, 16.0,
                              24, 11);
    const sched::MappingEvaluator& ev = p->evaluator();
    common::Rng rng(21);
    std::vector<Mapping> batch;
    for (int i = 0; i < 96; ++i)
        batch.push_back(Mapping::random(24, ev.numAccels(), rng));

    exec::EvalEngine flat4(ev, 4);
    EXPECT_EQ(flat4.numThreads(), 4);
    std::vector<double> got = flat4.evaluateBatch(batch);
    ASSERT_EQ(got.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i)
        EXPECT_EQ(got[i], ev.fitness(batch[i])) << "candidate " << i;

    // fitnessOne (the recorder's serial path) agrees too.
    for (size_t i = 0; i < 8; ++i)
        EXPECT_EQ(flat4.fitnessOne(batch[i]), ev.fitness(batch[i]));
}

/** End-to-end: every candidate a whole MAGMA search scored (serial and
 * batched) re-scores bitwise on the reference evaluator, so the search
 * follows the trajectory the reference kernel would have produced. */
TEST(FlatEval, MagmaSearchScoresMatchReference)
{
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 8.0,
                              14, 17);
    const sched::MappingEvaluator& ev = p->evaluator();
    for (int threads : {1, 3}) {
        opt::SearchOptions opts;
        opts.sampleBudget = 400;
        opts.threads = threads;
        opts.recordSamples = true;
        opt::MagmaGa ga(5);
        opt::SearchResult r = ga.search(ev, opts);

        ASSERT_EQ(r.sampled.size(), 400u);
        ASSERT_EQ(r.sampledFitness.size(), r.sampled.size());
        for (size_t i = 0; i < r.sampled.size(); ++i)
            EXPECT_EQ(r.sampledFitness[i], ev.fitness(r.sampled[i]))
                << "sample " << i << " threads " << threads;
        EXPECT_EQ(r.bestFitness, ev.fitness(r.best));
    }
}
