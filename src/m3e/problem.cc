#include "m3e/problem.h"

namespace magma::m3e {

Problem::Problem(dnn::JobGroup group, accel::Platform platform,
                 sched::BwPolicy policy, sched::Objective objective)
    : group_(std::move(group)), platform_(std::move(platform))
{
    evaluator_ = std::make_unique<sched::MappingEvaluator>(
        group_, platform_, model_, policy, objective);
}

std::unique_ptr<Problem>
makeProblem(dnn::TaskType task, accel::Setting setting,
            double system_bw_gbps, int group_size, uint64_t seed,
            sched::Objective objective, sched::BwPolicy policy)
{
    dnn::WorkloadGenerator gen(seed);
    return std::make_unique<Problem>(
        gen.makeGroup(task, group_size),
        accel::makeSetting(setting, system_bw_gbps), policy, objective);
}

std::unique_ptr<Problem>
makeFlexibleProblem(dnn::TaskType task, accel::Setting setting,
                    double system_bw_gbps, int group_size, uint64_t seed,
                    sched::Objective objective, sched::BwPolicy policy)
{
    dnn::WorkloadGenerator gen(seed);
    return std::make_unique<Problem>(
        gen.makeGroup(task, group_size),
        accel::makeFlexibleSetting(setting, system_bw_gbps), policy,
        objective);
}

}  // namespace magma::m3e
