#include "rl/actor_critic.h"

#include <algorithm>
#include <cmath>

#include "obs/profiler.h"

namespace magma::rl {

using common::Matrix;

ActorCritic::ActorCritic(const sched::MappingEvaluator& eval, uint64_t seed,
                         int hidden)
    : eval_(&eval),
      env_(eval),
      actor_({env_.featureDim(), hidden, hidden, hidden,
              env_.accelActions() + env_.priorityActions()},
             seed),
      critic_({env_.featureDim(), hidden, hidden, hidden, 1}, seed ^ 0x9e37),
      reward_scale_(eval.platform().peakGflops())
{}

Episode
ActorCritic::rollout(common::Rng& rng, opt::SearchRecorder& rec)
{
    PROFILE_SCOPE("rl.rollout");
    const int g = env_.steps();
    const int a_n = env_.accelActions();
    const int b_n = env_.priorityActions();

    Episode ep;
    ep.steps.reserve(g);
    ep.mapping.accelSel.assign(g, 0);
    ep.mapping.priority.assign(g, 0.0);
    ep.logits = Matrix(g, a_n + b_n);
    env_.reset();
    actor_.clearCache();

    for (int j = 0; j < g; ++j) {
        RolloutStep step;
        step.features = env_.observe(j);
        Matrix x(1, step.features.size());
        for (size_t i = 0; i < step.features.size(); ++i)
            x.at(0, i) = step.features[i];
        Matrix logits = actor_.forward(x);
        const double* row = logits.data();
        std::copy(row, row + a_n + b_n, &ep.logits.at(j, 0));
        std::vector<double> accel_logits(row, row + a_n);
        std::vector<double> bucket_logits(row + a_n, row + a_n + b_n);
        step.accel = sampleCategorical(accel_logits, rng);
        step.bucket = sampleCategorical(bucket_logits, rng);
        step.logp = logProb(accel_logits, step.accel) +
                    logProb(bucket_logits, step.bucket);
        env_.act(j, step.accel, step.bucket, ep.mapping);
        ep.steps.push_back(std::move(step));
    }

    ep.fitness = rec.evaluate(ep.mapping);
    ep.reward = reward_scale_ > 0.0 ? ep.fitness / reward_scale_
                                    : ep.fitness;
    return ep;
}

Matrix
ActorCritic::stackFeatures(const std::vector<RolloutStep>& steps)
{
    Matrix x(steps.size(), steps.empty() ? 0 : steps[0].features.size());
    for (size_t r = 0; r < steps.size(); ++r)
        for (size_t c = 0; c < steps[r].features.size(); ++c)
            x.at(r, c) = steps[r].features[c];
    return x;
}

std::vector<double>
ActorCritic::discountedReturns(int steps, double reward, double gamma)
{
    std::vector<double> returns(steps);
    double r = reward;
    for (int j = steps - 1; j >= 0; --j) {
        returns[j] = r;
        r *= gamma;
    }
    return returns;
}

}  // namespace magma::rl
