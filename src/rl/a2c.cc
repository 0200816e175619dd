#include "rl/a2c.h"

#include <vector>

#include "obs/profiler.h"
#include "rl/actor_critic.h"
#include "rl/optim.h"

namespace magma::rl {

using common::Matrix;

void
A2c::run(const sched::MappingEvaluator& eval, const opt::SearchOptions&,
         opt::SearchRecorder& rec)
{
    ActorCritic ac(eval, rng_.engine()(), cfg_.hidden);
    RmsProp actor_opt(ac.actor().params(), ac.actor().grads(),
                      cfg_.learningRate);
    RmsProp critic_opt(ac.critic().params(), ac.critic().grads(),
                       cfg_.learningRate);
    const int a_n = ac.accelActions();
    const int b_n = ac.bucketActions();

    while (!rec.exhausted()) {
        Episode ep = ac.rollout(rng_, rec);
        PROFILE_SCOPE("rl.update");
        const int g = static_cast<int>(ep.steps.size());

        // The rollout left this episode's actor activations cached and
        // kept its logits: the actor is not forwarded again.
        const Matrix& logits = ep.logits;
        ac.critic().clearCache();
        Matrix values =
            ac.critic().forward(ActorCritic::stackFeatures(ep.steps));
        std::vector<double> returns =
            ActorCritic::discountedReturns(g, ep.reward, cfg_.gamma);

        Matrix dlogits(g, a_n + b_n, 0.0);
        Matrix dvalues(g, 1, 0.0);
        for (int j = 0; j < g; ++j) {
            double adv = returns[j] - values.at(j, 0);
            std::vector<double> la(a_n), lb(b_n);
            for (int i = 0; i < a_n; ++i)
                la[i] = logits.at(j, i);
            for (int i = 0; i < b_n; ++i)
                lb[i] = logits.at(j, a_n + i);

            // Policy gradient (both heads) + entropy bonus, averaged over
            // the episode.
            std::vector<double> ga =
                policyGradLogits(la, ep.steps[j].accel, adv / g);
            std::vector<double> gb =
                policyGradLogits(lb, ep.steps[j].bucket, adv / g);
            std::vector<double> ea =
                entropyGradLogits(la, cfg_.entropyCoef / g);
            std::vector<double> eb =
                entropyGradLogits(lb, cfg_.entropyCoef / g);
            for (int i = 0; i < a_n; ++i)
                dlogits.at(j, i) = ga[i] + ea[i];
            for (int i = 0; i < b_n; ++i)
                dlogits.at(j, a_n + i) = gb[i] + eb[i];

            // Value loss 0.5 coefficient: d/dV of c*(V-R)^2.
            dvalues.at(j, 0) = 2.0 * cfg_.valueCoef *
                               (values.at(j, 0) - returns[j]) / g;
        }

        ac.actor().zeroGrad();
        ac.actor().backward(dlogits);
        actor_opt.clipAndStep(cfg_.maxGradNorm);

        ac.critic().zeroGrad();
        ac.critic().backward(dvalues);
        critic_opt.clipAndStep(cfg_.maxGradNorm);
    }
}

}  // namespace magma::rl
