#include "rl/ppo2.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/profiler.h"
#include "rl/actor_critic.h"
#include "rl/optim.h"

namespace magma::rl {

using common::Matrix;

void
Ppo2::run(const sched::MappingEvaluator& eval, const opt::SearchOptions&,
          opt::SearchRecorder& rec)
{
    ActorCritic ac(eval, rng_.engine()(), cfg_.hidden);
    Adam actor_opt(ac.actor().params(), ac.actor().grads(),
                   cfg_.learningRate);
    Adam critic_opt(ac.critic().params(), ac.critic().grads(),
                    cfg_.learningRate);
    const int a_n = ac.accelActions();
    const int b_n = ac.bucketActions();

    while (!rec.exhausted()) {
        // --- Collect a batch of episodes under the behaviour policy. ---
        std::vector<RolloutStep> steps;
        std::vector<double> returns;
        for (int e = 0; e < cfg_.episodesPerBatch && !rec.exhausted();
             ++e) {
            Episode ep = ac.rollout(rng_, rec);
            std::vector<double> r = ActorCritic::discountedReturns(
                static_cast<int>(ep.steps.size()), ep.reward, cfg_.gamma);
            for (size_t j = 0; j < ep.steps.size(); ++j) {
                steps.push_back(std::move(ep.steps[j]));
                returns.push_back(r[j]);
            }
        }
        if (steps.empty())
            break;
        PROFILE_SCOPE("rl.update");
        const int n = static_cast<int>(steps.size());

        Matrix x = ActorCritic::stackFeatures(steps);

        // Advantages against the current critic, normalized per batch.
        ac.critic().clearCache();
        Matrix values0 = ac.critic().forward(x);
        std::vector<double> adv(n);
        double mean = 0.0;
        for (int i = 0; i < n; ++i) {
            adv[i] = returns[i] - values0.at(i, 0);
            mean += adv[i];
        }
        mean /= n;
        double var = 0.0;
        for (double a : adv)
            var += (a - mean) * (a - mean);
        double sd = std::sqrt(var / std::max(n - 1, 1)) + 1e-8;
        for (double& a : adv)
            a = (a - mean) / sd;

        // --- Clipped-surrogate epochs. ---
        for (int epoch = 0; epoch < cfg_.epochsPerBatch; ++epoch) {
            // Whole-batch forwards under this epoch's weights.
            ac.actor().clearCache();
            Matrix logits = ac.actor().forward(x);
            ac.critic().clearCache();
            Matrix values = ac.critic().forward(x);

            Matrix dlogits(n, a_n + b_n, 0.0);
            Matrix dvalues(n, 1, 0.0);
            for (int i = 0; i < n; ++i) {
                std::vector<double> la(a_n), lb(b_n);
                for (int k = 0; k < a_n; ++k)
                    la[k] = logits.at(i, k);
                for (int k = 0; k < b_n; ++k)
                    lb[k] = logits.at(i, a_n + k);

                double logp_new = logProb(la, steps[i].accel) +
                                  logProb(lb, steps[i].bucket);
                double ratio = std::exp(logp_new - steps[i].logp);
                double surr1 = ratio * adv[i];
                double surr2 =
                    std::clamp(ratio, 1.0 - cfg_.clipRange,
                               1.0 + cfg_.clipRange) * adv[i];
                // Gradient flows through the ratio only when the unclipped
                // term is active (standard PPO subgradient).
                bool pass = surr1 <= surr2 ||
                            (ratio >= 1.0 - cfg_.clipRange &&
                             ratio <= 1.0 + cfg_.clipRange);
                double coeff = pass ? adv[i] * ratio / n : 0.0;

                std::vector<double> ga =
                    policyGradLogits(la, steps[i].accel, coeff);
                std::vector<double> gb =
                    policyGradLogits(lb, steps[i].bucket, coeff);
                std::vector<double> ea =
                    entropyGradLogits(la, cfg_.entropyCoef / n);
                std::vector<double> eb =
                    entropyGradLogits(lb, cfg_.entropyCoef / n);
                for (int k = 0; k < a_n; ++k)
                    dlogits.at(i, k) = ga[k] + ea[k];
                for (int k = 0; k < b_n; ++k)
                    dlogits.at(i, a_n + k) = gb[k] + eb[k];

                dvalues.at(i, 0) = 2.0 * cfg_.valueCoef *
                                   (values.at(i, 0) - returns[i]) / n;
            }

            ac.actor().zeroGrad();
            ac.actor().backward(dlogits);
            actor_opt.clipAndStep(cfg_.maxGradNorm);

            ac.critic().zeroGrad();
            ac.critic().backward(dvalues);
            critic_opt.clipAndStep(cfg_.maxGradNorm);
        }
    }
}

}  // namespace magma::rl
