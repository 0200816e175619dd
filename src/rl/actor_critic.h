#ifndef MAGMA_RL_ACTOR_CRITIC_H_
#define MAGMA_RL_ACTOR_CRITIC_H_

#include <vector>

#include "common/matrix.h"
#include "opt/optimizer.h"
#include "rl/nn.h"
#include "rl/policy.h"

namespace magma::rl {

/** One environment step of a collected episode. */
struct RolloutStep {
    std::vector<double> features;
    int accel = 0;
    int bucket = 0;
    double logp = 0.0;  ///< joint log-prob of both heads at collection time
};

/** One collected episode (= one budget sample). */
struct Episode {
    std::vector<RolloutStep> steps;
    common::Matrix logits;  ///< actor outputs, one row per step
    sched::Mapping mapping;
    double fitness = 0.0;  ///< raw throughput (GFLOP/s)
    double reward = 0.0;   ///< normalized by platform peak
};

/**
 * Shared actor-critic plumbing of the two RL methods (Table IV): a policy
 * network with an accel head and a priority-bucket head, a separate critic
 * network, and an episode rollout that constructs a full mapping and
 * charges exactly one budget sample for its evaluation.
 */
class ActorCritic {
  public:
    ActorCritic(const sched::MappingEvaluator& eval, uint64_t seed,
                int hidden = 128);

    /**
     * Play one episode under the current stochastic policy. Clears the
     * actor's activation caches first and forwards every step into them,
     * so afterwards they hold exactly this episode's rows and
     * actor().backward() can run on them directly.
     */
    Episode rollout(common::Rng& rng, opt::SearchRecorder& rec);

    /** Stack episode features into a (steps x dim) matrix. */
    static common::Matrix stackFeatures(const std::vector<RolloutStep>& s);

    /** Discounted returns for a terminal-only reward. */
    static std::vector<double> discountedReturns(int steps, double reward,
                                                 double gamma);

    MappingEnv& env() { return env_; }
    Mlp& actor() { return actor_; }
    Mlp& critic() { return critic_; }
    int accelActions() const { return env_.accelActions(); }
    int bucketActions() const { return env_.priorityActions(); }

  private:
    const sched::MappingEvaluator* eval_;
    MappingEnv env_;
    Mlp actor_;
    Mlp critic_;
    double reward_scale_;
};

}  // namespace magma::rl

#endif  // MAGMA_RL_ACTOR_CRITIC_H_
