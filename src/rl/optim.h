#ifndef MAGMA_RL_OPTIM_H_
#define MAGMA_RL_OPTIM_H_

#include <cassert>
#include <span>
#include <vector>

namespace magma::rl {

/**
 * Gradient-descent optimizers over a parameter span and the gradient
 * span of the same length and order, e.g. Mlp::params() / Mlp::grads()
 * (Table IV: A2C uses RMSProp lr 0.0007, PPO2 uses Adam lr 0.00025).
 * `step` applies one update and does NOT zero the gradients. The spans
 * are views: their storage must outlive the optimizer and not move.
 */
class GradOptimizer {
  public:
    GradOptimizer(std::span<double> params, std::span<double> grads)
        : params_(params), grads_(grads)
    {
        assert(params.size() == grads.size());
    }
    virtual ~GradOptimizer() = default;

    /** Apply one update from the accumulated gradients. */
    virtual void step() = 0;

    /** Clip gradients to a global L2 norm (common PPO/A2C hygiene). */
    void clipGradNorm(double max_norm);

    /** clipGradNorm(max_norm), then step(): one A2C/PPO2 update. */
    void clipAndStep(double max_norm);

  protected:
    std::span<double> params_;
    std::span<double> grads_;
};

/** RMSProp with the usual smoothing constant 0.99 and epsilon 1e-8. */
class RmsProp : public GradOptimizer {
  public:
    RmsProp(std::span<double> params, std::span<double> grads,
            double lr = 7e-4, double alpha = 0.99, double eps = 1e-8);
    void step() override;

  private:
    double lr_, alpha_, eps_;
    std::vector<double> sq_;
};

/** Adam with beta1 0.9, beta2 0.999, epsilon 1e-8. */
class Adam : public GradOptimizer {
  public:
    Adam(std::span<double> params, std::span<double> grads,
         double lr = 2.5e-4, double beta1 = 0.9, double beta2 = 0.999,
         double eps = 1e-8);
    void step() override;

  private:
    double lr_, beta1_, beta2_, eps_;
    long t_ = 0;
    std::vector<double> m_, v_;
};

}  // namespace magma::rl

#endif  // MAGMA_RL_OPTIM_H_
