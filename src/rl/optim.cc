#include "rl/optim.h"

#include <cmath>

#include "obs/profiler.h"

namespace magma::rl {

void
GradOptimizer::clipGradNorm(double max_norm)
{
    double norm2 = 0.0;
    for (double g : grads_)
        norm2 += g * g;
    double norm = std::sqrt(norm2);
    if (norm > max_norm && norm > 0.0) {
        double scale = max_norm / norm;
        for (double& g : grads_)
            g *= scale;
    }
}

void
GradOptimizer::clipAndStep(double max_norm)
{
    PROFILE_SCOPE("rl.optim.step");
    clipGradNorm(max_norm);
    step();
}

RmsProp::RmsProp(std::span<double> params, std::span<double> grads,
                 double lr, double alpha, double eps)
    : GradOptimizer(params, grads),
      lr_(lr), alpha_(alpha), eps_(eps), sq_(params_.size(), 0.0)
{}

void
RmsProp::step()
{
    for (size_t i = 0; i < params_.size(); ++i) {
        double g = grads_[i];
        sq_[i] = alpha_ * sq_[i] + (1.0 - alpha_) * g * g;
        params_[i] -= lr_ * g / (std::sqrt(sq_[i]) + eps_);
    }
}

Adam::Adam(std::span<double> params, std::span<double> grads,
           double lr, double beta1, double beta2, double eps)
    : GradOptimizer(params, grads),
      lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps),
      m_(params_.size(), 0.0), v_(params_.size(), 0.0)
{}

void
Adam::step()
{
    ++t_;
    double bc1 = 1.0 - std::pow(beta1_, t_);
    double bc2 = 1.0 - std::pow(beta2_, t_);
    for (size_t i = 0; i < params_.size(); ++i) {
        double g = grads_[i];
        m_[i] = beta1_ * m_[i] + (1.0 - beta1_) * g;
        v_[i] = beta2_ * v_[i] + (1.0 - beta2_) * g * g;
        double mh = m_[i] / bc1;
        double vh = v_[i] / bc2;
        params_[i] -= lr_ * mh / (std::sqrt(vh) + eps_);
    }
}

}  // namespace magma::rl
