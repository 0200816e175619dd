#ifndef MAGMA_RL_NN_H_
#define MAGMA_RL_NN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix.h"

namespace magma::rl {

/**
 * One dense layer y = x W^T + b of an Mlp. A Linear owns no storage:
 * its parameters are a slice of the owning Mlp's parameter vector —
 * weights (out x in, row-major) then biases (out) — starting at
 * offset(), and its gradients sit at the same offset of the gradient
 * vector.
 *
 * Kernel rule: each output is summed in one fixed order, acc = b[o] then
 * acc += x[i] * w[o][i] for i ascending, whatever the batch or blocking.
 * Results are therefore bitwise reproducible and a row's output does not
 * depend on the rows forwarded with it. Never reassociate these sums or
 * contract them into FMAs (magma_core builds with -ffp-contract=off).
 */
class Linear {
  public:
    Linear(int in, int out, size_t offset)
        : in_(in), out_(out), offset_(offset)
    {}

    int inDim() const { return in_; }
    int outDim() const { return out_; }
    size_t offset() const { return offset_; }
    /** Parameter count: out * in weights, then out biases. */
    size_t size() const { return static_cast<size_t>(out_) * (in_ + 1); }

    /** y (rows x out) = x (rows x in) W^T + b; p is this layer's slice. */
    void forward(std::span<const double> p, const double* x, size_t rows,
                 double* y) const;

    /**
     * For dL/dy = grad_out (rows x out) at inputs x (rows x in):
     * accumulate dL/dW and dL/db into g (this layer's gradient slice)
     * and, when dx is not null, write dL/dx (rows x in) there.
     */
    void backward(std::span<const double> p, std::span<double> g,
                  const double* x, const double* grad_out, size_t rows,
                  double* dx) const;

  private:
    int in_, out_;
    size_t offset_;
};

/**
 * MLP with ReLU between layers and a linear head, sized for the paper's
 * RL agents: {in, 128, 128, 128, out} realizes Table IV's 3x128 policy
 * and critic networks. Manual backpropagation.
 *
 * All parameters live in one vector and all gradients in another, layer
 * by layer, weights then biases, so optimizers run over two spans.
 *
 * forward() appends its rows' activations to caches that hold every row
 * since the last clearCache(); backward() runs over all of them. An
 * episode can so be forwarded step by step while it is played and then
 * differentiated in one pass, with bitwise the same gradients as one
 * batched forward of the whole episode.
 */
class Mlp {
  public:
    Mlp(const std::vector<int>& dims, uint64_t seed);

    /** Forward the rows of x (rows x inDim), caching their activations. */
    common::Matrix forward(const common::Matrix& x);

    /** Drop every cached row (the storage is kept for reuse). */
    void clearCache();

    /** Rows forwarded since the last clearCache(). */
    size_t cachedRows() const { return rows_; }

    /**
     * Backward over every cached row: grad_out holds dL/dy with one row
     * per cached row, in forward order. Accumulates into grads().
     */
    void backward(const common::Matrix& grad_out);

    void zeroGrad();

    /** Every parameter: layer by layer, weights then biases. */
    std::span<double> params() { return params_; }
    /** Gradients, in the same order as params(). */
    std::span<double> grads() { return grads_; }

    int inDim() const { return layers_.front().inDim(); }
    int outDim() const { return layers_.back().outDim(); }

  private:
    std::vector<Linear> layers_;
    std::vector<double> params_;
    std::vector<double> grads_;
    /** acts_[l]: cached inputs of layer l, rows x inDim (post-ReLU). */
    std::vector<std::vector<double>> acts_;
    size_t rows_ = 0;
    std::vector<double> g_, dx_;  // backward scratch
};

}  // namespace magma::rl

#endif  // MAGMA_RL_NN_H_
