#include "rl/nn.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/rng.h"

namespace magma::rl {

using common::Matrix;

void
Linear::forward(std::span<const double> p, const double* x, size_t rows,
                double* y) const
{
    assert(p.size() == size());
    const double* w = p.data();
    const double* b = w + static_cast<size_t>(out_) * in_;
    // Eight independent output chains per pass over the input row: the
    // same per-output sums as one chain at a time, but the CPU overlaps
    // their adds instead of waiting on one add latency per element.
    constexpr int kBlock = 8;
    for (size_t r = 0; r < rows; ++r) {
        const double* xr = x + r * in_;
        double* yr = y + r * out_;
        int o = 0;
        for (; o + kBlock <= out_; o += kBlock) {
            const double* wo = w + static_cast<size_t>(o) * in_;
            double acc[kBlock];
            for (int k = 0; k < kBlock; ++k)
                acc[k] = b[o + k];
            for (int i = 0; i < in_; ++i) {
                const double xi = xr[i];
                for (int k = 0; k < kBlock; ++k)
                    acc[k] += xi * wo[static_cast<size_t>(k) * in_ + i];
            }
            for (int k = 0; k < kBlock; ++k)
                yr[o + k] = acc[k];
        }
        for (; o < out_; ++o) {
            const double* wo = w + static_cast<size_t>(o) * in_;
            double acc = b[o];
            for (int i = 0; i < in_; ++i)
                acc += xr[i] * wo[i];
            yr[o] = acc;
        }
    }
}

void
Linear::backward(std::span<const double> p, std::span<double> g,
                 const double* x, const double* grad_out, size_t rows,
                 double* dx) const
{
    assert(p.size() == size() && g.size() == size());
    const double* w = p.data();
    double* gw = g.data();
    double* gb = gw + static_cast<size_t>(out_) * in_;
    // dW += g^T x ; db += sum g ; dx = g W
    for (size_t r = 0; r < rows; ++r) {
        const double* xr = x + r * in_;
        for (int o = 0; o < out_; ++o) {
            double go = grad_out[r * out_ + o];
            if (go == 0.0)
                continue;
            gb[o] += go;
            double* gwo = gw + static_cast<size_t>(o) * in_;
            for (int i = 0; i < in_; ++i)
                gwo[i] += go * xr[i];
        }
    }
    if (!dx)
        return;
    std::fill(dx, dx + rows * in_, 0.0);
    for (size_t r = 0; r < rows; ++r) {
        double* dxr = dx + r * in_;
        for (int o = 0; o < out_; ++o) {
            double go = grad_out[r * out_ + o];
            if (go == 0.0)
                continue;
            const double* wo = w + static_cast<size_t>(o) * in_;
            for (int i = 0; i < in_; ++i)
                dxr[i] += go * wo[i];
        }
    }
}

Mlp::Mlp(const std::vector<int>& dims, uint64_t seed)
{
    assert(dims.size() >= 2);
    size_t offset = 0;
    for (size_t i = 0; i + 1 < dims.size(); ++i) {
        layers_.emplace_back(dims[i], dims[i + 1], offset);
        offset += layers_.back().size();
    }
    params_.assign(offset, 0.0);
    grads_.assign(offset, 0.0);
    acts_.resize(layers_.size());

    // He-style initialization for the ReLU stacks; biases start at 0.
    common::Rng rng(seed);
    for (const Linear& l : layers_) {
        double scale = std::sqrt(2.0 / l.inDim());
        double* w = params_.data() + l.offset();
        for (int k = 0; k < l.outDim() * l.inDim(); ++k)
            w[k] = rng.gauss() * scale;
    }
}

Matrix
Mlp::forward(const Matrix& x)
{
    assert(static_cast<int>(x.cols()) == inDim());
    const size_t n = x.rows();
    const size_t first = rows_;
    rows_ += n;
    acts_[0].insert(acts_[0].end(), x.data(), x.data() + n * x.cols());
    Matrix y(n, outDim());
    for (size_t l = 0; l < layers_.size(); ++l) {
        const Linear& layer = layers_[l];
        std::span<const double> p(params_.data() + layer.offset(),
                                  layer.size());
        const double* in = acts_[l].data() + first * layer.inDim();
        if (l + 1 == layers_.size()) {
            layer.forward(p, in, n, y.data());
            break;
        }
        std::vector<double>& out = acts_[l + 1];
        out.resize(rows_ * layer.outDim());
        double* h = out.data() + first * layer.outDim();
        layer.forward(p, in, n, h);
        for (size_t k = 0; k < n * layer.outDim(); ++k)
            h[k] = std::max(h[k], 0.0);
    }
    return y;
}

void
Mlp::clearCache()
{
    for (auto& a : acts_)
        a.clear();
    rows_ = 0;
}

void
Mlp::backward(const Matrix& grad_out)
{
    assert(grad_out.rows() == rows_);
    assert(static_cast<int>(grad_out.cols()) == outDim());
    g_.assign(grad_out.data(),
              grad_out.data() + grad_out.rows() * grad_out.cols());
    for (size_t l = layers_.size(); l-- > 0;) {
        const Linear& layer = layers_[l];
        std::span<const double> p(params_.data() + layer.offset(),
                                  layer.size());
        std::span<double> g(grads_.data() + layer.offset(), layer.size());
        // Nothing reads the network's input gradient.
        if (l == 0) {
            layer.backward(p, g, acts_[0].data(), g_.data(), rows_,
                           nullptr);
            break;
        }
        dx_.resize(rows_ * layer.inDim());
        layer.backward(p, g, acts_[l].data(), g_.data(), rows_,
                       dx_.data());
        // ReLU mask: the cached input is max(pre, 0), which is <= 0
        // exactly where the pre-activation is.
        const std::vector<double>& a = acts_[l];
        for (size_t k = 0; k < dx_.size(); ++k)
            if (a[k] <= 0.0)
                dx_[k] = 0.0;
        std::swap(g_, dx_);
    }
}

void
Mlp::zeroGrad()
{
    std::fill(grads_.begin(), grads_.end(), 0.0);
}

}  // namespace magma::rl
