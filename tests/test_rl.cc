/** @file Unit tests for the RL substrate: NN backprop, distributions,
 * optimizers, A2C/PPO2 agents. */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string>

#include <gtest/gtest.h>

#include "m3e/problem.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "rl/a2c.h"
#include "rl/actor_critic.h"
#include "rl/nn.h"
#include "rl/optim.h"
#include "rl/policy.h"
#include "rl/ppo2.h"

using namespace magma;
using common::Matrix;

// ------------------------------------------------------------- network ---

TEST(Nn, ForwardShape)
{
    rl::Mlp net({4, 8, 3}, 1);
    Matrix x(5, 4, 0.5);
    Matrix y = net.forward(x);
    EXPECT_EQ(y.rows(), 5u);
    EXPECT_EQ(y.cols(), 3u);
}

TEST(Nn, DeterministicGivenSeed)
{
    rl::Mlp a({3, 6, 2}, 42), b({3, 6, 2}, 42);
    Matrix x(2, 3);
    x.at(0, 0) = 1.0;
    x.at(1, 2) = -2.0;
    Matrix ya = a.forward(x), yb = b.forward(x);
    for (size_t i = 0; i < 2; ++i)
        for (size_t j = 0; j < 2; ++j)
            EXPECT_DOUBLE_EQ(ya.at(i, j), yb.at(i, j));
}

TEST(Nn, GradientMatchesFiniteDifference)
{
    // Loss = sum(y); check dL/dparam numerically for a small net.
    rl::Mlp net({3, 5, 2}, 7);
    common::Rng rng(8);
    Matrix x(4, 3);
    for (size_t i = 0; i < 4; ++i)
        for (size_t j = 0; j < 3; ++j)
            x.at(i, j) = rng.gauss();

    auto loss = [&]() {
        net.clearCache();
        Matrix y = net.forward(x);
        double l = 0.0;
        for (size_t i = 0; i < y.rows(); ++i)
            for (size_t j = 0; j < y.cols(); ++j)
                l += y.at(i, j);
        return l;
    };

    net.zeroGrad();
    net.forward(x);
    Matrix g(4, 2, 1.0);  // dL/dy = 1
    net.backward(g);
    std::vector<double> grads(net.grads().begin(), net.grads().end());

    std::span<double> params = net.params();
    ASSERT_EQ(params.size(), grads.size());
    const double eps = 1e-6;
    // Probe a spread of parameters.
    for (size_t k = 0; k < params.size(); k += 7) {
        double orig = params[k];
        params[k] = orig + eps;
        double lp = loss();
        params[k] = orig - eps;
        double lm = loss();
        params[k] = orig;
        double numeric = (lp - lm) / (2 * eps);
        EXPECT_NEAR(grads[k], numeric, 1e-4) << "param " << k;
    }
}

TEST(Nn, ZeroGradClearsAccumulation)
{
    rl::Mlp net({2, 3, 1}, 9);
    Matrix x(1, 2, 1.0);
    net.forward(x);
    net.backward(Matrix(1, 1, 1.0));
    net.zeroGrad();
    for (double g : net.grads())
        EXPECT_DOUBLE_EQ(g, 0.0);
}

TEST(Nn, BackwardAccumulatesAcrossCalls)
{
    rl::Mlp net({2, 3, 1}, 10);
    Matrix x(1, 2, 1.0);
    net.zeroGrad();
    net.forward(x);
    net.backward(Matrix(1, 1, 1.0));
    std::vector<double> once(net.grads().begin(), net.grads().end());
    net.clearCache();
    net.forward(x);
    net.backward(Matrix(1, 1, 1.0));
    std::span<double> grads = net.grads();
    for (size_t i = 0; i < grads.size(); ++i)
        EXPECT_NEAR(grads[i], 2.0 * once[i], 1e-12);
}

TEST(Nn, CachesAccumulateUntilCleared)
{
    rl::Mlp net({2, 3, 1}, 11);
    EXPECT_EQ(net.cachedRows(), 0u);
    net.forward(Matrix(1, 2, 1.0));
    net.forward(Matrix(3, 2, 0.5));
    EXPECT_EQ(net.cachedRows(), 4u);
    net.clearCache();
    EXPECT_EQ(net.cachedRows(), 0u);
}

// ------------------------------------------------------ kernel oracle ---
//
// The naive loops the dense kernels started from, kept as their oracle:
// the blocked kernels must agree with them bit for bit (same per-output
// summation order), on shapes that are and are not multiples of the
// block, and on gradients with exact zeros (which the backward skips).

namespace {

bool
sameBits(const double* a, const double* b, size_t n)
{
    return std::memcmp(a, b, n * sizeof(double)) == 0;
}

/** y = x W^T + b over a layer slice p (weights out x in, then biases). */
Matrix
oracleForward(int in, int out, const std::vector<double>& p, const Matrix& x)
{
    const double* w = p.data();
    const double* b = w + static_cast<size_t>(out) * in;
    Matrix y(x.rows(), out);
    for (size_t r = 0; r < x.rows(); ++r) {
        for (int o = 0; o < out; ++o) {
            double acc = b[o];
            for (int i = 0; i < in; ++i)
                acc += x.at(r, i) * w[o * in + i];
            y.at(r, o) = acc;
        }
    }
    return y;
}

/** Accumulates dW, db into g; returns dx. */
Matrix
oracleBackward(int in, int out, const std::vector<double>& p,
               std::vector<double>& g, const Matrix& x,
               const Matrix& grad_out)
{
    const double* w = p.data();
    double* gw = g.data();
    double* gb = gw + static_cast<size_t>(out) * in;
    for (size_t r = 0; r < grad_out.rows(); ++r) {
        for (int o = 0; o < out; ++o) {
            double go = grad_out.at(r, o);
            if (go == 0.0)
                continue;
            gb[o] += go;
            for (int i = 0; i < in; ++i)
                gw[o * in + i] += go * x.at(r, i);
        }
    }
    Matrix dx(grad_out.rows(), in, 0.0);
    for (size_t r = 0; r < grad_out.rows(); ++r)
        for (int o = 0; o < out; ++o) {
            double go = grad_out.at(r, o);
            if (go == 0.0)
                continue;
            for (int i = 0; i < in; ++i)
                dx.at(r, i) += go * w[o * in + i];
        }
    return dx;
}

/** Gaussian fill with every third entry an exact zero. */
Matrix
randomWithZeros(size_t rows, size_t cols, common::Rng& rng)
{
    Matrix m(rows, cols);
    for (size_t k = 0; k < rows * cols; ++k)
        m.data()[k] = k % 3 == 1 ? 0.0 : rng.gauss();
    return m;
}

/**
 * The network's forward and backward built from the oracle loops, with
 * pre-activation ReLU caches. Returns the outputs and leaves the
 * gradients (same layout as Mlp::grads()) in `grads`.
 */
Matrix
oracleMlp(const std::vector<int>& dims, const std::vector<double>& params,
          const Matrix& x, const Matrix& grad_out,
          std::vector<double>& grads)
{
    std::vector<std::vector<double>> p, g;
    size_t off = 0;
    for (size_t l = 0; l + 1 < dims.size(); ++l) {
        size_t n = static_cast<size_t>(dims[l + 1]) * (dims[l] + 1);
        p.emplace_back(params.begin() + off, params.begin() + off + n);
        g.emplace_back(n, 0.0);
        off += n;
    }
    std::vector<Matrix> inputs, pre;
    inputs.reserve(p.size());
    pre.reserve(p.size());
    Matrix h = x;
    for (size_t l = 0; l < p.size(); ++l) {
        inputs.push_back(h);
        h = oracleForward(dims[l], dims[l + 1], p[l], h);
        if (l + 1 < p.size()) {
            pre.push_back(h);
            for (size_t k = 0; k < h.rows() * h.cols(); ++k)
                h.data()[k] = std::max(h.data()[k], 0.0);
        }
    }
    Matrix gy = grad_out;
    for (size_t l = p.size(); l-- > 0;) {
        gy = oracleBackward(dims[l], dims[l + 1], p[l], g[l], inputs[l],
                            gy);
        if (l > 0)
            for (size_t k = 0; k < gy.rows() * gy.cols(); ++k)
                if (pre[l - 1].data()[k] <= 0.0)
                    gy.data()[k] = 0.0;
    }
    grads.clear();
    for (const auto& gl : g)
        grads.insert(grads.end(), gl.begin(), gl.end());
    return h;
}

}  // namespace

TEST(NnKernel, LinearMatchesOracleBitwise)
{
    common::Rng rng(12);
    const int dims[] = {1, 3, 8, 13, 128};
    for (int in : dims)
        for (int out : dims)
            for (size_t rows : {size_t{1}, size_t{30}}) {
                rl::Linear layer(in, out, 0);
                std::vector<double> p(layer.size());
                for (double& v : p)
                    v = rng.gauss();
                Matrix x = randomWithZeros(rows, in, rng);
                Matrix gy = randomWithZeros(rows, out, rng);
                // Accumulate onto non-zero gradients, as across calls.
                std::vector<double> g0(layer.size());
                for (double& v : g0)
                    v = rng.gauss();

                Matrix y(rows, out);
                layer.forward(p, x.data(), rows, y.data());
                Matrix want_y = oracleForward(in, out, p, x);
                EXPECT_TRUE(sameBits(y.data(), want_y.data(), rows * out))
                    << in << "x" << out << " rows " << rows;

                std::vector<double> g = g0, want_g = g0;
                Matrix dx(rows, in, -1.0);
                layer.backward(p, g, x.data(), gy.data(), rows, dx.data());
                Matrix want_dx =
                    oracleBackward(in, out, p, want_g, x, gy);
                EXPECT_TRUE(sameBits(g.data(), want_g.data(), g.size()))
                    << in << "x" << out << " rows " << rows;
                EXPECT_TRUE(sameBits(dx.data(), want_dx.data(), rows * in))
                    << in << "x" << out << " rows " << rows;

                // Skipping dx leaves the parameter gradients unchanged.
                std::vector<double> g_nodx = g0;
                layer.backward(p, g_nodx, x.data(), gy.data(), rows,
                               nullptr);
                EXPECT_TRUE(sameBits(g_nodx.data(), g.data(), g.size()));
            }
}

TEST(NnKernel, StepwiseForwardMatchesBatchedAndOracleBitwise)
{
    // Table IV's actor shape, and one whose widths are not multiples of
    // the kernel's block.
    const std::vector<std::vector<int>> shapes = {{16, 128, 128, 128, 14},
                                                  {13, 20, 20, 20, 7}};
    for (const std::vector<int>& dims : shapes) {
        common::Rng rng(13);
        const size_t rows = 30;
        Matrix x = randomWithZeros(rows, dims.front(), rng);
        Matrix gy = randomWithZeros(rows, dims.back(), rng);

        rl::Mlp stepwise(dims, 14), batched(dims, 14);
        stepwise.clearCache();
        Matrix y_step(rows, dims.back());
        for (size_t r = 0; r < rows; ++r) {
            Matrix row(1, dims.front());
            std::copy(&x.at(r, 0), &x.at(r, 0) + dims.front(), row.data());
            Matrix out = stepwise.forward(row);
            std::copy(out.data(), out.data() + dims.back(), &y_step.at(r, 0));
        }
        ASSERT_EQ(stepwise.cachedRows(), rows);
        batched.clearCache();
        Matrix y_batch = batched.forward(x);
        EXPECT_TRUE(
            sameBits(y_step.data(), y_batch.data(), rows * dims.back()));

        stepwise.zeroGrad();
        stepwise.backward(gy);
        batched.zeroGrad();
        batched.backward(gy);
        std::span<double> gs = stepwise.grads(), gb = batched.grads();
        ASSERT_EQ(gs.size(), gb.size());
        EXPECT_TRUE(sameBits(gs.data(), gb.data(), gs.size()));

        std::vector<double> params(batched.params().begin(),
                                   batched.params().end());
        std::vector<double> want_g;
        Matrix want_y = oracleMlp(dims, params, x, gy, want_g);
        EXPECT_TRUE(
            sameBits(y_batch.data(), want_y.data(), rows * dims.back()));
        ASSERT_EQ(want_g.size(), gb.size());
        EXPECT_TRUE(sameBits(gb.data(), want_g.data(), gb.size()));
    }
}

// ------------------------------------------------------- distributions ---

TEST(Policy, SoftmaxNormalizes)
{
    std::vector<double> p = rl::softmax({1.0, 2.0, 3.0});
    double sum = p[0] + p[1] + p[2];
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_GT(p[2], p[1]);
    EXPECT_GT(p[1], p[0]);
}

TEST(Policy, SoftmaxShiftInvariant)
{
    std::vector<double> a = rl::softmax({1.0, 2.0, 3.0});
    std::vector<double> b = rl::softmax({101.0, 102.0, 103.0});
    for (int i = 0; i < 3; ++i)
        EXPECT_NEAR(a[i], b[i], 1e-12);
}

TEST(Policy, LogProbConsistentWithSoftmax)
{
    std::vector<double> logits = {0.3, -1.2, 2.0, 0.0};
    std::vector<double> p = rl::softmax(logits);
    for (int a = 0; a < 4; ++a)
        EXPECT_NEAR(rl::logProb(logits, a), std::log(p[a]), 1e-12);
}

TEST(Policy, EntropyBounds)
{
    // Uniform logits maximize entropy at log(n); peaked logits approach 0.
    EXPECT_NEAR(rl::entropy({1.0, 1.0, 1.0, 1.0}), std::log(4.0), 1e-12);
    EXPECT_LT(rl::entropy({100.0, 0.0, 0.0, 0.0}), 1e-6);
}

TEST(Policy, SampleCategoricalFollowsDistribution)
{
    common::Rng rng(11);
    std::vector<double> logits = {0.0, std::log(3.0)};  // probs 1/4, 3/4
    int ones = 0;
    for (int i = 0; i < 8000; ++i)
        ones += rl::sampleCategorical(logits, rng);
    EXPECT_NEAR(ones / 8000.0, 0.75, 0.02);
}

TEST(Policy, PolicyGradMatchesFiniteDifference)
{
    // d(-coeff*logp(a))/dlogits vs numeric.
    std::vector<double> logits = {0.5, -0.3, 1.1};
    const int action = 1;
    const double coeff = 0.7;
    std::vector<double> g = rl::policyGradLogits(logits, action, coeff);
    const double eps = 1e-6;
    for (int i = 0; i < 3; ++i) {
        std::vector<double> lp = logits, lm = logits;
        lp[i] += eps;
        lm[i] -= eps;
        double numeric = (-coeff * rl::logProb(lp, action) -
                          -coeff * rl::logProb(lm, action)) /
                         (2 * eps);
        EXPECT_NEAR(g[i], numeric, 1e-6);
    }
}

TEST(Policy, EntropyGradMatchesFiniteDifference)
{
    std::vector<double> logits = {0.2, 0.9, -0.4};
    const double coeff = 0.3;
    std::vector<double> g = rl::entropyGradLogits(logits, coeff);
    const double eps = 1e-6;
    for (int i = 0; i < 3; ++i) {
        std::vector<double> lp = logits, lm = logits;
        lp[i] += eps;
        lm[i] -= eps;
        double numeric =
            (-coeff * rl::entropy(lp) - -coeff * rl::entropy(lm)) /
            (2 * eps);
        EXPECT_NEAR(g[i], numeric, 1e-6);
    }
}

// ----------------------------------------------------------- optimizers --

TEST(Optim, RmsPropMinimizesQuadratic)
{
    double x = 5.0, g = 0.0;
    rl::RmsProp opt({&x, 1}, {&g, 1}, 0.05);
    for (int i = 0; i < 500; ++i) {
        g = 2.0 * x;  // d/dx x^2
        opt.step();
    }
    EXPECT_NEAR(x, 0.0, 0.05);
}

TEST(Optim, AdamMinimizesQuadratic)
{
    double x = -4.0, g = 0.0;
    rl::Adam opt({&x, 1}, {&g, 1}, 0.05);
    for (int i = 0; i < 800; ++i) {
        g = 2.0 * x;
        opt.step();
    }
    EXPECT_NEAR(x, 0.0, 0.05);
}

TEST(Optim, ClipGradNormScalesDown)
{
    double g[] = {3.0, 4.0};  // norm 5
    double p[] = {0.0, 0.0};
    rl::RmsProp opt(p, g);
    opt.clipGradNorm(1.0);
    EXPECT_NEAR(std::sqrt(g[0] * g[0] + g[1] * g[1]), 1.0, 1e-12);
    EXPECT_NEAR(g[0] / g[1], 3.0 / 4.0, 1e-12);  // direction preserved
}

TEST(Optim, ClipGradNormNoopBelowThreshold)
{
    double g[] = {0.3, 0.4};
    double p[] = {0.0, 0.0};
    rl::RmsProp opt(p, g);
    opt.clipGradNorm(1.0);
    EXPECT_DOUBLE_EQ(g[0], 0.3);
    EXPECT_DOUBLE_EQ(g[1], 0.4);
}

// ------------------------------------------------------------ env/agent --

TEST(MappingEnv, FeatureDimAndObservation)
{
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 16.0,
                              10, 20);
    rl::MappingEnv env(p->evaluator());
    EXPECT_EQ(env.featureDim(), 3 * 4 + 4);
    EXPECT_EQ(env.steps(), 10);
    EXPECT_EQ(env.accelActions(), 4);
    env.reset();
    std::vector<double> f = env.observe(0);
    EXPECT_EQ(static_cast<int>(f.size()), env.featureDim());
    for (double v : f)
        EXPECT_TRUE(std::isfinite(v));
}

TEST(MappingEnv, ActFillsMappingAndLoads)
{
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 16.0,
                              6, 21);
    rl::MappingEnv env(p->evaluator());
    env.reset();
    sched::Mapping m;
    m.accelSel.assign(6, 0);
    m.priority.assign(6, 0.0);
    for (int j = 0; j < 6; ++j)
        env.act(j, j % 4, j % rl::MappingEnv::kPriorityBuckets, m);
    for (int j = 0; j < 6; ++j) {
        EXPECT_EQ(m.accelSel[j], j % 4);
        EXPECT_GE(m.priority[j], 0.0);
        EXPECT_LT(m.priority[j], 1.0);
    }
}

TEST(ActorCritic, RolloutChargesOneSample)
{
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 16.0,
                              8, 22);
    opt::SearchOptions opts;
    opts.sampleBudget = 3;
    opt::SearchRecorder rec(p->evaluator(), opts);
    rl::ActorCritic ac(p->evaluator(), 5, /*hidden=*/16);
    common::Rng rng(5);
    rl::Episode ep = ac.rollout(rng, rec);
    EXPECT_EQ(rec.used(), 1);
    EXPECT_EQ(static_cast<int>(ep.steps.size()), 8);
    EXPECT_GT(ep.fitness, 0.0);
    EXPECT_GT(ep.reward, 0.0);
    EXPECT_LE(ep.reward, 1.0 + 1e-9);  // normalized by platform peak
}

TEST(ActorCritic, DiscountedReturnsShape)
{
    std::vector<double> r = rl::ActorCritic::discountedReturns(4, 1.0, 0.5);
    ASSERT_EQ(r.size(), 4u);
    EXPECT_DOUBLE_EQ(r[3], 1.0);
    EXPECT_DOUBLE_EQ(r[2], 0.5);
    EXPECT_DOUBLE_EQ(r[1], 0.25);
    EXPECT_DOUBLE_EQ(r[0], 0.125);
}

TEST(A2c, RunsWithinBudgetAndReturnsValidMapping)
{
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 8.0,
                              10, 23);
    rl::A2cConfig cfg;
    cfg.hidden = 16;  // small net keeps the test fast
    rl::A2c agent(3, cfg);
    opt::SearchOptions opts;
    opts.sampleBudget = 60;
    opt::SearchResult r = agent.search(p->evaluator(), opts);
    EXPECT_LE(r.samplesUsed, 60);
    EXPECT_GT(r.samplesUsed, 0);
    EXPECT_GT(r.bestFitness, 0.0);
    EXPECT_EQ(r.best.size(), 10);
    for (int g : r.best.accelSel) {
        EXPECT_GE(g, 0);
        EXPECT_LT(g, 4);
    }
}

TEST(Ppo2, RunsWithinBudgetAndReturnsValidMapping)
{
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 8.0,
                              10, 24);
    rl::Ppo2Config cfg;
    cfg.hidden = 16;
    cfg.episodesPerBatch = 4;
    cfg.epochsPerBatch = 2;
    rl::Ppo2 agent(4, cfg);
    opt::SearchOptions opts;
    opts.sampleBudget = 60;
    opt::SearchResult r = agent.search(p->evaluator(), opts);
    EXPECT_LE(r.samplesUsed, 60);
    EXPECT_GT(r.bestFitness, 0.0);
    EXPECT_EQ(r.best.size(), 10);
}

TEST(A2c, PolicyImprovesOverEpisodes)
{
    // The learning signal: the mean fitness of LATE episodes must beat the
    // mean of EARLY ones (the policy shifts probability mass toward good
    // mappings) on a problem with real headroom.
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 4.0,
                              12, 25);
    rl::A2cConfig cfg;
    cfg.hidden = 32;
    rl::A2c agent(6, cfg);
    opt::SearchOptions opts;
    opts.sampleBudget = 500;
    opts.recordSamples = true;
    opt::SearchResult r = agent.search(p->evaluator(), opts);
    ASSERT_EQ(r.sampledFitness.size(), 500u);
    double early = 0.0, late = 0.0;
    for (int i = 0; i < 100; ++i) {
        early += r.sampledFitness[i];
        late += r.sampledFitness[400 + i];
    }
    EXPECT_GT(late, early);
}

// -------------------------------------------------------- attribution ---

TEST(RlProfile, A2cSearchTimeIsAttributed)
{
    // At profile level, the time of an A2C search is nearly all inside
    // its rl.rollout and rl.update scopes: under 10% is left as
    // unattributed opt.search self time (network set-up and the loop).
    const obs::MetricsLevel saved = obs::metricsLevel();
    obs::setMetricsLevel(obs::MetricsLevel::Profile);
    obs::Profiler::global().reset();
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 16.0,
                              12, 1);
    rl::A2c agent(33);  // Table IV width
    opt::SearchOptions opts;
    opts.sampleBudget = 60;
    agent.search(p->evaluator(), opts);
    std::vector<obs::ProfileRow> rows = obs::Profiler::global().rows();
    obs::Tracer::global().drain();  // don't leak spans into later tests
    obs::Profiler::global().reset();
    obs::setMetricsLevel(saved);

    auto find = [&](const std::string& path) -> const obs::ProfileRow* {
        for (const obs::ProfileRow& r : rows)
            if (r.path == path)
                return &r;
        return nullptr;
    };
    const obs::ProfileRow* search = find("opt.search");
    ASSERT_NE(search, nullptr);
    ASSERT_GT(search->totalSeconds, 0.0);
    const obs::ProfileRow* rollout = find("opt.search/rl.rollout");
    const obs::ProfileRow* update = find("opt.search/rl.update");
    const obs::ProfileRow* step =
        find("opt.search/rl.update/rl.optim.step");
    ASSERT_NE(rollout, nullptr);
    ASSERT_NE(update, nullptr);
    ASSERT_NE(step, nullptr);
    EXPECT_EQ(rollout->count, 60);
    EXPECT_EQ(update->count, 60);
    EXPECT_EQ(step->count, 120);  // actor and critic
    EXPECT_LT(search->selfSeconds / search->totalSeconds, 0.10);
}

// ------------------------------------------------------------- golden ---
//
// Fixed-seed A2C and PPO2 results pinned bit for bit: the best mapping
// (its exact %.17g text), the best fitness's bit pattern and an FNV-1a
// hash over the bit patterns of every sampled fitness. Any change to the
// dense kernels, the optimizers or the order of their arithmetic that
// moves a single bit of a logit far enough to flip a sampled action shows
// here. Hidden 128 is Table IV's width; hidden 20 is not a multiple of 8
// and so exercises the tail of a blocked kernel.

namespace {

struct GoldenRun {
    std::string best;
    uint64_t bestBits;
    uint64_t sampledHash;
};

uint64_t
bitsOf(double v)
{
    uint64_t u;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

template <typename Agent>
GoldenRun
goldenRun(Agent&& agent)
{
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 16.0,
                              12, 1);
    opt::SearchOptions opts;
    opts.sampleBudget = 40;
    opts.recordSamples = true;
    opt::SearchResult r = agent.search(p->evaluator(), opts);
    EXPECT_EQ(r.sampledFitness.size(), 40u);
    uint64_t h = 1469598103934665603ull;
    for (double f : r.sampledFitness) {
        h ^= bitsOf(f);
        h *= 1099511628211ull;
    }
    return {r.best.toText(), bitsOf(r.bestFitness), h};
}

void
expectGolden(const GoldenRun& got, const GoldenRun& want)
{
    EXPECT_EQ(got.best, want.best);
    EXPECT_EQ(got.bestBits, want.bestBits) << std::hex << got.bestBits;
    EXPECT_EQ(got.sampledHash, want.sampledHash)
        << std::hex << got.sampledHash;
}

rl::A2c
goldenA2c(int hidden)
{
    rl::A2cConfig cfg;
    cfg.hidden = hidden;
    return rl::A2c(31, cfg);
}

rl::Ppo2
goldenPpo2(int hidden)
{
    rl::Ppo2Config cfg;
    cfg.hidden = hidden;
    return rl::Ppo2(32, cfg);
}

}  // namespace

TEST(RlGolden, A2cHidden128)
{
    expectGolden(goldenRun(goldenA2c(128)),
        {"12 2 2 1 0 1 0 2 1 1 1 0 2 0.75 0.25 0.45000000000000001 "
         "0.14999999999999999 0.14999999999999999 "
         "0.84999999999999998 0.75 0.75 0.75 0.25 "
         "0.14999999999999999 0.75",
         0x40735e1fe6353c62ull, 0xfa869341d57057eeull});
}

TEST(RlGolden, A2cHidden20)
{
    expectGolden(goldenRun(goldenA2c(20)),
        {"12 3 1 0 2 0 0 1 0 3 2 2 3 0.55000000000000004 "
         "0.050000000000000003 0.55000000000000004 "
         "0.55000000000000004 0.34999999999999998 "
         "0.84999999999999998 0.55000000000000004 "
         "0.55000000000000004 0.25 0.34999999999999998 "
         "0.34999999999999998 0.55000000000000004",
         0x408329aa159905c4ull, 0xde985153d2e57c8bull});
}

TEST(RlGolden, Ppo2Hidden128)
{
    expectGolden(goldenRun(goldenPpo2(128)),
        {"12 0 1 3 0 1 3 1 0 1 2 2 2 0.050000000000000003 "
         "0.65000000000000002 0.14999999999999999 "
         "0.65000000000000002 0.84999999999999998 0.25 "
         "0.55000000000000004 0.75 0.050000000000000003 "
         "0.14999999999999999 0.94999999999999996 "
         "0.55000000000000004",
         0x40781569203489b7ull, 0x4aaeaea9c804c8f6ull});
}

TEST(RlGolden, Ppo2Hidden20)
{
    expectGolden(goldenRun(goldenPpo2(20)),
        {"12 3 2 2 0 1 0 1 0 2 0 0 3 0.34999999999999998 "
         "0.65000000000000002 0.65000000000000002 "
         "0.94999999999999996 0.25 0.84999999999999998 "
         "0.34999999999999998 0.75 0.75 0.34999999999999998 "
         "0.94999999999999996 0.75",
         0x40772ea237a2fcfeull, 0x36392c637083e45dull});
}
