// serve-zipf: mapping requests replayed into serve::MappingService.
//
// Requests draw a Zipf-distributed rank over a fixed universe of
// problems (task x setting x bandwidth x group size, with a fixed job
// draw per problem), so the popular head hits the store
// and the tail misses, writes back and evicts. Two phases share one
// request sequence, each on a fresh service:
//
//   open loop    arrivals on a seeded Poisson schedule at a fixed rate;
//                latency runs from each request's due time to the moment
//                its future is seen resolved;
//   closed loop  one client per worker lane, each sending its next
//                request when the previous one resolves; the completed
//                rate is the capacity.
//
// Every served mapping is re-scored through a reference
// sched::MappingEvaluator built from the request's spec.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/runner.h"
#include "bench.h"
#include "dnn/workload.h"
#include "layers.h"
#include "m3e/problem.h"
#include "serve/fingerprint.h"
#include "serve/mapping_store.h"
#include "serve/service.h"

namespace perfbench {

using namespace magma;

namespace {

/** Universe item `u`: a fixed grid position and a fixed job draw. */
api::ProblemSpec
itemSpec(int u, uint64_t workload_seed)
{
    static const dnn::TaskType kTasks[] = {
        dnn::TaskType::Vision, dnn::TaskType::Language,
        dnn::TaskType::Recommendation, dnn::TaskType::Mix};
    static const accel::Setting kSettings[] = {
        accel::Setting::S1, accel::Setting::S2, accel::Setting::S3,
        accel::Setting::S4};
    static const double kBwGbps[] = {1.0, 16.0, 256.0};
    api::ProblemSpec spec;
    spec.task = kTasks[u % 4];
    spec.setting = kSettings[(u / 4) % 4];
    spec.systemBwGbps = kBwGbps[(u / 16) % 3];
    spec.groupSize = 10 + (u * 37) % 51;
    spec.workloadSeed =
        streamSeed(workload_seed, 1000 + static_cast<uint64_t>(u));
    return spec;
}

/** One entry of the request sequence. */
struct Draw {
    int item = 0;
    uint64_t searchSeed = 0;
};

struct Setup {
    uint64_t workloadSeed = 1;
    int universe = 0;
    int64_t budget = 0;
    double deadlineSeconds = 0.0;
    serve::ServiceConfig cfg;

    serve::MapRequest request(const Draw& d) const
    {
        serve::MapRequest req;
        req.problem = itemSpec(d.item, workloadSeed);
        req.search.sampleBudget = budget;
        req.search.seed = d.searchSeed;
        req.deadlineSeconds = deadlineSeconds;
        return req;
    }
};

/** `n` Zipf(s) draws over `universe` ranks, rank 0 the most popular. */
std::vector<Draw>
drawSequence(uint64_t seed, int universe, double s, size_t n)
{
    std::vector<double> cdf(universe);
    double acc = 0.0;
    for (int r = 0; r < universe; ++r)
        cdf[r] = acc += std::pow(static_cast<double>(r + 1), -s);
    std::mt19937_64 rng(streamSeed(seed, 1));
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::vector<Draw> seq(n);
    for (Draw& d : seq) {
        double x = unit(rng) * acc;
        d.item = static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(), x) -
                                  cdf.begin());
        d.item = std::min(d.item, universe - 1);
        d.searchSeed = rng();
    }
    return seq;
}

/** Poisson arrival offsets (seconds) at `rate` per second within `span`. */
std::vector<double>
arrivalSchedule(uint64_t seed, double rate, double span)
{
    std::mt19937_64 rng(streamSeed(seed, 2));
    std::exponential_distribution<double> gap(rate);
    std::vector<double> due;
    for (double t = gap(rng); t < span; t += gap(rng))
        due.push_back(t);
    return due;
}

/** One request of a loop, as seen from outside the service. */
struct Outcome {
    Draw draw;
    Clock::time_point due{};
    Clock::time_point submitted{};
    Clock::time_point submitReturned{};
    Clock::time_point resolved{};
    bool threw = false;
    serve::MapResponse resp;

    bool served() const { return !threw && !resp.shed; }
    /** Served by a search of its own (not shed, not a coalesced copy). */
    bool searched() const { return served() && !resp.coalesced; }
};

struct LoopResult {
    std::vector<Outcome> outcomes;
    serve::ServiceStats stats;
    int64_t storeSize = 0;
    Clock::time_point end{};  ///< every future resolved
    double seconds = 0.0;     ///< closed loop: measured span
};

/** Resolve a future into an Outcome, stamping when it was seen ready. */
void
collect(std::future<serve::MapResponse>& f, Outcome& o)
{
    o.resolved = Clock::now();
    try {
        o.resp = f.get();
    } catch (const std::exception&) {
        o.threw = true;
    }
}

/**
 * Open loop: submit `seq[i]` at `due[i]` from this thread; a collector
 * thread polls the outstanding futures and stamps each as it resolves.
 */
LoopResult
openLoop(const Setup& setup, const std::vector<Draw>& seq,
         const std::vector<double>& due, double poll_seconds)
{
    LoopResult out;
    out.outcomes.resize(due.size());
    serve::MappingService svc(setup.cfg);

    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::pair<size_t, std::future<serve::MapResponse>>> handoff;
    bool done = false;
    std::thread collector([&] {
        std::deque<std::pair<size_t, std::future<serve::MapResponse>>>
            pending;
        for (;;) {
            {
                std::unique_lock<std::mutex> lk(mu);
                if (pending.empty())
                    cv.wait(lk, [&] { return !handoff.empty() || done; });
                for (auto& h : handoff)
                    pending.push_back(std::move(h));
                handoff.clear();
                if (pending.empty() && done)
                    return;
            }
            if (pending.empty())
                continue;
            pending.front().second.wait_for(
                std::chrono::duration<double>(poll_seconds));
            for (auto it = pending.begin(); it != pending.end();) {
                if (it->second.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready) {
                    collect(it->second, out.outcomes[it->first]);
                    it = pending.erase(it);
                } else {
                    ++it;
                }
            }
        }
    });
    auto finishCollector = [&] {
        {
            std::lock_guard<std::mutex> lk(mu);
            done = true;
        }
        cv.notify_one();
        collector.join();
    };

    try {
        const auto start = Clock::now() + std::chrono::milliseconds(20);
        for (size_t i = 0; i < due.size(); ++i) {
            Outcome& o = out.outcomes[i];
            o.draw = seq[i];
            o.due = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(due[i]));
            serve::MapRequest req = setup.request(o.draw);
            std::this_thread::sleep_until(o.due);
            o.submitted = Clock::now();
            std::future<serve::MapResponse> f = svc.submit(std::move(req));
            o.submitReturned = Clock::now();
            {
                std::lock_guard<std::mutex> lk(mu);
                handoff.emplace_back(i, std::move(f));
            }
            cv.notify_one();
        }
    } catch (...) {
        finishCollector();
        throw;
    }
    finishCollector();
    out.end = Clock::now();
    svc.stop();
    out.stats = svc.stats();
    out.storeSize = svc.store().size();
    return out;
}

/** Closed loop: one client per worker lane, for `seconds`. */
LoopResult
closedLoop(const Setup& setup, const std::vector<Draw>& seq, double seconds)
{
    LoopResult out;
    serve::MappingService svc(setup.cfg);
    const int clients = setup.cfg.workers;
    std::atomic<size_t> next{0};
    std::vector<std::vector<Outcome>> per_client(clients);
    const auto t0 = Clock::now();
    const auto stop_at =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c)
        threads.emplace_back([&, c] {
            while (Clock::now() < stop_at) {
                Outcome o;
                o.draw = seq[next.fetch_add(1) % seq.size()];
                o.submitted = o.due = Clock::now();
                std::future<serve::MapResponse> f =
                    svc.submit(setup.request(o.draw));
                o.submitReturned = Clock::now();
                collect(f, o);
                per_client[c].push_back(std::move(o));
            }
        });
    for (std::thread& t : threads)
        t.join();
    out.end = Clock::now();
    out.seconds = secondsBetween(t0, out.end);
    svc.stop();
    out.stats = svc.stats();
    out.storeSize = svc.store().size();
    for (auto& v : per_client)
        for (Outcome& o : v)
            out.outcomes.push_back(std::move(o));
    return out;
}

/** Reference problems per universe item, built on first use. */
class References {
  public:
    explicit References(uint64_t workload_seed) : seed_(workload_seed) {}
    m3e::Problem& at(int item)
    {
        std::unique_ptr<m3e::Problem>& p = problems_[item];
        if (!p)
            p = api::buildProblem(itemSpec(item, seed_));
        return *p;
    }

  private:
    uint64_t seed_;
    std::map<int, std::unique_ptr<m3e::Problem>> problems_;
};

/**
 * Check a loop's outcomes: the service's counts add up, and every served
 * mapping re-scores bitwise on the reference evaluator. Returns the
 * reference GFLOP/s of each served response (0 for the others) and
 * counts shed, failed and wrong responses as failed items.
 */
std::vector<double>
checkLoop(const LoopResult& loop, References& refs, const std::string& tag,
          Report& rep)
{
    const serve::ServiceStats& s = loop.stats;
    const auto n = static_cast<int64_t>(loop.outcomes.size());
    rep.addAttempted(n);
    rep.check(s.submitted == n && s.served + s.shed + s.failed == n,
              tag + ": served + shed + failed == submitted (" +
                  std::to_string(s.served) + " + " + std::to_string(s.shed) +
                  " + " + std::to_string(s.failed) + " vs " +
                  std::to_string(n) + ")");
    std::vector<double> gflops(loop.outcomes.size(), 0.0);
    int64_t wrong = 0;
    int64_t missing = 0;
    for (size_t i = 0; i < loop.outcomes.size(); ++i) {
        const Outcome& o = loop.outcomes[i];
        if (!o.served()) {
            ++missing;
            continue;
        }
        const sched::MappingEvaluator& ref = refs.at(o.draw.item).evaluator();
        const sched::Mapping& m = o.resp.best;
        const auto g = static_cast<size_t>(ref.groupSize());
        if (m.accelSel.size() != g || m.priority.size() != g) {
            ++wrong;
            continue;
        }
        wrong += !sameBits(ref.fitness(m), o.resp.bestFitness);
        gflops[i] = ref.throughputGflops(ref.evaluate(m).makespanSeconds);
    }
    rep.addFailed(missing);
    rep.check(wrong == 0,
              tag + ": every served mapping re-scores bitwise (" +
                  std::to_string(wrong) + " differ)",
              wrong);
    return gflops;
}

double
ms(Clock::time_point a, Clock::time_point b)
{
    return secondsBetween(a, b) * 1e3;
}

/** Median over requests searched of samples per second of service. */
double
samplesPerSecond(const LoopResult& loop)
{
    std::vector<double> rate;
    for (const Outcome& o : loop.outcomes)
        if (o.searched())
            rate.push_back(static_cast<double>(o.resp.samplesUsed) /
                           o.resp.serviceSeconds);
    return median(rate);
}

/** Open-loop latencies from due time; unserved requests run to the end. */
std::vector<double>
latenciesMs(const LoopResult& loop)
{
    std::vector<double> v;
    for (const Outcome& o : loop.outcomes)
        v.push_back(ms(o.due, o.served() ? o.resolved : loop.end));
    return v;
}

/** p99 generator lateness; marks the run invalid past the limit. */
double
generatorLateness(const LoopResult& loop, double limit_ms, Report& rep)
{
    std::vector<double> late;
    for (const Outcome& o : loop.outcomes)
        late.push_back(ms(o.due, o.submitted));
    double p99 = quantile(late, 0.99);
    if (p99 > limit_ms)
        rep.invalidate("open-loop generator fell behind: lateness p99 " +
                       std::to_string(p99) + " ms > " +
                       std::to_string(limit_ms) + " ms");
    return p99;
}

}  // namespace

Report
runServe(const RunConfig& rc)
{
    const Params& p = rc.params;
    Setup setup;
    const auto ws = static_cast<uint64_t>(p.integer("workload_seed"));
    setup.workloadSeed = ws;
    setup.universe = p.integer("universe");
    setup.budget = p.integer("budget");
    setup.deadlineSeconds = p.num("deadline_s");
    setup.cfg.workers = p.integer("workers");
    setup.cfg.threadsPerRequest = p.integer("lanes");
    setup.cfg.storeCapacity = p.integer("store_capacity");
    setup.cfg.coalesce = true;
    setup.cfg.maxQueueDepth = p.integer("max_queue");
    const double rate = p.num("rate_rps");
    const double poll = p.num("poll_us") * 1e-6;
    const double late_limit_ms = p.num("gen_late_limit_ms");
    Report rep;

    // Set-up: specs to a ready evaluator, plus a started service. Timed
    // in rounds before, between and after the loops, so the set-ups span
    // the run.
    std::vector<double> setup_s;
    auto setupRound = [&] {
        serve::ServiceConfig cfg = setup.cfg;
        cfg.autoStart = false;
        timeSetups(p.integer("setup_builds"), setup_s, [&](int k) {
            auto problem = api::buildProblem(itemSpec(k % setup.universe, ws));
            auto svc = std::make_unique<serve::MappingService>(cfg);
            svc->start();
            return std::make_pair(std::move(problem), std::move(svc));
        });
    };
    if (!rc.trace)
        setupRound();

    const double open_share = p.num("open_share");
    const std::vector<double> due =
        arrivalSchedule(rc.seed, rate, open_share * rc.seconds);
    const std::vector<Draw> seq =
        drawSequence(rc.seed, setup.universe, p.num("zipf_s"),
                     due.size() + static_cast<size_t>(4 * rate * rc.seconds));
    References refs(ws);

    LoopResult open = openLoop(setup, seq, due, poll);
    std::vector<double> gflops = checkLoop(open, refs, "open loop", rep);
    const double late_p99 = generatorLateness(open, late_limit_ms, rep);

    if (!rc.trace) {
        setupRound();
        LoopResult closed =
            closedLoop(setup, seq, (1.0 - open_share) * rc.seconds);
        setupRound();
        checkLoop(closed, refs, "closed loop", rep);
        std::vector<double> lat = latenciesMs(open);
        // Geometric mean: per-request throughput spans orders of
        // magnitude across the universe (1 to 256 GB/s, S1 to S4), and an
        // arithmetic mean would follow the few largest tail requests.
        double log_sum = 0.0;
        int64_t served = 0;
        for (size_t i = 0; i < open.outcomes.size(); ++i)
            if (gflops[i] > 0.0) {  // served, with a well-formed mapping
                log_sum += std::log(gflops[i]);
                ++served;
            }
        int64_t completed = 0;
        for (const Outcome& o : closed.outcomes)
            completed += o.served();

        rep.metric("setup_s", setupSeconds(setup_s), "s");
        rep.metric("samples_per_s", samplesPerSecond(open), "1/s");
        rep.metric("mapping_gflops",
                   served ? std::exp(log_sum / static_cast<double>(served))
                          : 0.0,
                   "GFLOP/s");
        rep.metric("peak_rss_mb", peakRssMb(), "MB");
        rep.metric("latency_p50_ms", quantile(lat, 0.50), "ms");
        rep.metric("latency_p99_ms", quantile(lat, tailQuantile(lat.size())),
                   "ms");
        rep.metric("capacity_rps",
                   static_cast<double>(completed) / closed.seconds, "req/s");
        rep.info("open_loop_requests", static_cast<double>(lat.size()),
                 "count");
        rep.info("latency_tail_quantile", tailQuantile(lat.size()), "ratio");
        rep.info("closed_loop_requests",
                 static_cast<double>(closed.outcomes.size()), "count");
        rep.info("serve.gen_late_p99_ms", late_p99, "ms");
        return rep;
    }

    // Traced run: the open loop's requests feed the per-layer numbers,
    // then standalone probes.
    std::vector<double> submit_us, wait_ms, service_ms, lat_ms, gaps;
    double samples = 0.0, generations = 0.0;
    int64_t searched = 0, warm = 0, served = 0, coalesced = 0;
    std::map<int, std::vector<const Outcome*>> by_item;
    for (const Outcome& o : open.outcomes) {
        submit_us.push_back(secondsBetween(o.submitted, o.submitReturned) *
                            1e6);
        if (!o.served())
            continue;
        ++served;
        coalesced += o.resp.coalesced;
        if (!o.resp.coalesced) {
            ++searched;
            warm += o.resp.warmStart;
            samples += static_cast<double>(o.resp.samplesUsed);
            const int group = itemSpec(o.draw.item, ws).groupSize;
            // MappingService's population rule: group size, 8 to 100.
            generations += static_cast<double>(o.resp.samplesUsed) /
                           std::clamp(group, 8, 100);
            wait_ms.push_back(o.resp.waitSeconds * 1e3);
            service_ms.push_back(o.resp.serviceSeconds * 1e3);
            const double latency = ms(o.due, o.resolved);
            lat_ms.push_back(latency);
            gaps.push_back(latency - ms(o.due, o.submitReturned) -
                           (o.resp.waitSeconds + o.resp.serviceSeconds) * 1e3);
            by_item[o.draw.item].push_back(&o);
        }
    }

    // Fingerprints and problem construction over the requests' specs.
    const size_t probe_n = std::min<size_t>(open.outcomes.size(), 200);
    std::vector<api::ProblemSpec> specs;
    std::vector<double> fp_us;
    std::vector<serve::Fingerprint> fps;
    for (size_t i = 0; i < probe_n; ++i) {
        api::ProblemSpec spec = itemSpec(open.outcomes[i].draw.item, ws);
        dnn::WorkloadGenerator gen(spec.workloadSeed);
        dnn::JobGroup group = gen.makeGroup(spec.task, spec.groupSize);
        auto t0 = Clock::now();
        serve::Fingerprint fp = serve::fingerprintOf(group, spec);
        fp_us.push_back(secondsBetween(t0, Clock::now()) * 1e6);
        fps.push_back(std::move(fp));
        if (i < 40)
            specs.push_back(spec);
    }
    const ProblemProbe problems = probeProblems(specs, 3);

    // Store operations on a standalone in-memory store filled to the
    // run's final size with the run's own results.
    serve::MappingStore store(setup.cfg.storeCapacity);
    std::vector<double> lookup_us, update_us;
    for (const auto& [item, outs] : by_item) {
        if (store.size() >= open.storeSize)
            break;
        const Outcome& o = *outs.front();
        m3e::Problem& prob = refs.at(item);
        store.update(serve::fingerprintOf(prob.group(), itemSpec(item, ws)),
                     prob.group().task, o.resp.best, prob.group(),
                     o.resp.bestFitness, o.resp.samplesUsed);
    }
    for (size_t i = 0; i < fps.size(); ++i) {
        auto t0 = Clock::now();
        auto hit = store.lookup(fps[i]);
        lookup_us.push_back(secondsBetween(t0, Clock::now()) * 1e6);
        const Outcome& o = open.outcomes[i];
        if (!o.served())
            continue;
        m3e::Problem& prob = refs.at(o.draw.item);
        t0 = Clock::now();
        store.update(fps[i], prob.group().task, o.resp.best, prob.group(),
                     o.resp.bestFitness, o.resp.samplesUsed);
        update_us.push_back(secondsBetween(t0, Clock::now()) * 1e6);
    }

    // Simulation cost of the served mappings, per problem.
    double sim_seconds = 0.0;
    double sim_count = 0.0;
    for (const auto& [item, outs] : by_item) {
        std::vector<sched::Mapping> cands;
        std::vector<double> expected;
        for (const Outcome* o : outs) {
            cands.push_back(o->resp.best);
            expected.push_back(o->resp.bestFitness);
        }
        SimulateReplay r =
            replaySimulate(refs.at(item).evaluator(), cands, expected, 5, rep);
        sim_seconds += r.totalSeconds;
        sim_count += static_cast<double>(cands.size());
    }
    const double simulate_ns = sim_seconds * 1e9 / sim_count;
    const double samples_per_req = samples / static_cast<double>(searched);
    const double search_s = median(service_ms) * 1e-3;
    const double sim_share = simulate_ns * 1e-9 * samples_per_req / search_s;

    reportProblemProbe(problems, rep);
    rep.metric("sched.simulate_ns", simulate_ns, "ns");
    rep.metric("sched.simulate_share", sim_share, "ratio");
    rep.metric("opt.search_s", search_s, "s");
    rep.metric("opt.self_share",
               1.0 - sim_share - problems.buildMs * 1e-3 / search_s, "ratio");
    rep.metric("opt.generations", generations / static_cast<double>(searched),
               "count");
    rep.metric("serve.submit_us", median(submit_us), "us");
    rep.metric("serve.fingerprint_us", median(fp_us), "us");
    rep.metric("serve.wait_ms_p50", quantile(wait_ms, 0.50), "ms");
    rep.metric("serve.wait_ms_p99", quantile(wait_ms, 0.99), "ms");
    rep.metric("serve.service_ms_p50", quantile(service_ms, 0.50), "ms");
    rep.metric("serve.service_ms_p99", quantile(service_ms, 0.99), "ms");
    rep.metric("serve.store_lookup_us", median(lookup_us), "us");
    rep.metric("serve.store_update_us", median(update_us), "us");
    rep.metric("serve.warm_frac",
               static_cast<double>(warm) / static_cast<double>(searched),
               "ratio");
    rep.metric("serve.coalesced_frac",
               static_cast<double>(coalesced) / static_cast<double>(served),
               "ratio");
    rep.metric("serve.samples_per_req", samples_per_req, "count");
    rep.metric("serve.gen_late_p99_ms", late_p99, "ms");
    // Directly timed per request: generator lateness, submit, and the
    // service's own wait and service clocks. The rest is promise hand-off
    // and the collector's polling delay.
    rep.metric("trace.unattributed_share", sum(gaps) / sum(lat_ms), "ratio");
    return rep;
}

}  // namespace perfbench
