// Per-layer probes for the traced runs. Each probe times calls into one
// module's public functions from outside the library, on the inputs the
// workload itself used.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "api/spec.h"
#include "sched/evaluator.h"
#include "sched/mapping.h"

namespace perfbench {

class Report;

/** Problem-construction layers: api, cost, sched.analyze. */
struct ProblemProbe {
    double buildMs = 0.0;       ///< api::buildProblem, median
    double costAnalyzeNs = 0.0; ///< cost::CostModel::analyze per pair
    double costQueries = 0.0;   ///< JobAnalyzer::lastUniqueQueries
    double analyzeMs = 0.0;     ///< sched::JobAnalyzer::analyze, median
};

/** Probe each spec `reps` times; medians per spec, then means over specs. */
ProblemProbe probeProblems(const std::vector<magma::api::ProblemSpec>& specs,
                           int reps);

/** Serial replay of candidates through sched::FlatEvaluator::fitness. */
struct SimulateReplay {
    double perCandidateNs = 0.0;
    double totalSeconds = 0.0;
};

/**
 * Score `cands` serially with one scratch, taking the median of `reps`
 * passes. Checks each score against `expected` bitwise.
 */
SimulateReplay replaySimulate(const magma::sched::MappingEvaluator& eval,
                              const std::vector<magma::sched::Mapping>& cands,
                              const std::vector<double>& expected, int reps,
                              Report& rep);

/** exec::EvalEngine::evaluateBatch replay in fixed-size batches. */
struct BatchReplay {
    double perBatchUs = 0.0;  ///< median batch time
    double totalSeconds = 0.0;
};

BatchReplay replayBatches(const magma::sched::MappingEvaluator& eval,
                          const std::vector<magma::sched::Mapping>& cands,
                          const std::vector<double>& expected, int batch,
                          int lanes, Report& rep);

/** Median exec::ThreadPool::parallelFor(lanes, no-op) round trip, in us. */
double poolRoundtripUs(int lanes, int reps);

/** Set the problem-construction metrics of a traced run. */
void reportProblemProbe(const ProblemProbe& p, Report& rep);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
