#include "sched/job_analyzer.h"

#include <string>

namespace magma::sched {
namespace {

/** Memoisation key: layer shape + batch (accel handled by outer loop). */
std::string
shapeKey(const dnn::LayerShape& l, int batch)
{
    return l.toString() + "|" + std::to_string(batch);
}

}  // namespace

JobAnalysisTable
JobAnalyzer::analyze(const dnn::JobGroup& group,
                     const accel::Platform& platform) const
{
    int jobs = group.size();
    int accels = platform.numSubAccels();
    JobAnalysisTable table(jobs, accels);
    last_unique_ = 0;

    for (int a = 0; a < accels; ++a) {
        const cost::SubAccelConfig& cfg = platform.subAccels[a];
        // Determinism audit: keyed find/emplace only, never iterated —
        // hash order cannot reach the table or any serialized output.
        std::unordered_map<std::string, JobProfile> memo;
        for (int j = 0; j < jobs; ++j) {
            const dnn::Job& job = group.jobs[j];
            std::string key = shapeKey(job.layer, job.batch);
            auto it = memo.find(key);
            if (it == memo.end()) {
                cost::CostResult r =
                    model_->analyze(job.layer, job.batch, cfg);
                JobProfile p;
                p.noStallSeconds = r.noStallSeconds(cfg);
                p.reqBwGbps = r.reqBwGbps;
                p.dramBytes = r.dramBytes;
                p.energyPj = r.energyPj;
                p.macs = r.macs;
                it = memo.emplace(key, p).first;
                ++last_unique_;
            }
            table.at(j, a) = it->second;
        }
    }
    return table;
}

}  // namespace magma::sched
