// Benchmark driver: runs one workload for a fixed time and prints its
// metrics, then the result JSON as the last line of standard output.
//
//   magma_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--set key=value ...]
//
// The workload parameters (--set) come from perfbench/workloads.json;
// run.py passes them, and starts this program without MAGMA_METRICS and
// MAGMA_THREADS in its environment so the library's defaults apply. Exit
// status 0 means the run finished and printed a result (which may still
// say "correct": false); 2 means bad usage.

#include <cstdio>
#include <exception>
#include <string>

#include "bench.h"

namespace {

int
usage(const char* why)
{
    std::fprintf(stderr,
                 "magma_perfbench: %s\nusage: magma_perfbench --workload "
                 "NAME --seed N --seconds S --trace 0|1 [--set k=v ...]\n",
                 why);
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    perfbench::RunConfig rc;
    try {
        for (int i = 1; i < argc; ++i) {
            std::string a = argv[i];
            if (i + 1 >= argc)
                return usage(("missing value for " + a).c_str());
            std::string v = argv[++i];
            if (a == "--workload")
                rc.workload = v;
            else if (a == "--seed")
                rc.seed = std::stoull(v);
            else if (a == "--seconds")
                rc.seconds = std::stod(v);
            else if (a == "--trace")
                rc.trace = std::stoi(v) != 0;
            else if (a == "--set")
                rc.params.set(v);
            else
                return usage(("unknown flag " + a).c_str());
        }
    } catch (const std::exception& e) {
        return usage(e.what());
    }
    if (!(rc.seconds > 0.0))
        return usage("--seconds must be positive");

    try {
        perfbench::Report rep;
        if (rc.workload == "search-s4-mix")
            rep = perfbench::runSearch(rc);
        else if (rc.workload == "serve-zipf")
            rep = perfbench::runServe(rc);
        else if (rc.workload == "rl-a2c")
            rep = perfbench::runRl(rc);
        else
            return usage(("unknown workload " + rc.workload).c_str());
        rep.print();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "magma_perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
