/**
 * @file
 * perfbench: the uHLL toolkit benchmark program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--kernels DIR] [--out DIR]
 *
 * Workloads: compile_cold, sim_long (see BENCHMARK.json and
 * perfbench/METRICS.md for why each exists and what it measures).
 * Human-readable notes go to stdout first; the last stdout line is
 * the result object {"correct", "attempted", "failed", "metrics"}.
 * Failure diagnostics go to stderr.
 *
 * The binary is also the worker executable of the process-isolated
 * daemon in compile_cold's traced run: WorkerPool re-executes it with
 * --worker.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.hh"
#include "proc/worker.hh"
#include "support/logging.hh"

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload compile_cold|sim_long "
                 "--seed N --seconds S --trace 0|1 [--kernels DIR] "
                 "[--out DIR]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    if (uhll::isWorkerInvocation(argc, argv))
        return uhll::runWorkerFromArgv(argc, argv);

    pb::Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v, &end, 10);
        else if (flag == "--seconds")
            a.seconds = std::strtod(v, &end);
        else if (flag == "--trace")
            a.trace = std::strtoul(v, &end, 10) != 0;
        else if (flag == "--kernels")
            a.kernelDir = v;
        else if (flag == "--out")
            a.outDir = v;
        else
            usage(("unknown flag " + flag).c_str());
        if (end && *end)
            usage(("bad value for " + flag).c_str());
    }
    if (!(a.seconds > 0))
        usage("--seconds must be positive");

    pb::Outcome out;
    try {
        if (a.workload == "compile_cold")
            out = pb::runCompileCold(a);
        else if (a.workload == "sim_long")
            out = pb::runSimLong(a);
        else
            usage(("unknown workload '" + a.workload + "'").c_str());
    } catch (const uhll::FatalError &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    for (const std::string &f : out.failures)
        std::fprintf(stderr, "perfbench: failure: %s\n", f.c_str());
    std::printf("perfbench: workload %s, seed %llu, %g s, trace %d, "
                "build %s, nproc %u\n",
                a.workload.c_str(), (unsigned long long)a.seed, a.seconds,
                int(a.trace), PERFBENCH_BUILD_TYPE,
                std::thread::hardware_concurrency());
    for (const std::string &n : out.notes)
        std::printf("%s\n", n.c_str());
    std::printf("%s\n", out.json().c_str());
    return 0;
}
