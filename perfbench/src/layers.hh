/**
 * @file
 * The traced runs' layer-by-layer replay of the compile pipeline, and
 * the one list of per-layer metrics every traced run reports.
 *
 * replayJob() calls each module's public entry point in pipeline
 * order, one span per call:
 *
 *   frontend          FrontendRegistry::get(lang).translate
 *   codegen.legalize  legalize + optimizeMir, on a copy of the MIR
 *   regalloc          RegisterAllocator::allocate, on that copy
 *   codegen.compile   Compiler::compile (the whole MIR back end)
 *   schedule          TokoroCompactor::compact over each block's bound
 *                     ops, recovered in word order from the compiled
 *                     ControlStore, each result checked with
 *                     compactionLegal
 *   decode            DecodedStore::decodeAll
 *   toolchain.run     Toolchain::run (optionally with the stats dump
 *                     the jit.* counters need); the compile and
 *                     simulation seconds it reports are credited to
 *                     toolchain.compile and sim, so its self time is
 *                     the call's fixed overhead
 *
 * legalize, regalloc and schedule repeat work codegen.compile does
 * internally, so codegen.lower_s is derived as compile minus the
 * three.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hh"
#include "driver/toolchain.hh"

namespace pb {

/** Counts and host seconds the replay gathers beside the spans. */
struct LayerTotals {
    uint64_t mirInsts = 0;
    uint64_t fixupMovs = 0;
    uint64_t spillOps = 0;
    uint64_t optimized = 0;
    uint64_t spilledVregs = 0;
    uint64_t schedOps = 0;
    uint64_t schedWords = 0;
    //! compactions compactionLegal rejected (each is a failure)
    uint64_t schedIllegal = 0;
    double toolchainCompileS = 0;
    uint64_t jobs = 0;          //!< Toolchain::run calls that ran
    double simRunS = 0;
    uint64_t simWords = 0;
    uint64_t fastWords = 0;
    uint64_t slowWords = 0;
    uint64_t memOps = 0;
    uint64_t jitNative = 0;
    uint64_t jitEntries = 0;
    uint64_t jitDeoptOffRegion = 0;
    uint64_t jitRegions = 0;
    uint64_t jitCompileUs = 0;

    void add(const LayerTotals &o);
};

/**
 * Replay @p jobs layer by layer under @p tr on @p threads threads:
 * one "lane" span per thread, one "job" span per job around the layer
 * spans. Returns the Toolchain::run results in job order (the
 * replay's outputs, checked like any other; their artefacts are
 * released) and adds the counts to @p tot. A frontend or compiler
 * error ends a job's layer calls early; Toolchain::run still runs
 * and reports it. @p capture_stats turns on Job::captureStats, whose
 * dump lands in toolchain.run's self time.
 */
std::vector<uhll::JobResult> replayAll(Tracer &tr,
                                       const uhll::Toolchain &tc,
                                       const std::vector<uhll::Job> &jobs,
                                       unsigned threads,
                                       bool capture_stats,
                                       LayerTotals &tot);

/**
 * Set every per-layer metric: those the replay measured from @p tr,
 * @p tot and the replay Toolchain's @p cache counters, the rest to 0
 * (layer not exercised by this workload); trace.coverage is the
 * layer self time over the "lane" spans. Each compaction
 * compactionLegal rejected counts as a failure. Workloads then
 * overwrite the batch, service, proc and trace.overhead_ratio ones.
 */
void setLayerMetrics(Outcome &out, const Tracer &tr,
                     const LayerTotals &tot,
                     const uhll::Toolchain::CacheStats &cache);

} // namespace pb

#endif // PERFBENCH_LAYERS_HH
