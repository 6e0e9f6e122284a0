#include "layers.hh"

#include <atomic>
#include <bit>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "codegen/compiler.hh"
#include "driver/frontend.hh"
#include "machine/decoded_store.hh"
#include "obs/json.hh"
#include "regalloc/allocator.hh"
#include "schedule/compact.hh"
#include "support/logging.hh"

using namespace uhll;

namespace pb {

namespace {

uint64_t
countMirInsts(const MirProgram &p)
{
    uint64_t n = 0;
    for (size_t f = 0; f < p.numFunctions(); ++f) {
        for (const BasicBlock &b : p.func(uint32_t(f)).blocks)
            n += b.insts.size();
    }
    return n;
}

/**
 * The bound ops of every block of @p cs, in word order. Block
 * leaders: word 0, labelled words, words after a sequencing word and
 * every branch, call or multiway target.
 */
std::vector<std::vector<BoundOp>>
blockOps(const ControlStore &cs)
{
    const size_t n = cs.size();
    std::vector<bool> leader(n + 1, false);
    leader[0] = true;
    for (size_t a = 0; a < n; ++a) {
        const MicroInstruction &w = cs.word(uint32_t(a));
        if (!w.label.empty())
            leader[a] = true;
        if (w.seq == SeqKind::Next)
            continue;
        leader[a + 1] = true;
        if (w.seq == SeqKind::Multiway) {
            const uint64_t arms = uint64_t(1) << std::popcount(w.mwMask);
            for (uint64_t i = 0; i < arms && w.target + i < n; ++i)
                leader[w.target + i] = true;
        } else if (w.seq != SeqKind::Return && w.seq != SeqKind::Halt &&
                   w.target < n) {
            leader[w.target] = true;
        }
    }
    std::vector<std::vector<BoundOp>> blocks;
    for (size_t start = 0; start < n;) {
        std::vector<BoundOp> ops;
        size_t end = start;
        do {
            const MicroInstruction &w = cs.word(uint32_t(end));
            ops.insert(ops.end(), w.ops.begin(), w.ops.end());
        } while (++end < n && !leader[end]);
        if (!ops.empty())
            blocks.push_back(std::move(ops));
        start = end;
    }
    return blocks;
}

/** Re-compact every block of @p cs under a "schedule" span, then
 *  check each result outside it. */
void
reschedule(Tracer &tr, const ControlStore &cs,
           const MachineDescription &mach, LayerTotals &tot)
{
    const std::vector<std::vector<BoundOp>> blocks = blockOps(cs);
    std::vector<CompactionResult> results;
    results.reserve(blocks.size());
    {
        Tracer::Scope s(tr, "schedule");
        const TokoroCompactor compactor;
        for (const std::vector<BoundOp> &ops : blocks)
            results.push_back(compactor.compact(mach, ops));
    }
    for (size_t i = 0; i < blocks.size(); ++i) {
        if (!compactionLegal(mach, blocks[i], results[i], true))
            ++tot.schedIllegal;
        tot.schedOps += blocks[i].size();
        tot.schedWords += results[i].numWords();
    }
}

uint64_t
statU64(const JsonValue &stats, const char *group, const char *name)
{
    const JsonValue *g = stats.get(group);
    const JsonValue *v = g ? g->get(name) : nullptr;
    return v ? v->asU64() : 0;
}

/** Add one finished run's simulator and JIT counters to @p tot (the
 *  JIT counters need Job::captureStats). */
void
addSimCounters(const JobResult &r, LayerTotals &tot)
{
    if (!r.ran)
        return;
    ++tot.jobs;
    tot.simRunS += r.runSeconds;
    tot.simWords += r.sim.wordsExecuted;
    tot.fastWords += r.sim.fastPathWords;
    tot.slowWords += r.sim.slowPathWords;
    tot.memOps += r.sim.memReads + r.sim.memWrites;
    if (r.statsJson.empty())
        return;
    const JsonValue stats = JsonValue::parse(r.statsJson);
    tot.jitNative += statU64(stats, "jit", "nativeWords");
    tot.jitEntries += statU64(stats, "jit", "entries");
    tot.jitDeoptOffRegion += statU64(stats, "jit", "deoptOffRegion");
    tot.jitRegions += statU64(stats, "jit", "regionsCompiled");
    tot.jitCompileUs += statU64(stats, "jit", "compileMicros");
}

/** Sum of the self times of every layer span (everything except the
 *  structural "lane" and "job" spans). */
double
layerSelfSeconds(const Tracer &tr)
{
    double sum = 0;
    for (const auto &[name, sec] : tr.selfSeconds()) {
        if (name != "lane" && name != "job")
            sum += sec;
    }
    return sum;
}

} // namespace

void
LayerTotals::add(const LayerTotals &o)
{
    mirInsts += o.mirInsts;
    fixupMovs += o.fixupMovs;
    spillOps += o.spillOps;
    optimized += o.optimized;
    spilledVregs += o.spilledVregs;
    schedOps += o.schedOps;
    schedWords += o.schedWords;
    schedIllegal += o.schedIllegal;
    toolchainCompileS += o.toolchainCompileS;
    jobs += o.jobs;
    simRunS += o.simRunS;
    simWords += o.simWords;
    fastWords += o.fastWords;
    slowWords += o.slowWords;
    memOps += o.memOps;
    jitNative += o.jitNative;
    jitEntries += o.jitEntries;
    jitDeoptOffRegion += o.jitDeoptOffRegion;
    jitRegions += o.jitRegions;
    jitCompileUs += o.jitCompileUs;
}

namespace {

/** One job of replayAll: the layer spans, then Toolchain::run. */
JobResult
replayJob(Tracer &tr, const Toolchain &tc, const Job &job,
          bool capture_stats, LayerTotals &tot)
{
    try {
        const auto mach = tc.machine(job.machine);
        Translation t;
        {
            Tracer::Scope s(tr, "frontend");
            t = FrontendRegistry::get(job.lang).translate(
                job.source, *mach, job.options.frontend);
        }
        std::optional<CompiledProgram> cp;
        if (t.isMir()) {
            tot.mirInsts += countMirInsts(*t.mir);
            MirProgram legal = *t.mir;
            {
                Tracer::Scope s(tr, "codegen.legalize");
                legalize(legal, *mach);
                optimizeMir(legal);
            }
            {
                Tracer::Scope s(tr, "regalloc");
                GraphColoringAllocator().allocate(legal, *mach);
            }
            {
                Tracer::Scope s(tr, "codegen.compile");
                cp.emplace(Compiler(*mach).compile(*t.mir));
            }
            const CompileStats &st = cp->stats;
            tot.fixupMovs += st.fixupMovs;
            tot.spillOps += st.spillLoads + st.spillStores;
            tot.optimized += st.optimized;
            tot.spilledVregs += st.spilledVRegs;
            reschedule(tr, cp->store, *mach, tot);
        }
        const ControlStore &store = cp ? cp->store : t.direct->store;
        Tracer::Scope s(tr, "decode");
        DecodedStore(store, *mach).decodeAll();
    } catch (const FatalError &) {
        // Toolchain::run below reports the same error as the job's
        // diagnostic, where the workload's check counts it.
    }

    Job traced = job;
    traced.captureStats = capture_stats;
    JobResult r;
    {
        Tracer::Scope s(tr, "toolchain.run");
        r = tc.run(traced);
        s.attribute("toolchain.compile", r.compileSeconds);
        s.attribute("sim", r.runSeconds);
    }
    tot.toolchainCompileS += r.compileSeconds;
    addSimCounters(r, tot);
    return r;
}

} // namespace

std::vector<JobResult>
replayAll(Tracer &tr, const Toolchain &tc, const std::vector<Job> &jobs,
          unsigned threads, bool capture_stats, LayerTotals &tot)
{
    std::vector<JobResult> results(jobs.size());
    std::vector<LayerTotals> perLane(threads);
    std::atomic<size_t> next{0};
    std::vector<std::thread> lanes;
    for (unsigned l = 0; l < threads; ++l) {
        lanes.emplace_back([&, l] {
            Tracer::Scope lane(tr, "lane");
            for (size_t i; (i = next++) < jobs.size();) {
                Tracer::Scope job(tr, "job");
                results[i] = replayJob(tr, tc, jobs[i], capture_stats,
                                       perLane[l]);
                results[i].artefact.reset();
            }
        });
    }
    for (std::thread &t : lanes)
        t.join();
    for (const LayerTotals &l : perLane)
        tot.add(l);
    return results;
}

void
setLayerMetrics(Outcome &out, const Tracer &tr, const LayerTotals &t,
                const Toolchain::CacheStats &cache)
{
    for (uint64_t i = 0; i < t.schedIllegal; ++i) {
        out.correct = false;
        out.fail("schedule: compactionLegal rejected a compaction");
    }
    const std::map<std::string, double> self = tr.selfSeconds();
    auto selfOf = [&](const char *n) {
        auto it = self.find(n);
        return it == self.end() ? 0.0 : it->second;
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    out.set("frontend.time_s", selfOf("frontend"), "s");
    out.set("frontend.calls", double(tr.count("frontend")), "count");
    out.set("frontend.mir_insts", double(t.mirInsts), "insts");

    const double legal = selfOf("codegen.legalize");
    const double alloc = selfOf("regalloc");
    const double sched = selfOf("schedule");
    const double comp = selfOf("codegen.compile");
    out.set("codegen.legalize_s", legal, "s");
    out.set("codegen.compile_s", comp, "s");
    out.set("codegen.lower_s", comp > 0 ? comp - legal - alloc - sched : 0,
            "s");
    out.set("codegen.fixup_movs", double(t.fixupMovs), "count");
    out.set("codegen.spill_ops", double(t.spillOps), "count");
    out.set("codegen.optimized", double(t.optimized), "count");

    out.set("regalloc.time_s", alloc, "s");
    out.set("regalloc.spilled_vregs", double(t.spilledVregs), "count");

    out.set("schedule.time_s", sched, "s");
    out.set("schedule.ops_per_word",
            ratio(double(t.schedOps), double(t.schedWords)), "ops/word");

    out.set("decode.time_s", selfOf("decode"), "s");

    out.set("toolchain.compile_s", t.toolchainCompileS, "s");
    out.set("toolchain.cache_hits", double(cache.hits), "count");
    out.set("toolchain.cache_misses", double(cache.misses), "count");
    out.set("toolchain.cache_evictions", double(cache.evictions),
            "count");
    out.set("toolchain.hit_ratio",
            ratio(double(cache.hits), double(cache.hits + cache.misses)),
            "ratio");
    out.set("toolchain.run_overhead_s", selfOf("toolchain.run"), "s");

    out.set("sim.run_s", t.simRunS, "s");
    out.set("sim.us_per_job", ratio(t.simRunS * 1e6, double(t.jobs)),
            "us");
    out.set("sim.ns_per_word", ratio(t.simRunS * 1e9, double(t.simWords)),
            "ns");
    out.set("sim.words", double(t.simWords), "words");
    out.set("sim.fast_path_words", double(t.fastWords), "words");
    out.set("sim.slow_path_words", double(t.slowWords), "words");
    out.set("sim.mem_ops", double(t.memOps), "count");
    out.set("sim.interp_words_per_s", 0, "words/s");

    out.set("jit.native_words", double(t.jitNative), "words");
    out.set("jit.native_ratio",
            ratio(double(t.jitNative), double(t.simWords)), "ratio");
    out.set("jit.entries", double(t.jitEntries), "count");
    out.set("jit.words_per_entry",
            ratio(double(t.jitNative), double(t.jitEntries)), "words");
    out.set("jit.deopt_off_region", double(t.jitDeoptOffRegion), "count");
    out.set("jit.regions", double(t.jitRegions), "count");
    out.set("jit.compile_us", double(t.jitCompileUs), "us");

    out.set("batch.wall_s", 0, "s");
    out.set("batch.idle_s", 0, "s");

    out.set("service.overhead_ms", 0, "ms");
    out.set("service.queue_depth_max", 0, "count");
    out.set("service.rejected", 0, "count");
    out.set("gen.lag_ms", 0, "ms");

    out.set("proc.overhead_ms", 0, "ms");
    out.set("proc.dispatched", 0, "count");
    out.set("proc.cache_hits", 0, "count");
    out.set("proc.cache_misses", 0, "count");
    out.set("proc.spawns", 0, "count");
    out.set("proc.crashes", 0, "count");

    out.set("trace.overhead_ratio", 0, "ratio");
    const double lanes = tr.totalSeconds("lane");
    out.set("trace.coverage", ratio(layerSelfSeconds(tr), lanes), "ratio");
}

} // namespace pb
