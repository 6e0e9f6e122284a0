/**
 * @file
 * compile_cold: distinct generated programs, compiled and run once.
 *
 * Why: the frontends, codegen, register allocation, scheduling and
 * decode do most of the work and the simulator little, so the fixed
 * per-run cost (Toolchain::run set-up around a tiny simulation)
 * shows here and on no other workload.
 *
 * Inputs: generateProgram() for all five frontends x hm1/vm2/vs3,
 * kPerPair programs per pair at a statement budget of kBudget, all
 * drawn from --seed. A pass compiles and runs every program once, in
 * requests of kChunk jobs, each one BatchRunner::run call on kThreads
 * threads over a fresh Toolchain (empty artefact cache, nothing
 * shared). Passes repeat until --seconds are spent.
 *
 * Reference: fuzzGolden() -- the MIR reference interpreter for
 * yalll/simpl/empl, the forced-slow no-JIT reference configuration
 * for sstar/masm -- computed after the timed region; every run of
 * every pass must match it (halt, variables, memory digest).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.hh"
#include "driver/batch.hh"
#include "fuzz/generator.hh"
#include "fuzz/oracle.hh"
#include "layers.hh"
#include "obs/telemetry.hh"
#include "support/logging.hh"

using namespace uhll;

namespace pb {

namespace {

constexpr unsigned kPerPair = 128;
constexpr unsigned kBudget = 80;
constexpr size_t kChunk = 30;
constexpr unsigned kThreads = 2;
//! share of a traced run's --seconds spent on the service layers
constexpr double kServiceShare = 0.4;

std::vector<GeneratedProgram>
makePrograms(uint64_t seed)
{
    std::vector<GeneratedProgram> out;
    FuzzRng rng(seed);
    for (const std::string &lang : fuzzGeneratorLangs()) {
        for (const std::string &mach : machineNames()) {
            for (unsigned k = 0; k < kPerPair; ++k)
                out.push_back(
                    generateProgram(lang, mach, rng.next(), kBudget));
        }
    }
    return out;
}

/** A plain job for @p p whose onFinish stores the memory digest the
 *  oracle compares into @p digest. */
Job
makeJob(const GeneratedProgram &p, uint64_t *digest)
{
    Job j;
    j.name = strfmt("%s:%s:%llx", p.lang.c_str(), p.machine.c_str(),
                    (unsigned long long)p.seed);
    j.lang = p.lang;
    j.machine = p.machine;
    j.source = p.source;
    j.entry = p.entry;
    j.sets = p.sets;
    const auto [base, count] = fuzzScratchRange(p.machine);
    j.onFinish = [digest, base = base, count = count](
                     const MicroSimulator &, const MainMemory &mem) {
        *digest = fuzzMemDigest(mem.words(), base, count);
    };
    return j;
}

/** A Toolchain with every machine description already built. */
std::unique_ptr<Toolchain>
freshToolchain()
{
    auto tc = std::make_unique<Toolchain>();
    for (const std::string &m : machineNames())
        tc->machine(m);
    return tc;
}

struct Request {
    double wall = 0;
    double cpu = 0;     //!< BatchReport::cpuSeconds
    size_t jobs = 0;
    bool traced = false;
};

/** Everything a timed loop observed. */
struct Loop {
    std::vector<Request> requests;
    //! one per complete pass (every pass runs the same programs)
    std::vector<Window> windows;
    //! per program: its best compile + run time over the passes
    std::vector<double> bestMs;
    //! observation per (pass, program), in pass order
    std::vector<std::vector<FuzzObservation>> obs;
    uint64_t codeWords = 0;     //!< first pass
    uint64_t simCycles = 0;     //!< first pass
};

/**
 * Run passes over @p progs until @p seconds are spent (at least
 * @p min_passes). With @p alternate, odd passes run with the
 * in-program SpanTracer on (the traced e2e for trace.overhead_ratio).
 */
Loop
timedPasses(const std::vector<GeneratedProgram> &progs, double seconds,
            int min_passes, bool alternate)
{
    Loop L;
    L.bestMs.assign(progs.size(), HUGE_VAL);
    const auto t0 = Clock::now();
    for (int pass = 0;; ++pass) {
        if (pass >= min_passes && secondsSince(t0) >= seconds)
            break;
        const bool traced = alternate && pass % 2 == 1;
        if (traced)
            SpanTracer::instance().enable();
        std::vector<FuzzObservation> passObs;
        Window win;
        const auto p0 = Clock::now();
        for (size_t at = 0; at < progs.size(); at += kChunk) {
            if (pass >= min_passes && secondsSince(t0) >= seconds)
                break;
            // Every request starts cold: a fresh artefact cache.
            std::unique_ptr<Toolchain> tc = freshToolchain();
            const size_t n = std::min(kChunk, progs.size() - at);
            std::vector<uint64_t> digests(n, 0);
            std::vector<Job> jobs;
            for (size_t i = 0; i < n; ++i)
                jobs.push_back(makeJob(progs[at + i], &digests[i]));
            const auto r0 = Clock::now();
            const BatchReport rep = BatchRunner(*tc, kThreads).run(jobs);
            Request req;
            req.wall = secondsSince(r0);
            req.cpu = rep.cpuSeconds;
            req.jobs = n;
            req.traced = traced;
            L.requests.push_back(req);
            win.reqMs.push_back(req.wall * 1e3);
            win.requests += 1;
            win.jobs += double(n);
            for (size_t i = 0; i < n; ++i) {
                const JobResult &r = rep.results[i];
                L.bestMs[at + i] =
                    std::min(L.bestMs[at + i],
                             (r.compileSeconds + r.runSeconds) * 1e3);
                if (r.ran) {
                    win.words += double(r.sim.wordsExecuted);
                    win.runSeconds += r.runSeconds;
                }
                if (pass == 0) {
                    if (r.artefact)
                        L.codeWords += r.artefact->store().size();
                    if (r.ran)
                        L.simCycles += r.sim.cycles;
                }
                passObs.push_back(fuzzObserve(r, digests[i]));
            }
        }
        if (traced)
            SpanTracer::instance().disable();
        win.wall = secondsSince(p0);
        if (passObs.size() == progs.size() || L.windows.empty())
            L.windows.push_back(std::move(win));
        L.obs.push_back(std::move(passObs));
    }
    return L;
}

/** Judge one observation of program @p p against its golden. */
void
check(const GeneratedProgram &p, const FuzzObservation &golden,
      const FuzzObservation &got, Outcome &out)
{
    if (!got.ok && knownDefect(got.diag)) {
        out.fail(strfmt("known defect: %s:%s seed %llx: %s",
                        p.lang.c_str(), p.machine.c_str(),
                        (unsigned long long)p.seed, got.diag.c_str()));
        return;
    }
    if (got.ok && golden.ok && !fuzzDiverges(golden, got))
        return;
    out.correct = false;
    out.fail(strfmt("%s:%s seed %llx: %s (reference: %s)",
                    p.lang.c_str(), p.machine.c_str(),
                    (unsigned long long)p.seed,
                    got.ok ? "differs from reference" : got.diag.c_str(),
                    golden.ok ? "ok" : golden.diag.c_str()));
}

std::vector<FuzzObservation>
goldens(const std::vector<GeneratedProgram> &progs)
{
    std::vector<FuzzObservation> g(progs.size());
    std::vector<std::thread> ts;
    for (unsigned l = 0; l < kThreads; ++l) {
        ts.emplace_back([&, l] {
            Toolchain tc;
            tc.setCacheCapBytes(1);
            for (size_t i = l; i < progs.size(); i += kThreads)
                g[i] = fuzzGolden(tc, progs[i]);
        });
    }
    for (std::thread &t : ts)
        t.join();
    return g;
}

/** Set-up: generate the inputs, build a Toolchain and its machines,
 *  and warm one compile per (language, machine) pair on it. */
std::vector<GeneratedProgram>
setUp(const Args &a, double *setup_s)
{
    std::vector<double> times;
    std::vector<GeneratedProgram> progs;
    const auto s0 = Clock::now();
    for (int rep = 0; moreSetups(rep, s0); ++rep) {
        const auto t0 = Clock::now();
        progs = makePrograms(a.seed);
        std::unique_ptr<Toolchain> warm = freshToolchain();
        for (size_t i = 0; i < progs.size(); i += kPerPair) {
            uint64_t digest = 0;
            warm->run(makeJob(progs[i], &digest));
        }
        times.push_back(secondsSince(t0));
    }
    *setup_s = median(times);
    return progs;
}

void
checkAll(const std::vector<GeneratedProgram> &progs,
         const std::vector<std::vector<FuzzObservation>> &obs,
         Outcome &out)
{
    const std::vector<FuzzObservation> golden = goldens(progs);
    for (const auto &pass : obs) {
        for (size_t i = 0; i < pass.size(); ++i) {
            ++out.attempted;
            check(progs[i], golden[i], pass[i], out);
        }
    }
}

/** The traced run: one layer-by-layer replay pass, then timed passes
 *  alternating the in-program tracer off and on, then the service and
 *  proc layers (measureServiceLayers). */
Outcome
traced(const Args &a, const std::vector<GeneratedProgram> &progs)
{
    Outcome out;
    Tracer tr;
    LayerTotals tot;
    std::unique_ptr<Toolchain> tc = freshToolchain();
    tc->setCacheCapBytes(1);  // nothing is shared; bound the memory
    std::vector<uint64_t> digests(progs.size(), 0);
    std::vector<Job> jobs;
    for (size_t i = 0; i < progs.size(); ++i)
        jobs.push_back(makeJob(progs[i], &digests[i]));
    const std::vector<JobResult> replayed =
        replayAll(tr, *tc, jobs, kThreads, false, tot);
    std::vector<FuzzObservation> replayObs;
    for (size_t i = 0; i < progs.size(); ++i)
        replayObs.push_back(fuzzObserve(replayed[i], digests[i]));
    setLayerMetrics(out, tr, tot, tc->cacheStats());

    // Timed passes: even ones untraced, odd ones with the tracer on.
    Loop L = timedPasses(progs, a.seconds * (1 - kServiceShare), 2, true);
    double wallOff = 0, wallOn = 0, jobsOff = 0, jobsOn = 0;
    std::vector<double> walls, idles;
    for (const Request &r : L.requests) {
        (r.traced ? wallOn : wallOff) += r.wall;
        (r.traced ? jobsOn : jobsOff) += double(r.jobs);
        walls.push_back(r.wall);
        idles.push_back(r.wall * kThreads - r.cpu);
    }
    out.set("batch.wall_s", median(walls), "s");
    out.set("batch.idle_s", median(idles), "s");
    out.set("trace.overhead_ratio",
            jobsOn > 0 && wallOff > 0
                ? (wallOn / jobsOn) / (wallOff / jobsOff)
                : 0,
            "ratio");

    L.obs.push_back(std::move(replayObs));
    checkAll(progs, L.obs, out);
    measureServiceLayers(a, a.seconds * kServiceShare, out);
    const std::string path =
        strfmt("%s/trace-compile_cold-%llu.json", a.outDir.c_str(),
               (unsigned long long)a.seed);
    if (!tr.write(path))
        out.notes.push_back("could not write " + path);
    else
        out.notes.push_back("spans written to " + path);
    return out;
}

} // namespace

Outcome
runCompileCold(const Args &a)
{
    double setup_s = 0;
    const std::vector<GeneratedProgram> progs = setUp(a, &setup_s);
    if (a.trace)
        return traced(a, progs);

    Outcome out;
    Loop L = timedPasses(progs, a.seconds, 1, false);
    checkAll(progs, L.obs, out);

    out.set("setup_s", setup_s, "s");
    setWindowMetrics(out, L.windows);
    setBestJobMetrics(out, L.bestMs);
    out.set("code_words", double(L.codeWords), "words");
    out.set("sim_cycles", double(L.simCycles), "cycles");
    // Closed loop, one client: the request rate it sustains.
    out.set("max_rps", overWindows(L.windows, true, [](const Window &w) {
                return w.requests / w.wall;
            }),
            "req/s");
    out.set("ok_ratio",
            out.attempted
                ? 1.0 - double(out.failed) / double(out.attempted)
                : 0,
            "ratio");
    out.set("peak_rss_mb", peakRssMb(), "MiB");
    out.notes.push_back(strfmt(
        "compile_cold: %zu programs (%u per language x machine, budget "
        "%u), %zu passes (%zu complete: the windows), %zu requests of "
        "<= %zu jobs on %u threads",
        progs.size(), kPerPair, kBudget, L.obs.size(), L.windows.size(),
        L.requests.size(), kChunk, kThreads));
    std::string perWindow = "jobs/s per window:";
    for (const Window &w : L.windows)
        perWindow += strfmt(" %.0f", w.jobs / w.wall);
    out.notes.push_back(perWindow);
    return out;
}

} // namespace pb
