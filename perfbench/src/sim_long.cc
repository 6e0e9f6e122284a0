/**
 * @file
 * sim_long: a handful of long-running kernels, compiled in set-up.
 *
 * Why: the simulator and the JIT tier do nearly all the work and the
 * compiler none. The kernels mix ALU-only loops (native regions stay
 * native), memory-word-heavy loops (regions exit at every memory
 * word) and a multiway dispatch loop, so a JIT gain that costs
 * interpreter words shows up in sim_words_per_s.
 *
 * Inputs: perfbench/kernels/{alu_sum.yll, mem_walk.yll,
 * dispatch.simpl, array_pass.empl} on hm1, vm2 and vs3 (12 jobs); the
 * loop counts are drawn from --seed within +2% of fixed sizes. A
 * request is one BatchRunner::run of all 12 jobs on kThreads threads
 * over the set-up Toolchain (artefacts cached, JIT on: the shipped
 * default).
 *
 * Reference: closed-form final values of every output variable and
 * of the kernels' memory (checked in the job's checkMemory hook on
 * every run), and after the timed region a forced-slow no-JIT run of
 * every job, whose cycle count each JIT-on run must equal.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>

#include "bench.hh"
#include "driver/batch.hh"
#include "layers.hh"
#include "obs/telemetry.hh"
#include "support/logging.hh"

using namespace uhll;

namespace pb {

namespace {

constexpr unsigned kThreads = 2;
constexpr size_t kRoundsPerWindow = 4;
constexpr uint64_t kMask = 0xFFFF;  // every bundled machine is 16-bit
constexpr uint32_t kWalkBase = 0x1000;
constexpr uint32_t kWalkLen = 64;
constexpr uint32_t kEmplBase = 0x2000;  // FrontendOptions::emplDataBase
constexpr uint32_t kEmplLen = 64;

/** One kernel x machine job plus its closed-form expected outputs. */
struct Kernel {
    Job job;
    std::vector<std::pair<std::string, uint64_t>> expect;
};

std::string
readFile(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        fatal("cannot read kernel %s", path.c_str());
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

/** @p base scaled by a seed-drawn factor in [1, 1.02). */
uint64_t
jitter(FuzzRng &rng, uint64_t base)
{
    return base + uint64_t(double(base) * 0.02 * unitOf(rng));
}

std::vector<Kernel>
makeKernels(const Args &a)
{
    const std::string dir = a.kernelDir + "/";
    const std::string alu = readFile(dir + "alu_sum.yll");
    const std::string walk = readFile(dir + "mem_walk.yll");
    const std::string disp = readFile(dir + "dispatch.simpl");
    const std::string arr = readFile(dir + "array_pass.empl");

    FuzzRng rng(a.seed);
    std::vector<Kernel> ks;
    for (const std::string &m : machineNames()) {
        {
            const uint64_t n = jitter(rng, 1600), inner = 2000;
            Kernel k;
            k.job.name = "alu_sum:" + m;
            k.job.lang = "yalll";
            k.job.source = alu;
            k.job.sets = {{"n", n}, {"m", inner}, {"acc", 0}};
            k.expect = {{"n", n},
                        {"m", inner},
                        {"acc", (n * (inner * (inner + 1) / 2)) & kMask}};
            ks.push_back(std::move(k));
        }
        {
            const uint64_t p = jitter(rng, 8000);
            Kernel k;
            k.job.name = "mem_walk:" + m;
            k.job.lang = "yalll";
            k.job.source = walk;
            k.job.sets = {{"p", p},
                          {"base", kWalkBase},
                          {"len", kWalkLen},
                          {"sum", 0}};
            k.expect = {{"p", 0},
                        {"base", kWalkBase},
                        {"len", kWalkLen},
                        {"sum", (kWalkLen * p * (p + 1) / 2) & kMask}};
            k.job.checkMemory = [p](const MainMemory &mem,
                                    std::string *why) {
                for (uint32_t i = 0; i < kWalkLen; ++i) {
                    if (mem.peek(kWalkBase + i) != (p & kMask)) {
                        *why = strfmt("mem_walk word %u", i);
                        return false;
                    }
                }
                return true;
            };
            ks.push_back(std::move(k));
        }
        {
            const uint64_t iters = jitter(rng, 30000);
            uint64_t r5 = 0;
            for (uint64_t r2 = 0; r2 < iters; ++r2) {
                static const int64_t kArm[4] = {1, 3, 2, -1};
                r5 = (r5 + uint64_t(kArm[r2 & 3])) & kMask;
            }
            Kernel k;
            k.job.name = "dispatch:" + m;
            k.job.lang = "simpl";
            k.job.source = disp;
            k.job.sets = {{"r1", iters}, {"r2", 0}, {"r5", 0}};
            k.expect = {{"r1", 0}, {"r2", iters & kMask}, {"r5", r5}};
            ks.push_back(std::move(k));
        }
        {
            const uint64_t n = jitter(rng, 4000);
            const uint64_t idxSum = kEmplLen * (kEmplLen - 1) / 2;
            Kernel k;
            k.job.name = "array_pass:" + m;
            k.job.lang = "empl";
            k.job.source = arr;
            k.job.sets = {{"n", n}, {"sum", 0}};
            k.expect = {{"n", n},
                        {"sum", ((n * (n + 1) / 2) * idxSum) & kMask}};
            k.job.checkMemory = [n](const MainMemory &mem,
                                    std::string *why) {
                for (uint32_t i = 0; i < kEmplLen; ++i) {
                    if (mem.peek(kEmplBase + i) != ((n * i) & kMask)) {
                        *why = strfmt("array_pass element %u", i);
                        return false;
                    }
                }
                return true;
            };
            ks.push_back(std::move(k));
        }
    }
    for (Kernel &k : ks)
        k.job.machine = k.job.name.substr(k.job.name.find(':') + 1);
    return ks;
}

std::vector<Job>
jobsOf(const std::vector<Kernel> &ks)
{
    std::vector<Job> jobs;
    for (const Kernel &k : ks)
        jobs.push_back(k.job);
    return jobs;
}

/** Set-up: read the kernels and compile all of them into a fresh
 *  Toolchain (translate + compile + decode), as moreSetups says. */
std::unique_ptr<Toolchain>
setUp(const Args &a, std::vector<Kernel> *ks, double *setup_s)
{
    std::vector<double> times;
    std::unique_ptr<Toolchain> tc;
    const auto s0 = Clock::now();
    for (int rep = 0; moreSetups(rep, s0); ++rep) {
        const auto t0 = Clock::now();
        *ks = makeKernels(a);
        tc = std::make_unique<Toolchain>();
        for (const Kernel &k : *ks)
            tc->compile(k.job);
        times.push_back(secondsSince(t0));
    }
    *setup_s = median(times);
    return tc;
}

struct Round {
    double wall = 0;
    double cpu = 0;
    bool traced = false;
    std::vector<JobResult> results;
};

std::vector<Round>
timedRounds(const Toolchain &tc, const std::vector<Job> &jobs,
            double seconds, bool alternate)
{
    std::vector<Round> rounds;
    const auto t0 = Clock::now();
    while (rounds.size() < 2 || secondsSince(t0) < seconds) {
        Round r;
        r.traced = alternate && rounds.size() % 2 == 1;
        if (r.traced)
            SpanTracer::instance().enable();
        const auto r0 = Clock::now();
        BatchReport rep = BatchRunner(tc, kThreads).run(jobs);
        r.wall = secondsSince(r0);
        if (r.traced)
            SpanTracer::instance().disable();
        r.cpu = rep.cpuSeconds;
        r.results = std::move(rep.results);
        rounds.push_back(std::move(r));
    }
    return rounds;
}

/**
 * Check every run of every round: the job's own checks (ok), the
 * closed-form variables, and cycles equal to the forced-slow no-JIT
 * reference run.
 */
void
checkRounds(const std::vector<Kernel> &ks,
            const std::vector<Round> &rounds, Outcome &out)
{
    std::vector<Job> slow = jobsOf(ks);
    for (Job &j : slow) {
        j.options.jit = false;
        j.forceSlowPath = true;
    }
    Toolchain refTc;
    const BatchReport ref = BatchRunner(refTc, kThreads).run(slow);
    for (const Round &r : rounds) {
        for (size_t i = 0; i < ks.size(); ++i) {
            ++out.attempted;
            const JobResult &got = r.results[i];
            const JobResult &want = ref.results[i];
            std::string why;
            if (!got.ok)
                why = got.diagnostics.empty() ? "failed"
                                              : got.diagnostics.front();
            else if (!want.ok)
                why = "reference run failed";
            else if (got.vars != ks[i].expect)
                why = "variables differ from the closed form";
            else if (got.sim.cycles != want.sim.cycles)
                why = strfmt("cycles %llu, forced-slow %llu",
                             (unsigned long long)got.sim.cycles,
                             (unsigned long long)want.sim.cycles);
            if (!why.empty()) {
                out.correct = false;
                out.fail(ks[i].job.name + ": " + why);
            }
        }
    }
}

Outcome
traced(const Args &a, const Toolchain &tc, const std::vector<Kernel> &ks)
{
    Outcome out;
    const std::vector<Job> jobs = jobsOf(ks);

    // Layer-by-layer replay on a fresh Toolchain, so the JIT compiles
    // its regions inside the traced runs.
    Tracer tr;
    Toolchain replayTc;
    LayerTotals tot;
    std::vector<JobResult> replayed =
        replayAll(tr, replayTc, jobs, kThreads, true, tot);
    setLayerMetrics(out, tr, tot, replayTc.cacheStats());

    // The same kernels with the JIT off (interpreter fast path).
    std::vector<Job> interp = jobs;
    for (Job &j : interp)
        j.options.jit = false;
    Toolchain interpTc;
    const BatchReport ir = BatchRunner(interpTc, kThreads).run(interp);
    double iw = 0, is = 0;
    for (const JobResult &r : ir.results) {
        iw += double(r.sim.wordsExecuted);
        is += r.runSeconds;
    }
    out.set("sim.interp_words_per_s", is > 0 ? iw / is : 0, "words/s");

    std::vector<Round> rounds = timedRounds(tc, jobs, a.seconds, true);
    double wallOff = 0, wallOn = 0, nOff = 0, nOn = 0;
    std::vector<double> walls, idles;
    for (const Round &r : rounds) {
        (r.traced ? wallOn : wallOff) += r.wall;
        (r.traced ? nOn : nOff) += 1;
        walls.push_back(r.wall);
        idles.push_back(r.wall * kThreads - r.cpu);
    }
    out.set("batch.wall_s", median(walls), "s");
    out.set("batch.idle_s", median(idles), "s");
    out.set("trace.overhead_ratio",
            nOn > 0 && wallOff > 0 ? (wallOn / nOn) / (wallOff / nOff) : 0,
            "ratio");

    Round replayRound;
    replayRound.results = std::move(replayed);
    Round interpRound;
    interpRound.results = ir.results;
    rounds.push_back(std::move(replayRound));
    rounds.push_back(std::move(interpRound));
    checkRounds(ks, rounds, out);

    const std::string path =
        strfmt("%s/trace-sim_long-%llu.json", a.outDir.c_str(),
               (unsigned long long)a.seed);
    out.notes.push_back(tr.write(path) ? "spans written to " + path
                                       : "could not write " + path);
    return out;
}

} // namespace

Outcome
runSimLong(const Args &a)
{
    std::vector<Kernel> ks;
    double setup_s = 0;
    std::unique_ptr<Toolchain> tc = setUp(a, &ks, &setup_s);
    if (a.trace)
        return traced(a, *tc, ks);

    Outcome out;
    const std::vector<Job> jobs = jobsOf(ks);
    std::vector<Round> rounds = timedRounds(*tc, jobs, a.seconds, false);

    // Windows of kRoundsPerWindow rounds (a short tail is dropped
    // unless it is all there is).
    std::vector<Window> windows;
    std::vector<double> bestMs(jobs.size(), HUGE_VAL);
    uint64_t words = 0;
    for (size_t at = 0; at < rounds.size(); at += kRoundsPerWindow) {
        if (at + kRoundsPerWindow > rounds.size() && !windows.empty())
            break;
        Window w;
        for (size_t k = at;
             k < std::min(rounds.size(), at + kRoundsPerWindow); ++k) {
            w.wall += rounds[k].wall;
            w.requests += 1;
            w.reqMs.push_back(rounds[k].wall * 1e3);
            for (size_t j = 0; j < jobs.size(); ++j) {
                const JobResult &jr = rounds[k].results[j];
                w.jobs += 1;
                w.words += double(jr.sim.wordsExecuted);
                w.runSeconds += jr.runSeconds;
                bestMs[j] = std::min(
                    bestMs[j], (jr.compileSeconds + jr.runSeconds) * 1e3);
            }
        }
        words += uint64_t(w.words);
        windows.push_back(std::move(w));
    }
    uint64_t codeWords = 0, simCycles = 0;
    for (const JobResult &jr : rounds.front().results) {
        if (jr.artefact)
            codeWords += jr.artefact->store().size();
        simCycles += jr.sim.cycles;
    }
    checkRounds(ks, rounds, out);

    out.set("setup_s", setup_s, "s");
    setWindowMetrics(out, windows);
    setBestJobMetrics(out, bestMs);
    out.set("code_words", double(codeWords), "words");
    out.set("sim_cycles", double(simCycles), "cycles");
    // Closed loop, one client: the request rate it sustains.
    out.set("max_rps", overWindows(windows, true, [](const Window &w) {
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
        "sim_long: %zu kernel jobs per request, %zu requests on %u "
        "threads in %zu windows of %zu, %llu words simulated",
        jobs.size(), rounds.size(), kThreads, windows.size(),
        kRoundsPerWindow, (unsigned long long)words));
    return out;
}

} // namespace pb
