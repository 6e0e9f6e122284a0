/**
 * @file
 * Shared plumbing of the uHLL benchmark program: run arguments, the
 * result line, sample statistics, peak memory, and the span recorder
 * the traced runs use to split a run's time across layers.
 *
 * Every workload follows the same shape:
 *
 *   set-up      build the Toolchain / daemon, generate the seeded
 *               inputs, warm what users would have warm; repeated
 *               several times (moreSetups) and reported as the median
 *               setup_s
 *   measure     the timed region, --seconds long
 *   reference   outside the timed region: recompute every output
 *               with an independent reference and count mismatches
 *
 * With --trace 0 a workload reports the end-to-end metrics; with
 * --trace 1 it runs the traced variant and reports the per-layer
 * metrics instead (BENCHMARK.json lists both sets).
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fuzz/generator.hh"

namespace pb {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Set-ups per run: at least kSetupReps, and more (up to 200) while
 *  they have taken under kSetupMinSeconds, since a cheap set-up is a
 *  noisy one; setup_s is their median. */
constexpr int kSetupReps = 7;
constexpr double kSetupMinSeconds = 0.3;

inline bool
moreSetups(int done, Clock::time_point start)
{
    return done < kSetupReps ||
           (done < 200 && secondsSince(start) < kSetupMinSeconds);
}

/** Command-line arguments of one run. */
struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    //! directory the kernels live in (perfbench/kernels)
    std::string kernelDir = "perfbench/kernels";
    //! where traced runs write their span files and the daemon its
    //! socket
    std::string outDir = ".bench_build";
};

/** One named metric value with its unit. */
struct Metric {
    double value = 0;
    std::string unit;
};

/** What one run prints as its last line. */
struct Outcome {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    //! set false by any output that disagrees with its reference
    bool correct = true;
    std::map<std::string, Metric> metrics;
    //! human-readable lines printed before the result line
    std::vector<std::string> notes;
    //! first few failure diagnostics (printed to stderr)
    std::vector<std::string> failures;

    void set(const std::string &name, double value,
             const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }

    /** Count one failed operation; keeps the first diagnostics. */
    void fail(const std::string &why);

    /** The result line (one JSON object, no newline). */
    std::string json() const;
};

/** Interpolated percentile (@p p in [0, 100]) of @p v; 0 if empty. */
double percentile(std::vector<double> v, double p);

inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50);
}

/**
 * One window of a timed loop: a pass over the inputs, a group of
 * requests or a slice of the arrivals. Each timing metric is the
 * better-quartile window's own figure (overWindows), so a stall of
 * the shared host moves one window rather than the run's result.
 */
struct Window {
    double wall = 0;        //!< seconds
    double jobs = 0;        //!< jobs completed
    double requests = 0;    //!< requests completed
    double words = 0;       //!< simulated control words
    //! simulator seconds the jobs reported (0: use wall)
    double runSeconds = 0;
    std::vector<double> reqMs;
};

/**
 * The better quartile over @p ws of @p f(window): the 25th percentile
 * of a lower-is-better figure, the 75th of a higher-is-better one.
 * Other tenants of a shared host (CPU steal) only ever slow a window,
 * so this quartile follows the program more closely than the median
 * while still ignoring the single luckiest window.
 */
template <typename F>
double
overWindows(const std::vector<Window> &ws, bool higher_better, F f)
{
    std::vector<double> v;
    for (const Window &w : ws)
        v.push_back(f(w));
    return percentile(std::move(v), higher_better ? 75 : 25);
}

/** jobs_per_s, req_p50/p99_ms and sim_words_per_s from @p ws (the
 *  metrics every workload measures the same way). */
void setWindowMetrics(Outcome &out, const std::vector<Window> &ws);

/**
 * job_p50_ms and job_p99_ms over @p best_ms: each distinct job's best
 * time over the run's repetitions of it, so a stall of the shared host
 * inflates no job's figure (compile_cold and sim_long repeat every
 * job in every pass or request).
 */
void setBestJobMetrics(Outcome &out, const std::vector<double> &best_ms);

/** Peak resident set of this process in MiB (getrusage). */
double peakRssMb();

/** Uniform in [0, 1) from the fuzz farm's seeded generator (the
 *  benchmark draws all of its inputs from FuzzRng streams). */
inline double
unitOf(uhll::FuzzRng &rng)
{
    return double(rng.next() >> 11) * 0x1.0p-53;
}

/** The one known defect the generated inputs can hit: a program
 *  whose `sets` variable was optimised away fails with "setVar:
 *  variable '...' was not allocated". Counted as failed, but not as
 *  a wrong result. */
inline bool
knownDefect(const std::string &diag)
{
    return diag.find("setVar: variable") != std::string::npos &&
           diag.find("was not allocated") != std::string::npos;
}

/**
 * In-memory span recorder for traced runs. Spans nest per thread
 * (a Scope's parent is the innermost open Scope on the same thread);
 * a span's self time is its duration minus its children's and minus
 * time it attributes to a named layer it cannot wrap itself (e.g.
 * the simulator time a Toolchain::run call reports). Spans are kept
 * in memory and written out once, when the run ends.
 */
class Tracer
{
  public:
    struct Span {
        uint32_t id = 0;
        uint32_t parent = 0;    //!< 0 = root
        uint32_t lane = 0;
        std::string name;
        double t0 = 0, t1 = 0;  //!< seconds since the tracer's epoch
        double childSeconds = 0;
        //! time inside this span credited to another layer
        std::vector<std::pair<std::string, double>> attributed;
    };

    /** RAII span on the calling thread. */
    class Scope
    {
      public:
        Scope(Tracer &t, std::string name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Credit @p seconds of this span to layer @p layer. */
        void attribute(const std::string &layer, double seconds);

      private:
        Tracer &t_;
        Span s_;
        Scope *up_;
    };

    Tracer();

    /** Total self seconds per span name (attributions included). */
    std::map<std::string, double> selfSeconds() const;

    /** Sum of the durations of spans named @p name. */
    double totalSeconds(const std::string &name) const;

    /** Number of spans named @p name. */
    uint64_t count(const std::string &name) const;

    /** All spans as Chrome trace_event JSON. */
    std::string chromeJson() const;

    /** Write chromeJson() to @p path; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    friend class Scope;
    void record(Span s);

    /** The calling thread's lane ordinal (first use registers). */
    uint32_t lane();

    Clock::time_point epoch_;
    std::atomic<uint32_t> nextId_{1};
    mutable std::mutex mu_;
    std::vector<Span> spans_;                   //!< guarded by mu_
    std::map<std::thread::id, uint32_t> lanes_; //!< guarded by mu_
};

/** @name Workloads (one entry point each) */
/// @{
Outcome runCompileCold(const Args &a);
Outcome runSimLong(const Args &a);
/// @}

/**
 * The service and proc layers (perfbench/src/daemon.cc): an
 * in-process uhlld under a seeded open loop for about @p seconds, on
 * thread and then process isolation. Sets service.*, gen.lag_ms and
 * proc.* in @p out and checks every response against a local
 * BatchRunner report.
 */
void measureServiceLayers(const Args &a, double seconds, Outcome &out);

} // namespace pb

#endif // PERFBENCH_BENCH_HH
