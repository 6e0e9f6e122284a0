/**
 * @file
 * The service and proc layers, measured in compile_cold's traced run:
 * an in-process uhlld (ServiceDaemon) on an AF_UNIX socket, driven by
 * a seeded open-loop generator.
 *
 * 4 in 5 requests repeat one of kRepeated manifests (cache reads);
 * every 5th carries a freshly generated program (a miss, and with the
 * small cache cap an eviction: cache writes). Arrivals have
 * exponential gaps at kRate, come from kTenants tenants and go out
 * over kConnections connections, one request in flight per
 * connection; each request is a single-job manifest sent with op
 * "job". A warm-up phase fills the cache, then one traced phase runs
 * on the thread-isolated daemon (the service layer) and one on a
 * fresh daemon with process isolation -- 2 sandboxed workers, this
 * binary re-executed with --worker -- for the proc layer.
 *
 * Reference: every response must equal, byte for byte, the report a
 * local BatchRunner renders for the same manifest (with the "timing"
 * object cut from both, since traced requests ask for timings); the
 * references are computed after the phases.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include <unistd.h>

#include "bench.hh"
#include "driver/batch.hh"
#include "fuzz/generator.hh"
#include "obs/json.hh"
#include "obs/telemetry.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "support/logging.hh"

using namespace uhll;

namespace pb {

namespace {

constexpr unsigned kConnections = 4;
constexpr unsigned kTenants = 2;
constexpr double kRate = 800;   // req/s
constexpr unsigned kRepeated = 48;
constexpr unsigned kFreshPool = 2000;
//! every kFreshOneIn-th request carries a fresh program
constexpr unsigned kFreshOneIn = 5;
//! statement budgets: small repeated requests, compile_cold-sized
//! fresh ones (their compiles are the cache misses)
constexpr unsigned kRepeatedBudget = 20;
constexpr unsigned kFreshBudget = 80;
constexpr unsigned kDaemonWorkers = 2;
constexpr uint64_t kCacheCapBytes = 4ull << 20;
//! share of the phases' time spent warming up (not measured)
constexpr double kWarmShare = 0.2;

struct Arrival {
    double due = 0;     //!< seconds after the phase start
    uint32_t manifest = 0;
    uint32_t tenant = 0;
};

/** What the client saw for one request (times: seconds after the
 *  phase start). */
struct Sample {
    uint32_t manifest = 0;
    double due = 0, sent = -1, done = -1;
    double lag = 0;         //!< generator lateness when it was queued
    bool ok = false;        //!< transport and envelope ok
    uint64_t hash = 0;      //!< response bytes, "timing" removed
    double jobSeconds = 0;  //!< compile + run (timed requests)
    std::string err;
};

uint64_t
fnv(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s)
        h = (h ^ c) * 0x100000001b3ull;
    return h;
}

/** @p report without its "timing" object (present with timings on),
 *  so a timed response compares to a timed reference. */
std::string
stripTiming(const std::string &report)
{
    const size_t at = report.rfind("\"timing\"");
    if (at == std::string::npos)
        return report;
    const size_t comma = report.rfind(',', at);
    const size_t close = report.find('}', at);
    if (comma == std::string::npos || close == std::string::npos)
        return report;
    return report.substr(0, comma) + report.substr(close + 1);
}

/** The number after "key": in @p text (0 when absent). */
double
numberAfter(const std::string &text, const char *key)
{
    const std::string k = std::string("\"") + key + "\":";
    const size_t at = text.rfind(k);
    return at == std::string::npos
               ? 0
               : std::strtod(text.c_str() + at + k.size(), nullptr);
}

std::string
manifestJson(const GeneratedProgram &p, const std::string &name)
{
    JsonWriter w(false);
    w.beginObject();
    w.beginArray("jobs");
    w.beginObject();
    w.value("name", name);
    w.value("lang", p.lang);
    w.value("machine", p.machine);
    w.value("source", p.source);
    w.value("entry", p.entry);
    w.beginObject("sets");
    for (const auto &[n, v] : p.sets)
        w.value(n, v);
    w.endObject();
    w.endObject();
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
requestBody(const std::string &manifest, bool timings)
{
    JsonWriter w(false);
    w.beginObject();
    w.raw("manifest", manifest);
    w.value("timings", timings);
    w.endObject();
    return w.str();
}

/** The seeded inputs: kRepeated manifests, then the fresh pool. */
struct Inputs {
    std::vector<std::string> manifests;
    std::vector<std::string> plainBodies;   //!< timings off
    std::vector<std::string> timedBodies;   //!< timings on
};

Inputs
makeInputs(uint64_t seed)
{
    Inputs in;
    FuzzRng rng(seed);
    const std::vector<std::string> langs = fuzzGeneratorLangs();
    const std::vector<std::string> machs = machineNames();
    for (unsigned i = 0; i < kRepeated + kFreshPool; ++i) {
        const GeneratedProgram p = generateProgram(
            langs[i % langs.size()],
            machs[(i / langs.size()) % machs.size()], rng.next(),
            i < kRepeated ? kRepeatedBudget : kFreshBudget);
        in.manifests.push_back(manifestJson(p, strfmt("m%u", i)));
        in.plainBodies.push_back(requestBody(in.manifests.back(), false));
        in.timedBodies.push_back(requestBody(in.manifests.back(), true));
    }
    return in;
}

/** kRate x @p seconds arrivals with exponential gaps; every
 *  kFreshOneIn-th takes the next fresh manifest from the pool
 *  (starting at *fresh_next), the rest a random repeated one. */
std::vector<Arrival>
schedule(uint64_t seed, double seconds, uint32_t *fresh_next)
{
    FuzzRng rng(seed);
    const size_t n = size_t(std::llround(kRate * seconds));
    std::vector<Arrival> out(n);
    double t = 0;
    for (size_t i = 0; i < n; ++i) {
        t += -std::log(1.0 - unitOf(rng)) / kRate;
        out[i].due = t;
        out[i].tenant = uint32_t(rng.below(kTenants));
        out[i].manifest =
            i % kFreshOneIn == kFreshOneIn - 1
                ? kRepeated + (*fresh_next)++ % kFreshPool
                : uint32_t(rng.below(kRepeated));
    }
    return out;
}

/** One daemon with its socket, started by the constructor. */
class Daemon
{
  public:
    Daemon(IsolationMode isolation, const std::string &dir)
    {
        ServiceConfig cfg;
        cfg.socketPath = strfmt("%s/pb-%d.sock", dir.c_str(),
                                int(getpid()));
        cfg.workers = kDaemonWorkers;
        cfg.cacheCapBytes = kCacheCapBytes;
        cfg.maxActive = 2;
        cfg.maxQueue = 16;
        cfg.tenantQuota = 2;
        cfg.isolation = isolation;
        cfg.pool.workers = kDaemonWorkers;
        daemon_ = std::make_unique<ServiceDaemon>(cfg);
        std::string err;
        if (!daemon_->start(&err))
            fatal("daemon start: %s", err.c_str());
    }
    ~Daemon()
    {
        daemon_->stop();
        ::unlink(socket().c_str());
    }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    const std::string &socket() const
    {
        return daemon_->config().socketPath;
    }

    /** The daemon registry via the `stats` op. */
    JsonValue stats() const
    {
        ServiceClient cl;
        std::string err;
        ServiceResponse resp;
        if (!cl.connectTo(socket(), &err) ||
            !cl.request("stats", "bench", "stats", "", &resp, &err) ||
            !resp.ok)
            fatal("stats op failed: %s", err.c_str());
        return JsonValue::parse(resp.follow);
    }

  private:
    std::unique_ptr<ServiceDaemon> daemon_;
};

double
stat(const JsonValue &s, const char *group, const char *name)
{
    const JsonValue *g = s.get(group);
    const JsonValue *v = g ? g->get(name) : nullptr;
    return v ? v->asNumber() : 0;
}

/**
 * Drive one open-loop phase: queue each arrival when it is due, send
 * it on the first free connection. With @p tr, each request is a
 * "request" span around a "service" span (the round trip), which
 * credits the compile and run seconds a timed response reports to
 * toolchain.compile and sim.
 */
std::vector<Sample>
runPhase(const std::string &sock, const Inputs &in,
         const std::vector<Arrival> &arr, bool timed, Tracer *tr)
{
    std::vector<Sample> samples(arr.size());
    std::mutex mu;
    std::condition_variable cv;
    std::deque<size_t> queue;   // guarded by mu
    bool closing = false;       // guarded by mu
    const auto t0 = Clock::now() + std::chrono::milliseconds(5);
    auto rel = [&] { return std::chrono::duration<double>(
                                Clock::now() - t0).count(); };

    std::vector<std::thread> conns;
    for (unsigned c = 0; c < kConnections; ++c) {
        conns.emplace_back([&] {
            ServiceClient cl;
            std::string err;
            const bool connected = cl.connectTo(sock, &err);
            for (;;) {
                size_t i;
                {
                    std::unique_lock<std::mutex> lk(mu);
                    cv.wait(lk, [&] { return closing || !queue.empty(); });
                    if (queue.empty())
                        return;
                    i = queue.front();
                    queue.pop_front();
                }
                Sample &s = samples[i];
                const Arrival &a = arr[i];
                std::optional<Tracer::Scope> req;
                if (tr)
                    req.emplace(*tr, "request");
                ServiceResponse resp;
                s.sent = rel();
                {
                    std::optional<Tracer::Scope> svc;
                    if (tr)
                        svc.emplace(*tr, "service");
                    const std::string &body =
                        timed ? in.timedBodies[a.manifest]
                              : in.plainBodies[a.manifest];
                    s.ok = connected &&
                           cl.request("job", strfmt("t%u", a.tenant),
                                      strfmt("%zu", i), body, &resp,
                                      &err) &&
                           resp.ok;
                    if (timed && s.ok) {
                        const double cs =
                            numberAfter(resp.follow, "compile_seconds");
                        const double rs =
                            numberAfter(resp.follow, "run_seconds");
                        s.jobSeconds = cs + rs;
                        if (svc) {
                            svc->attribute("toolchain.compile", cs);
                            svc->attribute("sim", rs);
                        }
                    }
                }
                s.done = rel();
                if (!s.ok)
                    s.err = connected ? (resp.error.empty() ? err
                                                            : resp.error)
                                      : "connect: " + err;
                s.hash = fnv(timed ? stripTiming(resp.follow)
                                   : resp.follow);
            }
        });
    }

    for (size_t i = 0; i < arr.size(); ++i) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(arr[i].due)));
        samples[i].manifest = arr[i].manifest;
        samples[i].due = arr[i].due;
        samples[i].lag = rel() - arr[i].due;
        std::lock_guard<std::mutex> lk(mu);
        queue.push_back(i);
        cv.notify_one();
    }
    {
        std::lock_guard<std::mutex> lk(mu);
        closing = true;
    }
    cv.notify_all();
    for (std::thread &t : conns)
        t.join();
    return samples;
}

/** The reference report of one manifest. */
struct Reference {
    uint64_t plain = 0;     //!< hash of the --no-timings bytes
    uint64_t timed = 0;     //!< hash of the timed bytes, timing cut
    bool ok = false;
    std::string diag;
};

/** Reference reports for every manifest in @p used, rendered by a
 *  local BatchRunner. */
std::vector<Reference>
references(const Inputs &in, const std::vector<bool> &used)
{
    std::vector<uint32_t> which;
    for (uint32_t i = 0; i < used.size(); ++i) {
        if (used[i])
            which.push_back(i);
    }
    // In batches over a one-entry cache, so the artefacts of
    // thousands of references are never all alive at once.
    Toolchain tc;
    tc.setCacheCapBytes(1);
    std::vector<Reference> refs(used.size());
    constexpr size_t kBatch = 64;
    for (size_t at = 0; at < which.size(); at += kBatch) {
        const size_t n = std::min(kBatch, which.size() - at);
        std::vector<Job> jobs;
        for (size_t k = at; k < at + n; ++k) {
            std::vector<Job> js = parseManifest(
                JsonValue::parse(in.manifests[which[k]]), "");
            jobs.push_back(std::move(js.at(0)));
        }
        const BatchReport rep = BatchRunner(tc, kDaemonWorkers).run(jobs);
        for (size_t k = 0; k < n; ++k) {
            const JobResult &r = rep.results[k];
            Reference &ref = refs[which[at + k]];
            ref.plain = fnv(r.toJson(true, false) + "\n");
            ref.timed = fnv(stripTiming(r.toJson(true, true) + "\n"));
            ref.ok = r.ok;
            ref.diag =
                r.diagnostics.empty() ? "" : r.diagnostics.front();
        }
    }
    return refs;
}

/** Check @p ss against the references: a failed request, different
 *  bytes or a failed job count as failures. */
void
check(const std::vector<Sample> &ss, const std::vector<Reference> &refs,
      bool timed, Outcome &out)
{
    for (const Sample &s : ss) {
        ++out.attempted;
        if (!s.ok) {
            out.correct = false;
            out.fail("request failed: " + s.err);
            continue;
        }
        const Reference &ref = refs[s.manifest];
        if (s.hash != (timed ? ref.timed : ref.plain)) {
            out.correct = false;
            out.fail(strfmt("manifest m%u: response differs from the "
                            "local BatchRunner report",
                            s.manifest));
        } else if (!ref.ok) {
            if (!knownDefect(ref.diag))
                out.correct = false;
            out.fail(strfmt("manifest m%u: job failed: %s", s.manifest,
                            ref.diag.c_str()));
        }
    }
}

void
markUsed(const std::vector<Sample> &ss, std::vector<bool> *used)
{
    for (const Sample &s : ss)
        (*used)[s.manifest] = true;
}

/** Median of (round trip - the job time the response reports). */
double
overheadMs(const std::vector<Sample> &ss)
{
    std::vector<double> v;
    for (const Sample &s : ss) {
        if (s.ok)
            v.push_back((s.done - s.sent - s.jobSeconds) * 1e3);
    }
    return median(v);
}

/** A traced phase: timed requests, spans, the in-program SpanTracer,
 *  and a sampler polling the stats op for the queue depth. */
struct TracedPhase {
    std::vector<Sample> samples;
    JsonValue before, after;
    double queueDepthMax = 0;
};

TracedPhase
tracedPhase(const Daemon &d, const Inputs &in,
            const std::vector<Arrival> &arr, Tracer &tr)
{
    TracedPhase p;
    p.before = d.stats();
    std::atomic<bool> stop{false};
    std::thread sampler([&] {
        try {
            while (!stop.load()) {
                p.queueDepthMax =
                    std::max(p.queueDepthMax,
                             stat(d.stats(), "service", "queueDepth"));
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
            }
        } catch (const FatalError &e) {
            // The phase's own requests report a dead daemon; the
            // sampler just stops.
            warn("stats sampler: %s", e.what());
        }
    });
    SpanTracer::instance().enable();
    p.samples = runPhase(d.socket(), in, arr, true, &tr);
    SpanTracer::instance().disable();
    stop.store(true);
    sampler.join();
    p.after = d.stats();
    return p;
}

} // namespace

void
measureServiceLayers(const Args &a, double seconds, Outcome &out)
{
    const Inputs in = makeInputs(a.seed);
    Tracer tr;
    uint32_t fresh = 0;
    const double phase = seconds * (1 - kWarmShare) / 2;
    const std::vector<Arrival> warmArr =
        schedule(a.seed * 3 + 1, seconds * kWarmShare, &fresh);
    const std::vector<Arrival> threadArr =
        schedule(a.seed * 3 + 2, phase, &fresh);
    const std::vector<Arrival> procArr =
        schedule(a.seed * 3 + 3, phase, &fresh);

    std::vector<Sample> warm;
    TracedPhase tp, pp;
    {
        Daemon d(IsolationMode::Thread, a.outDir);
        warm = runPhase(d.socket(), in, warmArr, false, nullptr);
        tp = tracedPhase(d, in, threadArr, tr);
    }
    {
        Daemon pd(IsolationMode::Process, a.outDir);
        pp = tracedPhase(pd, in, procArr, tr);
    }

    auto delta = [](const TracedPhase &p, const char *g, const char *n) {
        return stat(p.after, g, n) - stat(p.before, g, n);
    };
    const double serviceMs = overheadMs(tp.samples);
    std::vector<double> lags;
    for (const Sample &s : tp.samples)
        lags.push_back(s.lag * 1e3);
    out.set("service.overhead_ms", serviceMs, "ms");
    out.set("service.queue_depth_max", tp.queueDepthMax, "count");
    out.set("service.rejected", delta(tp, "service", "rejected"),
            "count");
    out.set("gen.lag_ms", percentile(lags, 99), "ms");
    out.set("proc.overhead_ms", overheadMs(pp.samples) - serviceMs, "ms");
    out.set("proc.dispatched", delta(pp, "proc", "dispatched"), "count");
    out.set("proc.cache_hits", delta(pp, "proc", "cacheHits"), "count");
    out.set("proc.cache_misses", delta(pp, "proc", "cacheMisses"),
            "count");
    out.set("proc.spawns", stat(pp.after, "proc", "spawns"), "count");
    out.set("proc.crashes", stat(pp.after, "proc", "crashes"), "count");

    std::vector<bool> used(in.manifests.size(), false);
    markUsed(warm, &used);
    markUsed(tp.samples, &used);
    markUsed(pp.samples, &used);
    const std::vector<Reference> refs = references(in, used);
    check(warm, refs, false, out);
    check(tp.samples, refs, true, out);
    check(pp.samples, refs, true, out);

    const std::string path =
        strfmt("%s/trace-service-%llu.json", a.outDir.c_str(),
               (unsigned long long)a.seed);
    out.notes.push_back(strfmt(
        "service layers: %zu + %zu traced requests at %.0f req/s over %u "
        "connections (%u tenants), thread then process isolation",
        tp.samples.size(), pp.samples.size(), kRate, kConnections,
        kTenants));
    out.notes.push_back(tr.write(path) ? "spans written to " + path
                                       : "could not write " + path);
}

} // namespace pb
