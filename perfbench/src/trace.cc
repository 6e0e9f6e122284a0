#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include <sys/resource.h>

#include "obs/json.hh"
#include "support/fsio.hh"

namespace pb {

namespace {

//! innermost open span on this thread (spans nest per thread)
thread_local Tracer::Scope *tlsTop = nullptr;

/** A JSON number with every digit, or 0 for non-finite values. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quote(const std::string &s)
{
    return uhll::JsonWriter::quote(s);
}

} // namespace

void
Outcome::fail(const std::string &why)
{
    ++failed;
    if (failures.size() < 8)
        failures.push_back(why);
}

std::string
Outcome::json() const
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        if (!first)
            s += ", ";
        first = false;
        s += quote(name) + ": {\"value\": " + num(m.value) +
             ", \"unit\": " + quote(m.unit) + "}";
    }
    return s + "}}";
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * double(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - double(lo);
    // Exact ranks and equal neighbours return the sample itself, so
    // infinite samples (requests never served) stay infinite.
    if (frac == 0 || v[lo] == v[hi])
        return v[lo];
    return v[lo] + (v[hi] - v[lo]) * frac;
}

void
setWindowMetrics(Outcome &out, const std::vector<Window> &ws)
{
    out.set("jobs_per_s",
            overWindows(ws, true, [](const Window &w) {
                return w.wall > 0 ? w.jobs / w.wall : 0;
            }),
            "jobs/s");
    out.set("req_p50_ms", overWindows(ws, false, [](const Window &w) {
                return percentile(w.reqMs, 50);
            }),
            "ms");
    out.set("req_p99_ms", overWindows(ws, false, [](const Window &w) {
                return percentile(w.reqMs, 99);
            }),
            "ms");
    out.set("sim_words_per_s",
            overWindows(ws, true, [](const Window &w) {
                const double s = w.runSeconds > 0 ? w.runSeconds : w.wall;
                return s > 0 ? w.words / s : 0;
            }),
            "words/s");
}

void
setBestJobMetrics(Outcome &out, const std::vector<double> &best_ms)
{
    out.set("job_p50_ms", percentile(best_ms, 50), "ms");
    out.set("job_p99_ms", percentile(best_ms, 99), "ms");
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer::Scope::Scope(Tracer &t, std::string name) : t_(t), up_(tlsTop)
{
    s_.id = t.nextId_.fetch_add(1);
    s_.parent = up_ ? up_->s_.id : 0;
    s_.lane = t.lane();
    s_.name = std::move(name);
    tlsTop = this;
    s_.t0 = std::chrono::duration<double>(Clock::now() - t.epoch_)
                .count();
}

Tracer::Scope::~Scope()
{
    s_.t1 = std::chrono::duration<double>(Clock::now() - t_.epoch_)
                .count();
    tlsTop = up_;
    if (up_)
        up_->s_.childSeconds += s_.t1 - s_.t0;
    t_.record(std::move(s_));
}

void
Tracer::Scope::attribute(const std::string &layer, double seconds)
{
    s_.attributed.emplace_back(layer, seconds);
}

uint32_t
Tracer::lane()
{
    std::lock_guard<std::mutex> lk(mu_);
    return lanes_.emplace(std::this_thread::get_id(),
                          static_cast<uint32_t>(lanes_.size()))
        .first->second;
}

void
Tracer::record(Span s)
{
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(s));
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::map<std::string, double> out;
    for (const Span &s : spans_) {
        double self = s.t1 - s.t0 - s.childSeconds;
        for (const auto &[layer, sec] : s.attributed) {
            self -= sec;
            out[layer] += sec;
        }
        out[s.name] += self;
    }
    return out;
}

double
Tracer::totalSeconds(const std::string &name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    double sum = 0;
    for (const Span &s : spans_) {
        if (s.name == name)
            sum += s.t1 - s.t0;
    }
    return sum;
}

uint64_t
Tracer::count(const std::string &name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    uint64_t n = 0;
    for (const Span &s : spans_)
        n += s.name == name;
    return n;
}

std::string
Tracer::chromeJson() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::string out = "{\"traceEvents\": [\n";
    bool first = true;
    for (const Span &s : spans_) {
        if (!first)
            out += ",\n";
        first = false;
        out += "{\"name\": " + quote(s.name) +
               ", \"ph\": \"X\", \"pid\": 0, \"tid\": " +
               std::to_string(s.lane) + ", \"ts\": " + num(s.t0 * 1e6) +
               ", \"dur\": " + num((s.t1 - s.t0) * 1e6) +
               ", \"args\": {\"id\": " + std::to_string(s.id) +
               ", \"parent\": " + std::to_string(s.parent);
        for (const auto &[layer, sec] : s.attributed)
            out += ", " + quote(layer + "_us") + ": " + num(sec * 1e6);
        out += "}}";
    }
    return out + "\n]}\n";
}

bool
Tracer::write(const std::string &path) const
{
    std::string err;
    return uhll::atomicWriteDurable(path, chromeJson(), &err);
}

} // namespace pb
