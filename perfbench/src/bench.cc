#include "bench.hh"

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "runner/json.hh"

namespace perfbench {

void
Gate::checkHash(const std::string &name, const std::string &hash)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++attempted_;
    std::string expected;
    if (const auto pin = pinned_.find(name); pin != pinned_.end()) {
        expected = pin->second;
        ++pinnedChecks_;
    } else if (const auto first = seen_.find(name); first != seen_.end()) {
        expected = first->second;
    }
    seen_.emplace(name, hash);
    if (!expected.empty() && expected != hash) {
        ++failed_;
        errors_.push_back(name + ": result_hash " + hash + " != expected " +
                          expected);
    }
}

void
Gate::record(bool ok, const std::string &error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++attempted_;
    if (!ok) {
        ++failed_;
        errors_.push_back(error);
    }
}

std::size_t
Gate::attempted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return attempted_;
}

std::size_t
Gate::failed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return failed_;
}

std::map<std::string, std::string>
Gate::seen() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return seen_;
}

std::size_t
Gate::pinnedChecks() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return pinnedChecks_;
}

std::vector<std::string>
Gate::errors() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return errors_;
}

namespace {

/** Per-thread stack of open span indices (the parent chain). */
thread_local std::vector<std::size_t> openSpans;

unsigned
threadIndex()
{
    static std::mutex mutex;
    static std::map<std::thread::id, unsigned> ids;
    std::lock_guard<std::mutex> lock(mutex);
    return ids.emplace(std::this_thread::get_id(),
                       static_cast<unsigned>(ids.size()))
        .first->second;
}

double
micros(Clock::time_point at, Clock::time_point origin)
{
    return std::chrono::duration<double, std::micro>(at - origin).count();
}

} // namespace

Tracer::Span::Span(Tracer *tracer, std::string name, const char *category)
    : tracer_(tracer->enabled() ? tracer : nullptr)
{
    if (tracer_ != nullptr)
        index_ = tracer_->open(std::move(name), category);
}

Tracer::Span::~Span()
{
    if (tracer_ != nullptr)
        tracer_->close(index_);
}

std::size_t
Tracer::open(std::string name, const char *category)
{
    Record record;
    record.name = std::move(name);
    record.category = category;
    record.parent = openSpans.empty()
                        ? -1
                        : static_cast<long>(openSpans.back());
    record.thread = threadIndex();
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t index = spans_.size();
    record.start = Clock::now();
    spans_.push_back(std::move(record));
    openSpans.push_back(index);
    return index;
}

void
Tracer::close(std::size_t index)
{
    const auto end = Clock::now();
    openSpans.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    Record &record = spans_[index];
    record.end = end;
    if (record.parent >= 0)
        spans_[static_cast<std::size_t>(record.parent)].childSeconds +=
            std::chrono::duration<double>(record.end - record.start)
                .count();
}

void
Tracer::count(const std::string &name, double value)
{
    if (!enabled_)
        return;
    const unsigned thread = threadIndex();
    std::lock_guard<std::mutex> lock(mutex_);
    counts_.push_back({name, Clock::now(), value, thread});
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Record &r : spans_)
        if (r.name == name)
            out.push_back(
                std::chrono::duration<double>(r.end - r.start).count());
    return out;
}

std::size_t
Tracer::spanCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

void
Tracer::write(const std::string &path) const
{
    using harp::runner::JsonValue;
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw std::runtime_error("cannot write trace " + path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Record &r = spans_[i];
        const double dur = micros(r.end, r.start);
        std::snprintf(buf, sizeof buf,
                      ",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                      "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%ld,"
                      "\"self_us\":%.3f}}",
                      r.thread, micros(r.start, origin_), dur, i, r.parent,
                      dur - r.childSeconds * 1e6);
        out << (first ? "" : ",\n") << "{\"name\":"
            << JsonValue(r.name).dump() << ",\"cat\":\"" << r.category
            << '"' << buf;
        first = false;
    }
    for (const Count &c : counts_) {
        std::snprintf(buf, sizeof buf,
                      ",\"ph\":\"C\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                      "\"args\":{\"value\":%.17g}}",
                      c.thread, micros(c.at, origin_), c.value);
        out << (first ? "" : ",\n") << "{\"name\":"
            << JsonValue(c.name).dump() << buf;
        first = false;
    }
    out << "\n]}\n";
    if (!out)
        throw std::runtime_error("cannot write trace " + path);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

namespace {

std::size_t
statusKb(const char *field)
{
    std::ifstream status("/proc/self/status");
    const std::string prefix = field;
    std::string line;
    while (std::getline(status, line))
        if (line.rfind(prefix, 0) == 0)
            return static_cast<std::size_t>(
                std::stoul(line.substr(prefix.size())));
    return 0;
}

} // namespace

std::size_t
currentRssKb()
{
    return statusKb("VmRSS:");
}

std::size_t
peakRssKb()
{
    return statusKb("VmHWM:");
}

void
resetPeakRss()
{
    // Return freed heap to the system first, so the window starts from
    // what is live rather than from what earlier passes left cached.
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

const std::vector<std::string> &
paperSpecs()
{
    static const std::vector<std::string> specs = {
        "fig02_wasted_storage",
        "fig04_postcorrection_probability",
        "fig06_direct_coverage",
        "fig07_bootstrapping",
        "fig08_indirect_coverage",
        "fig09_secondary_ecc",
        "fig10_case_study",
        "table01_repair_survey",
        "table02_amplification",
        "ablation_code_length",
        "ablation_data_patterns",
        "extension_dec_on_die_ecc",
        "bch_t_sweep",
        "extension_low_probability",
        "extension_secondary_interleaving",
    };
    return specs;
}

} // namespace perfbench
