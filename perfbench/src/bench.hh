/**
 * @file
 * Shared plumbing of the end-to-end benchmark: options, the output
 * gate, the span tracer, order statistics and the metric report.
 *
 * Each workload (paper.cc, fleet.cc) drives the repository's libraries
 * in-process and fills one Report; served.cc is the harpd probe of a
 * traced run. main.cc prints the Report as the benchmark's single JSON
 * result line.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "runner/registry.hh"
#include "runner/session.hh"

namespace harp::ecc {
class HammingCode;
}
namespace harp::fault {
class WordFaultModel;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Measurement budget: passes start while less has elapsed. */
    double seconds = 45.0;
    bool trace = false;
    /** "default" (the workload as documented) or "tiny" (smoke test). */
    std::string scale = "default";
    /** Directory for the daemon's data dirs and probe files. */
    std::string workDir = ".bench_build/work";
    /** Pinned result hashes (JSON); empty = none. */
    std::string pinnedPath;
    /** Chrome trace-event output of a traced run. */
    std::string traceOut;

    bool tiny() const { return scale == "tiny"; }
};

/**
 * The output gate: every checked result counts as one attempted
 * operation, every mismatch or error as one failed operation.
 */
class Gate
{
  public:
    /** @param pinned (name -> 16-hex result hash) for this scale and
     *                seed; names absent from it are checked for
     *                repeatability across passes instead. */
    explicit Gate(std::map<std::string, std::string> pinned)
        : pinned_(std::move(pinned))
    {
    }

    /** Check one computed result hash of @p name. */
    void checkHash(const std::string &name, const std::string &hash);
    /** Count one operation that succeeded or failed with @p error. */
    void record(bool ok, const std::string &error = "");

    std::size_t attempted() const;
    std::size_t failed() const;
    /** Hashes seen per name (first pass), for the report. */
    std::map<std::string, std::string> seen() const;
    /** Names whose hash was compared against a pinned value. */
    std::size_t pinnedChecks() const;
    std::vector<std::string> errors() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::string> pinned_;
    std::map<std::string, std::string> seen_;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    std::size_t pinnedChecks_ = 0;
    std::vector<std::string> errors_;
};

/**
 * In-memory span recorder. Spans nest per thread (the parent is the
 * innermost open span of the same thread); a disabled tracer records
 * nothing and reads no clock. write() emits Chrome trace-event JSON
 * with each span's self time (duration minus its children's).
 */
class Tracer
{
  public:
    /** RAII span; a no-op when the tracer is disabled. */
    class Span
    {
      public:
        Span(Tracer *tracer, std::string name, const char *category);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer *tracer_;
        std::size_t index_ = 0;
    };

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** A span around a public call of the program. */
    Span call(std::string name) { return Span(this, std::move(name), "call"); }
    /** A span around a layer probe: the layer's public entry run on
     *  inputs of the workload's shape, outside the workload's own
     *  timed passes. */
    Span probe(std::string name)
    {
        return Span(this, std::move(name), "probe");
    }
    /** A count recorded next to the current span. */
    void count(const std::string &name, double value);

    /** Durations (seconds) of every span named @p name. */
    std::vector<double> durations(const std::string &name) const;
    std::size_t spanCount() const;

    /** Write Chrome trace-event JSON; throws on I/O failure. */
    void write(const std::string &path) const;

  private:
    struct Record
    {
        std::string name;
        const char *category = "call";
        Clock::time_point start;
        Clock::time_point end;
        long parent = -1;
        unsigned thread = 0;
        double childSeconds = 0.0;
    };
    struct Count
    {
        std::string name;
        Clock::time_point at;
        double value = 0.0;
        unsigned thread = 0;
    };

    std::size_t open(std::string name, const char *category);
    void close(std::size_t index);

    bool enabled_ = false;
    Clock::time_point origin_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Record> spans_;
    std::vector<Count> counts_;
};

/** Linear-interpolation quantile of @p values (q in [0, 1]). */
double quantile(std::vector<double> values, double q);
double median(const std::vector<double> &values);


/** What a workload reports. */
struct Report
{
    /** End-to-end metrics of an untraced run. */
    double setupSeconds = 0.0;
    double wallSeconds = 0.0;
    double peakRssMb = 0.0;
    /** Per-layer metrics of a traced run (name -> value); names not
     *  set stay 0: the workload does not reach that layer. */
    std::map<std::string, double> layer;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> notes;
};

/** Everything a workload needs. */
struct Context
{
    const Options &options;
    Gate &gate;
    Tracer &tracer;
    Report &report;
};

void runPaperCampaign(Context &ctx);
void runFleetSweep(Context &ctx);

/** harpd.* and common.fair.* of a traced run: closed-loop tenants
 *  against an in-process harpd::Server (see served.cc), a probe. */
void probeServed(Context &ctx);

/** A fresh registry holding every built-in experiment (the registry
 *  build step of set-up; builtinRegistry() is built only once). */
harp::runner::Registry buildRegistry();

/** Collects a session's result lines in job order. */
class CollectSink : public harp::runner::ResultSink
{
  public:
    void onResult(std::size_t, const std::string &line, bool) override
    {
        lines.push_back(line);
    }

    std::vector<std::string> lines;
};

/** Pool width of the batch workloads. */
inline constexpr std::size_t kBatchThreads = 4;

/** One batch workload: CampaignSessions of @p specs, in sequence on
 *  one shared pool, repeated for the measurement budget. */
struct BatchPlan
{
    std::vector<std::string> specs;
    std::map<std::string, std::string> overrides;
    std::size_t minPasses = 4;
};

/** Set-up, timed passes, output gate and the runner-layer metrics of
 *  a batch workload; returns the lines of the last pass per spec. */
std::map<std::string, std::vector<std::string>>
runBatchWorkload(Context &ctx, const BatchPlan &plan);

/** core.round.* of the sliced round engine (64-lane block, Naive +
 *  HARP-U profilers) over the given words, a probe. */
void probeRoundEngine(
    Context &ctx, const std::vector<const harp::ecc::HammingCode *> &codes,
    const std::vector<const harp::fault::WordFaultModel *> &faults,
    std::size_t rounds);

/** runner.json_s / runner.json_bytes over @p lines. */
void measureJson(Context &ctx, const std::vector<std::string> &lines);

/** Current resident set size of this process in KiB (0 if unknown). */
std::size_t currentRssKb();
/** Peak resident set size (VmHWM) in KiB since the last reset. */
std::size_t peakRssKb();
/** Trim the heap and restart the peak-RSS window (writes
 *  /proc/self/clear_refs). */
void resetPeakRss();

/** The 15 paper specs the paper_campaign workload runs. */
const std::vector<std::string> &paperSpecs();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
