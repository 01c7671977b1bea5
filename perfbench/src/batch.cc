/**
 * @file
 * The batch half of the benchmark: runner::CampaignSession per spec, in
 * sequence on one shared pool — what `harp_run` does, without its file
 * output — repeated for the measurement budget.
 */

#include <algorithm>
#include <memory>

#include "bench.hh"
#include "common/thread_pool.hh"
#include "runner/campaign.hh"

namespace perfbench {

using namespace harp;

namespace {

/** Set-up repetitions before every pass; the median over the run is
 *  reported, so a few-millisecond figure spans the whole run. */
constexpr std::size_t kSetupRepsPerPass = 15;

/** Registry build, grid expansion of every session, pool start. */
double
timeSetup(const std::vector<std::string> &specs,
          const runner::SessionOptions &options)
{
    const auto start = Clock::now();
    const runner::Registry registry = buildRegistry();
    std::vector<std::unique_ptr<runner::CampaignSession>> sessions;
    for (const runner::ExperimentSpec *spec : registry.select(specs))
        sessions.push_back(
            std::make_unique<runner::CampaignSession>(*spec, options));
    const common::ThreadPool pool(kBatchThreads);
    return secondsSince(start);
}

} // namespace

runner::Registry
buildRegistry()
{
    runner::Registry registry;
    runner::registerMotivationSpecs(registry);
    runner::registerCoverageSpecs(registry);
    runner::registerCaseStudySpecs(registry);
    runner::registerExtensionSpecs(registry);
    runner::registerExampleSpecs(registry);
    runner::registerPerfSpecs(registry);
    runner::registerFleetSpecs(registry);
    return registry;
}

void
measureJson(Context &ctx, const std::vector<std::string> &lines)
{
    std::size_t bytes = 0;
    for (const std::string &line : lines)
        bytes += line.size();
    std::vector<double> seconds;
    for (int rep = 0; rep < 5; ++rep) {
        auto span = ctx.tracer.probe("runner.JsonValue parse+dump");
        const auto start = Clock::now();
        std::size_t out = 0;
        for (const std::string &line : lines)
            out += runner::JsonValue::parse(line).dump().size();
        seconds.push_back(secondsSince(start));
        if (out != bytes)
            ctx.gate.record(false, "JSON parse+dump changed the bytes of "
                                   "a result line");
    }
    ctx.report.layer["runner.json_s"] = median(seconds);
    ctx.report.layer["runner.json_bytes"] = static_cast<double>(bytes);
}

std::map<std::string, std::vector<std::string>>
runBatchWorkload(Context &ctx, const BatchPlan &plan)
{
    Tracer &tracer = ctx.tracer;
    runner::SessionOptions session_options;
    session_options.seed = ctx.options.seed;
    session_options.overrides = plan.overrides;

    const runner::Registry registry = buildRegistry();
    const auto specs = registry.select(plan.specs);
    common::ThreadPool pool(kBatchThreads);

    std::map<std::string, std::vector<double>> session_seconds;
    std::vector<double> setups, critical_path, rss_mb;
    std::vector<double> untraced_walls, traced_walls;
    std::size_t passes = 0, jobs_per_pass = 0;
    std::map<std::string, std::vector<std::string>> last_lines;

    // Passes start until the budget is spent (and at least minPasses
    // ran). A traced run alternates untraced and traced passes, so the
    // two halves give the tracing overhead.
    const auto run_start = Clock::now();
    while (passes < plan.minPasses ||
           secondsSince(run_start) < ctx.options.seconds) {
        const bool untraced = !ctx.options.trace || passes % 2 == 0;
        tracer.setEnabled(!untraced);
        for (std::size_t rep = 0; rep < kSetupRepsPerPass; ++rep)
            setups.push_back(timeSetup(plan.specs, session_options));
        double pass_wall = 0.0, pass_critical = 0.0;
        jobs_per_pass = 0;
        resetPeakRss();
        for (const runner::ExperimentSpec *spec : specs) {
            auto span = tracer.call("runner.session/" + spec->name);
            const auto start = Clock::now();
            CollectSink sink;
            try {
                runner::CampaignSession session(*spec, session_options);
                const runner::CampaignSession::Outcome outcome =
                    session.run(&pool, kBatchThreads, sink);
                const double seconds = secondsSince(start);
                pass_wall += seconds;
                ctx.gate.checkHash(
                    spec->name, runner::formatResultHash(outcome.resultHash));
                jobs_per_pass += session.totalJobs();
                tracer.count("runner.jobs",
                             static_cast<double>(session.totalJobs()));
                if (untraced)
                    session_seconds[spec->name].push_back(seconds);
                if (!outcome.freshJobSeconds.empty())
                    pass_critical +=
                        *std::max_element(outcome.freshJobSeconds.begin(),
                                          outcome.freshJobSeconds.end());
            } catch (const std::exception &e) {
                ctx.gate.record(false, spec->name + ": " + e.what());
            }
            last_lines[spec->name] = std::move(sink.lines);
        }
        rss_mb.push_back(static_cast<double>(peakRssKb()) / 1024.0);
        (untraced ? untraced_walls : traced_walls).push_back(pass_wall);
        if (!untraced || !ctx.options.trace)
            critical_path.push_back(pass_critical);
        ++passes;
    }
    tracer.setEnabled(ctx.options.trace);

    ctx.report.setupSeconds = median(setups);
    ctx.report.peakRssMb = median(rss_mb);
    double wall = 0.0;
    for (const auto &[name, seconds] : session_seconds)
        wall += median(seconds);
    ctx.report.wallSeconds = wall;
    ctx.report.notes.push_back(
        std::to_string(passes) + " passes of " +
        std::to_string(specs.size()) + " session(s), " +
        std::to_string(jobs_per_pass) + " jobs each, on " +
        std::to_string(kBatchThreads) + " pool threads; set-up median of " +
        std::to_string(setups.size()));

    if (ctx.options.trace) {
        ctx.report.layer["trace.overhead_ratio"] =
            median(traced_walls) / median(untraced_walls);
        for (const runner::ExperimentSpec *spec : specs)
            ctx.report.layer["runner.session_s." + spec->name] =
                median(tracer.durations("runner.session/" + spec->name));
        ctx.report.layer["runner.job_s_max"] = median(critical_path);
        ctx.report.layer["runner.jobs"] =
            static_cast<double>(jobs_per_pass);
        std::vector<std::string> all_lines;
        for (const auto &[name, lines] : last_lines)
            all_lines.insert(all_lines.end(), lines.begin(), lines.end());
        measureJson(ctx, all_lines);
    }
    return last_lines;
}

} // namespace perfbench
