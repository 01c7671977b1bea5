/**
 * @file
 * harp_perfbench: the repository's end-to-end benchmark program.
 *
 *   harp_perfbench --workload paper_campaign|fleet_sweep
 *                  --seed N --seconds S --trace 0|1
 *                  [--scale default|tiny] [--work-dir DIR]
 *                  [--pinned FILE] [--trace-out FILE]
 *
 * Prints a human-readable report, then one JSON line:
 * {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
 * carrying the end-to-end metrics (--trace 0) or the per-layer metrics
 * of a traced run (--trace 1). Exits non-zero, without a result line,
 * when the run cannot be set up.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench.hh"
#include "runner/json.hh"

namespace perfbench {
namespace {

using harp::runner::JsonValue;

/** Per-layer metric names and units (reported by every traced run;
 *  0 where the workload does not reach the layer). */
std::vector<std::pair<std::string, std::string>>
layerMetricUnits()
{
    std::vector<std::pair<std::string, std::string>> units;
    for (const std::string &spec : paperSpecs())
        units.emplace_back("runner.session_s." + spec, "s");
    units.emplace_back("runner.session_s.fleet_policy_sweep", "s");
    const std::pair<const char *, const char *> rest[] = {
        {"runner.job_s_max", "s"},
        {"runner.jobs", "count"},
        {"runner.json_s", "s"},
        {"runner.json_bytes", "bytes"},
        {"core.ground_truth_s", "s"},
        {"core.ground_truth.patterns", "count"},
        {"core.ground_truth.feasible_ratio", "ratio"},
        {"core.round.generate_s", "s"},
        {"core.round.datapath_s", "s"},
        {"core.round.observe_s", "s"},
        {"core.round.word_rounds", "count"},
        {"core.round.scatter_ratio", "ratio"},
        {"ecc.codec_build_s", "s"},
        {"ecc.bch_memo_hit_ratio", "ratio"},
        {"fleet.sample_s", "s"},
        {"fleet.make_sim_s", "s"},
        {"fleet.profile_s", "s"},
        {"memsys.field_op_s", "s"},
        {"fleet.aggregate_s", "s"},
        {"fleet.faulty_chips", "count"},
        {"fleet.faulty_ratio", "ratio"},
        {"harpd.accept_ms_p50", "ms"},
        {"harpd.queued_ratio", "ratio"},
        {"harpd.stream_ms_p50", "ms"},
        {"harpd.checkpoint_append_ms_p50", "ms"},
        {"harpd.checkpoint_append_ms_tail", "ms"},
        {"harpd.rss_kb_per_campaign", "KiB"},
        {"harpd.interactive_ms_p50", "ms"},
        {"harpd.interactive_ms_tail", "ms"},
        {"harpd.first_result_ms_p50", "ms"},
        {"harpd.first_result_ms_tail", "ms"},
        {"harpd.replay_ms_p50", "ms"},
        {"harpd.replay_ms_tail", "ms"},
        {"common.fair.max_share_dev", "ratio"},
        {"trace.overhead_ratio", "ratio"},
    };
    for (const auto &[name, unit] : rest)
        units.emplace_back(name, unit);
    return units;
}

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "harp_perfbench: " << error
              << "\nusage: harp_perfbench --workload "
                 "paper_campaign|fleet_sweep --seed N "
                 "--seconds S --trace 0|1 [--scale default|tiny] "
                 "[--work-dir DIR] [--pinned FILE] [--trace-out FILE]\n";
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                options.workload = value;
            else if (flag == "--seed")
                options.seed = std::stoull(value);
            else if (flag == "--seconds")
                options.seconds = std::stod(value);
            else if (flag == "--trace")
                options.trace = std::stoi(value) != 0;
            else if (flag == "--scale")
                options.scale = value;
            else if (flag == "--work-dir")
                options.workDir = value;
            else if (flag == "--pinned")
                options.pinnedPath = value;
            else if (flag == "--trace-out")
                options.traceOut = value;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (options.workload.empty())
        usage("--workload is required");
    if (options.scale != "default" && options.scale != "tiny")
        usage("--scale must be default or tiny");
    return options;
}

/** Pinned hashes for (scale, seed): {scale: {seed: {name: hash}}}. */
std::map<std::string, std::string>
loadPins(const Options &options)
{
    std::map<std::string, std::string> pins;
    if (options.pinnedPath.empty())
        return pins;
    std::ifstream in(options.pinnedPath, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + options.pinnedPath);
    std::stringstream text;
    text << in.rdbuf();
    const JsonValue doc = JsonValue::parse(text.str());
    const JsonValue *scale = doc.find(options.scale);
    const JsonValue *seed =
        scale != nullptr ? scale->find(std::to_string(options.seed))
                         : nullptr;
    if (seed == nullptr)
        return pins;
    for (const auto &[name, hash] : seed->members())
        pins[name] = hash.asString();
    return pins;
}

std::string
number(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

int
run(const Options &options)
{
    Gate gate(loadPins(options));
    Tracer tracer;
    tracer.setEnabled(options.trace);
    Report report;
    std::filesystem::create_directories(options.workDir);
    Context ctx{options, gate, tracer, report};

    if (options.workload == "paper_campaign")
        runPaperCampaign(ctx);
    else if (options.workload == "fleet_sweep")
        runFleetSweep(ctx);
    else
        usage("unknown workload " + options.workload);

    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    if (options.trace) {
        const auto units = layerMetricUnits();
        for (const auto &[name, value] : report.layer) {
            bool known = false;
            for (const auto &entry : units)
                known = known || entry.first == name;
            if (!known)
                throw std::logic_error("undeclared layer metric " + name);
        }
        for (const auto &[name, unit] : units)
            metrics.push_back({name, {report.layer[name], unit}});
        if (!options.traceOut.empty()) {
            tracer.write(options.traceOut);
            report.notes.push_back("trace: " + options.traceOut + " (" +
                                   std::to_string(tracer.spanCount()) +
                                   " spans)");
        }
    } else {
        metrics = {
            {"setup_s", {report.setupSeconds, "s"}},
            {"wall_s", {report.wallSeconds, "s"}},
            {"peak_rss_mb", {report.peakRssMb, "MB"}},
        };
    }

    for (const auto &[name, hash] : gate.seen())
        report.notes.push_back("hash " + name + " " + hash);
    report.notes.push_back("pinned hash checks: " +
                           std::to_string(gate.pinnedChecks()));
    for (const std::string &error : gate.errors())
        report.notes.push_back("FAILED: " + error);
    for (const std::string &note : report.notes)
        std::cout << "# " << note << '\n';

    const std::size_t attempted = gate.attempted();
    const std::size_t failed = gate.failed();
    const bool correct = failed == 0 && attempted > 0;
    std::ostringstream line;
    line << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        line << (i == 0 ? "" : ", ") << JsonValue(metrics[i].first).dump()
             << ": {\"value\": " << number(metrics[i].second.first)
             << ", \"unit\": \"" << metrics[i].second.second << "\"}";
    line << "}}";
    std::cout << line.str() << std::endl;
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(perfbench::parseOptions(argc, argv));
    } catch (const std::exception &e) {
        std::cerr << "harp_perfbench: " << e.what() << '\n';
        return 1;
    }
}
