/**
 * @file
 * The harpd probe of a traced run: a harpd::Server with a 2-thread
 * pool and four tenants,
 * each holding one connection in a closed loop (a tenant sends its
 * next request only after reading the previous one to its end, as
 * harpd_client does). Each tenant cycles through three request
 * classes, one spec each:
 *
 *  - interactive: submit quickstart (1 job) at priority interactive;
 *  - batch:       submit table01_repair_survey (7 jobs);
 *  - replay:      subscribe from=0 to the tenant's latest batch
 *                 campaign, read through its trailing status line.
 *
 * A round is a fixed count of requests on a fresh daemon and data
 * dir: harpd keeps every finished campaign in memory, so a fixed
 * duration would turn a throughput gain into a memory regression.
 *
 * This is a probe, not a gated workload: every submit fsyncs several
 * times, and on a shared virtual disk the round time of consecutive
 * runs varied by more than 2x, beyond any usable bound.
 */

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.hh"
#include "common/bits.hh"
#include "harpd/checkpoint.hh"
#include "harpd/client.hh"
#include "harpd/server.hh"
#include "runner/campaign.hh"

namespace perfbench {

using namespace harp;
using runner::JsonValue;

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kServerThreads = 2;
constexpr std::size_t kTenants = 4;
constexpr const char *kInteractiveSpec = "quickstart";
constexpr const char *kBatchSpec = "table01_repair_survey";
/** Request cycles per tenant in one round (3 requests each). */
constexpr std::size_t kCycles = 25;
constexpr std::size_t kRounds = 4;

/**
 * Layer metrics <prefix>_p50 and <prefix>_tail of @p ms, plus a report
 * line. The tail is the highest percentile with at least ten samples
 * beyond it (the median when there are too few).
 */
void
reportTail(Context &ctx, const std::string &prefix,
           const std::vector<double> &ms)
{
    double percentile = 50.0;
    for (const double p : {99.9, 99.0, 97.5, 95.0, 90.0, 75.0})
        if ((1.0 - p / 100.0) * static_cast<double>(ms.size()) >= 10.0) {
            percentile = p;
            break;
        }
    const double p50 = median(ms);
    const double tail = quantile(ms, percentile / 100.0);
    ctx.report.layer[prefix + "_p50"] = p50;
    ctx.report.layer[prefix + "_tail"] = tail;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "%s: p50 %.3f ms, p%g %.3f ms over %zu samples",
                  prefix.c_str(), p50, percentile, tail, ms.size());
    ctx.report.notes.push_back(buf);
}

/** A wedged daemon fails the request instead of hanging the run. */
harpd::ClientOptions
clientOptions()
{
    harpd::ClientOptions options;
    options.ioTimeoutMs = 30000;
    return options;
}

double
msSince(Clock::time_point start)
{
    return secondsSince(start) * 1e3;
}

/** What a batch (harp_run) session of one spec produces. */
struct Reference
{
    std::string hash;
    std::vector<std::string> lines;
};

Reference
batchReference(const runner::Registry &registry, const std::string &spec,
               std::uint64_t seed)
{
    runner::SessionOptions options;
    options.seed = seed;
    runner::CampaignSession session(*registry.find(spec), options);
    CollectSink sink;
    const auto outcome = session.run(nullptr, 1, sink);
    return {runner::formatResultHash(outcome.resultHash),
            std::move(sink.lines)};
}

std::string
hashLines(const std::vector<std::string> &lines)
{
    std::uint64_t hash = common::fnv1a64Init;
    for (const std::string &line : lines) {
        hash = common::fnv1a64(line, hash);
        hash = common::fnv1a64("\n", hash);
    }
    return runner::formatResultHash(hash);
}

/** A running daemon on data dir @p dir, stopped and joined on
 *  destruction. The files stay until the probe ends: deleting
 *  thousands of small files between rounds slowed the next round's
 *  fsyncs. */
class Daemon
{
  public:
    Daemon(const runner::Registry &registry, const std::string &dir)
    {
        fs::create_directories(dir);
        harpd::ServerConfig config;
        config.socketPath = (fs::path(dir) / "harpd.sock").string();
        config.dataDir = (fs::path(dir) / "data").string();
        config.threads = kServerThreads;
        config.registry = &registry;
        socket_ = config.socketPath;
        server_ = std::make_unique<harpd::Server>(config);
        server_->start();
        thread_ = std::thread([this] { server_->serve(); });
    }

    ~Daemon()
    {
        server_->requestStop();
        thread_.join();
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    const std::string &socket() const { return socket_; }

  private:
    std::string socket_;
    std::unique_ptr<harpd::Server> server_;
    std::thread thread_;
};

/** Latency samples of one round, per class. */
struct Samples
{
    std::vector<double> interactive, firstResult, replay, accept, stream;
    std::size_t submits = 0, queued = 0;

    void append(const Samples &o)
    {
        for (auto [to, from] :
             {std::pair{&interactive, &o.interactive},
              std::pair{&firstResult, &o.firstResult},
              std::pair{&replay, &o.replay},
              std::pair{&accept, &o.accept},
              std::pair{&stream, &o.stream}})
            to->insert(to->end(), from->begin(), from->end());
        submits += o.submits;
        queued += o.queued;
    }
};

/** One tenant's connection and closed loop. */
class Tenant
{
  public:
    Tenant(Context &ctx, std::size_t index, const std::string &socket,
           const std::map<std::string, Reference> &refs)
        : ctx_(ctx), name_("tenant" + std::to_string(index)),
          client_(socket, clientOptions()), refs_(refs)
    {
    }

    /** Submit @p spec and read its stream to `done` (or an error);
     *  record submit -> done and submit -> first result where asked. */
    void submit(const std::string &id, const std::string &spec,
                const char *priority, std::vector<double> *done_ms,
                std::vector<double> *first_result_ms)
    {
        auto span = ctx_.tracer.call(std::string("harpd submit/") + spec);
        JsonValue request = JsonValue::object();
        request.set("verb", JsonValue("submit"));
        request.set("campaign", JsonValue(id));
        JsonValue experiments = JsonValue::array();
        experiments.push(JsonValue(spec));
        request.set("experiments", experiments);
        request.set("seed", JsonValue(std::to_string(ctx_.options.seed)));
        request.set("tenant", JsonValue(name_));
        request.set("priority", JsonValue(priority));

        const Reference &ref = refs_.at(spec);
        const auto start = Clock::now();
        Clock::time_point accepted = start;
        std::vector<std::string> lines;
        std::string summary_hash, error;
        bool done = false;
        ++samples.submits;
        client_.send(request);
        while (!done && error.empty()) {
            const std::optional<JsonValue> reply = client_.read();
            if (!reply) {
                error = "connection lost";
                break;
            }
            const std::string &type = reply->find("type")->asString();
            if (type == "accepted") {
                accepted = Clock::now();
                samples.accept.push_back(msSince(start));
            } else if (type == "queued") {
                ++samples.queued;
            } else if (type == "result") {
                if (lines.empty() && first_result_ms != nullptr)
                    first_result_ms->push_back(msSince(start));
                lines.push_back(reply->find("line")->asString());
            } else if (type == "summary") {
                summary_hash = reply->find("summary")
                                   ->find("experiments")
                                   ->at(0)
                                   .find("result_hash")
                                   ->asString();
            } else if (type == "done") {
                done = true;
            } else if (type == "error") {
                error = reply->dump();
            }
        }
        if (done) {
            if (done_ms != nullptr)
                done_ms->push_back(msSince(start));
            samples.stream.push_back(
                std::chrono::duration<double, std::milli>(Clock::now() -
                                                          accepted)
                    .count());
        }
        if (error.empty() && summary_hash != ref.hash)
            error = "summary result_hash " + summary_hash +
                    " != batch " + ref.hash;
        if (error.empty() && hashLines(lines) != ref.hash)
            error = "streamed lines differ from batch";
        ctx_.gate.record(error.empty(), id + ": " + error);
        if (!error.empty())
            broken_ = true;
    }

    /** Replay campaign @p id from seq 0 through its status line. */
    void replay(const std::string &id)
    {
        auto span = ctx_.tracer.call("harpd subscribe");
        JsonValue request = JsonValue::object();
        request.set("verb", JsonValue("subscribe"));
        request.set("campaign", JsonValue(id));
        request.set("from", JsonValue(0));
        const auto start = Clock::now();
        client_.send(request);
        std::vector<std::string> lines;
        std::string error, state;
        for (;;) {
            const std::optional<JsonValue> reply = client_.read();
            if (!reply) {
                error = "connection lost";
                break;
            }
            const std::string &type = reply->find("type")->asString();
            if (type == "result") {
                lines.push_back(reply->find("line")->asString());
            } else if (type == "status") {
                state = reply->find("state")->asString();
                break;
            } else if (type == "error") {
                error = reply->dump();
                break;
            }
        }
        if (error.empty()) {
            samples.replay.push_back(msSince(start));
            if (state != "done")
                error = "replay ended in state " + state;
            else if (hashLines(lines) != refs_.at(kBatchSpec).hash)
                error = "replayed lines differ from batch";
        }
        ctx_.gate.record(error.empty(), id + " replay: " + error);
        if (!error.empty())
            broken_ = true;
    }

    /** The closed loop; the thread entry, so nothing escapes it. */
    void run(std::size_t cycles)
    {
        try {
            for (std::size_t c = 0; c < cycles && !broken_; ++c) {
                const std::string id = name_ + "-" + std::to_string(c);
                submit(id + "i", kInteractiveSpec, "interactive",
                       &samples.interactive, nullptr);
                submit(id + "b", kBatchSpec, "normal", nullptr,
                       &samples.firstResult);
                if (!broken_)
                    replay(id + "b");
                requestsDone.fetch_add(3);
            }
        } catch (const std::exception &e) {
            ctx_.gate.record(false, name_ + ": " + e.what());
        }
    }

    Samples samples;
    std::atomic<std::size_t> requestsDone{0};

  private:
    Context &ctx_;
    std::string name_;
    harpd::Client client_;
    const std::map<std::string, Reference> &refs_;
    bool broken_ = false;
};

struct RoundResult
{
    Samples samples;
    /** First request sent to last reply read, over all tenants. */
    double wallSeconds = 0.0;
    double rssKbPerCampaign = 0.0;
    double shareDev = 0.0;
};

RoundResult
runRound(Context &ctx, const runner::Registry &registry,
         const std::map<std::string, Reference> &refs, std::size_t cycles,
         const std::string &dir)
{
    const Daemon daemon(registry, dir);
    std::vector<std::unique_ptr<Tenant>> tenants;
    for (std::size_t t = 0; t < kTenants; ++t)
        tenants.push_back(
            std::make_unique<Tenant>(ctx, t, daemon.socket(), refs));

    const std::size_t rss_before = currentRssKb();
    const auto start = Clock::now();
    std::atomic<bool> snapshot_taken{false};
    double share_dev = 0.0; // written once, by the first tenant to finish
    std::vector<std::thread> threads;
    for (auto &tenant : tenants)
        threads.emplace_back([&, t = tenant.get()] {
            t->run(cycles);
            // Fair-share witness: when the first tenant finishes, how far
            // is each tenant's completed share from an equal one?
            if (snapshot_taken.exchange(true))
                return;
            std::vector<double> done;
            double total = 0.0;
            for (auto &other : tenants) {
                done.push_back(
                    static_cast<double>(other->requestsDone.load()));
                total += done.back();
            }
            for (const double d : done)
                if (total > 0.0)
                    share_dev = std::max(
                        share_dev,
                        std::abs(d / total - 1.0 / double(kTenants)));
        });
    for (std::thread &thread : threads)
        thread.join();

    RoundResult result;
    result.wallSeconds = secondsSince(start);
    const double campaigns = static_cast<double>(2 * kTenants * cycles);
    result.rssKbPerCampaign =
        (static_cast<double>(currentRssKb()) -
         static_cast<double>(rss_before)) /
        campaigns;
    result.shareDev = share_dev;
    for (auto &tenant : tenants)
        result.samples.append(tenant->samples);
    return result;
}

/** CheckpointWriter::add on the workload's lines, in the data dir's
 *  filesystem, fsync on (the daemon's default). */
void
probeCheckpointAppend(Context &ctx, const Reference &ref)
{
    const fs::path dir = fs::path(ctx.options.workDir) / "ckpt-probe";
    fs::remove_all(dir);
    fs::create_directories(dir);
    harpd::CheckpointHeader header;
    header.campaign = "probe";
    header.experiments = {kBatchSpec};
    header.seed = ctx.options.seed;
    std::vector<double> ms;
    {
        auto span = ctx.tracer.probe("harpd.CheckpointWriter::add");
        harpd::CheckpointWriter writer((dir / "probe.ckpt").string(),
                                       header);
        const std::size_t appends = ctx.options.tiny() ? 24 : 240;
        for (std::size_t i = 0; i < appends; ++i) {
            const harpd::CheckpointRecord record{
                0, i, ref.lines[i % ref.lines.size()]};
            const auto start = Clock::now();
            const std::error_code ec = writer.add(record);
            ms.push_back(msSince(start));
            if (ec) {
                ctx.gate.record(false,
                                "checkpoint append: " + ec.message());
                break;
            }
        }
    }
    reportTail(ctx, "harpd.checkpoint_append_ms", ms);
    fs::remove_all(dir);
}

} // namespace

void
probeServed(Context &ctx)
{
    const std::size_t cycles = ctx.options.tiny() ? 2 : kCycles;
    const std::size_t rounds = ctx.options.tiny() ? 1 : kRounds;
    const fs::path served_dir = fs::path(ctx.options.workDir) / "served";
    fs::remove_all(served_dir);
    auto span = ctx.tracer.probe("harpd served rounds");

    const runner::Registry registry = buildRegistry();
    std::map<std::string, Reference> refs;
    for (const char *spec : {kInteractiveSpec, kBatchSpec}) {
        refs[spec] = batchReference(registry, spec, ctx.options.seed);
        ctx.gate.checkHash(spec, refs[spec].hash);
    }

    Samples samples;
    std::vector<double> walls, rss_per_campaign, share_dev;
    for (std::size_t r = 0; r < rounds; ++r) {
        const RoundResult round =
            runRound(ctx, registry, refs, cycles,
                     (served_dir / ("round" + std::to_string(r))).string());
        walls.push_back(round.wallSeconds);
        rss_per_campaign.push_back(round.rssKbPerCampaign);
        share_dev.push_back(round.shareDev);
        samples.append(round.samples);
    }
    fs::remove_all(served_dir);

    const std::size_t requests = 3 * kTenants * cycles;
    ctx.report.notes.push_back(
        "harpd probe: " + std::to_string(rounds) + " rounds of " +
        std::to_string(requests) + " requests (" + std::to_string(kTenants) +
        " closed-loop tenants x " + std::to_string(cycles) +
        " cycles x 3 classes) on a " + std::to_string(kServerThreads) +
        "-thread daemon; median round " +
        std::to_string(median(walls) * 1e3) + " ms");
    auto &layer = ctx.report.layer;
    reportTail(ctx, "harpd.interactive_ms", samples.interactive);
    reportTail(ctx, "harpd.first_result_ms", samples.firstResult);
    reportTail(ctx, "harpd.replay_ms", samples.replay);
    layer["harpd.accept_ms_p50"] = median(samples.accept);
    layer["harpd.stream_ms_p50"] = median(samples.stream);
    layer["harpd.queued_ratio"] =
        static_cast<double>(samples.queued) /
        static_cast<double>(std::max<std::size_t>(1, samples.submits));
    layer["harpd.rss_kb_per_campaign"] = median(rss_per_campaign);
    layer["common.fair.max_share_dev"] = median(share_dev);
    probeCheckpointAppend(ctx, refs[kBatchSpec]);
}

} // namespace perfbench
