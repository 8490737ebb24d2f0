/**
 * @file
 * The benchmark program.
 *
 *   perfbench record  --workload W --seed N --out DIR
 *   perfbench measure --workload W --seed N --in DIR --seconds S
 *                     --trace 0|1 [--spans FILE]
 *
 * `record` is the set-up: it records the workload's traces
 * kSetupRepeats times, checks that the recordings are byte-identical,
 * saves one copy, and prints the median set-up time. `measure`
 * analyzes the saved traces for S seconds and prints, as its last
 * line, the result object: end-to-end metrics with --trace 0,
 * per-layer metrics (from spans around each layer's public calls) with
 * --trace 1.
 */

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "bench.hh"
#include "oracle/scorer.hh"
#include "service_phase.hh"
#include "support/crc32.hh"
#include "support/timer.hh"

namespace perfbench {

namespace {

/** Recordings of the traces per set-up; setup_s is their median. */
constexpr unsigned kSetupRepeats = 3;
/** Passes over an offline workload's traces, whatever --seconds says. */
constexpr unsigned kMinPasses = 3;
/**
 * Workers of the parallel analyzer (plus the caller) that the traced
 * run of apps-p10000 checks against the serial one.
 */
constexpr unsigned kParallelWorkers = 3;
/** fleet-open: open-loop sessions and their nominal rate. */
constexpr size_t kOpenLoopSessions = 150;
constexpr double kOpenLoopRate = 12.0;
/** fleet-open: flood phases (sessions_per_s is their median) and size. */
constexpr unsigned kFloods = 11;
constexpr size_t kFloodSessions = 96;

struct Args {
    std::string mode, workload, dir, spans;
    uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    if (argc < 2)
        return false;
    a.mode = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *v = argv[i + 1];
        if (key == "--workload")
            a.workload = v;
        else if (key == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (key == "--out" || key == "--in")
            a.dir = v;
        else if (key == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else if (key == "--trace")
            a.trace = std::strcmp(v, "1") == 0;
        else if (key == "--spans")
            a.spans = v;
        else
            return false;
    }
    return (a.mode == "record" || a.mode == "measure") &&
        knownWorkload(a.workload) && !a.dir.empty() && a.seconds > 0;
}

int
record(const Args &args)
{
    const std::vector<TraceSpec> specs =
        workloadSpecs(args.workload, args.seed);
    TraceSet first;
    std::vector<double> times;
    uint64_t attempted = 0, failed = 0;
    for (unsigned r = 0; r < kSetupRepeats; ++r) {
        TraceSet set;
        set.specs = specs;
        const double before = calibrationSlice();
        Stopwatch timer;
        set.subjects = buildSubjects(specs);
        for (size_t i = 0; i < specs.size(); ++i) {
            RecordStats stats;
            set.bytes.push_back(
                recordTrace(specs[i], *set.subjects[i], stats));
            set.stats.push_back(stats);
        }
        const double seconds = timer.lap();
        times.push_back(atReferenceSpeed(
            seconds, 0.5 * (before + calibrationSlice())));
        if (r == 0) {
            first = std::move(set);
            continue;
        }
        // Recording is a pure function of the seed: every repeat must
        // reproduce the first byte for byte.
        for (size_t i = 0; i < specs.size(); ++i) {
            ++attempted;
            if (set.bytes[i] != first.bytes[i])
                ++failed;
        }
    }
    saveTraceSet(first, args.dir);

    uint32_t digest = 0;
    uint64_t bytes = 0;
    for (const auto &b : first.bytes) {
        digest = crc32(b.data(), b.size(), digest);
        bytes += b.size();
    }
    std::printf("set-up: %zu traces, %llu bytes, %u recordings, median "
                "%.3f s\n",
                specs.size(), static_cast<unsigned long long>(bytes),
                kSetupRepeats, median(times));
    std::printf("{\"setup_s\": %.9f, \"traces\": %zu, \"digest\": "
                "\"%08x\", \"attempted\": %llu, \"failed\": %llu}\n",
                median(times), specs.size(), digest,
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    return 0;
}

/** Layer a span name belongs to, for the share table. */
const char *
layerOf(const std::string &span)
{
    if (span == "trace.readTrace")
        return "trace";
    if (span == "analysis.ProgramAnalysis")
        return "analysis";
    if (span == "pmu.decodePt")
        return "pmu";
    if (span == "replay.alignTrace")
        return "replay.align";
    if (span == "replay.replayAll")
        return "replay.replay";
    if (span.rfind("core.", 0) == 0)
        return "core";
    if (span.rfind("detect.", 0) == 0)
        return "detect";
    return "";
}

const char *const kLayers[] = {"trace",         "analysis", "pmu",
                               "replay.align", "replay.replay", "core",
                               "detect"};

/** Everything one measuring run accumulates. */
class Measurement
{
  public:
    Measurement(const Args &args, TraceSet &set)
        : args_(args), set_(set), spans_(args.trace),
          deadline_(Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(args.seconds)))
    {
        const size_t n = set.specs.size();
        reference_.assign(n, {});
        reference_s_.assign(n, 0);
        first_.resize(n);
        secs_.assign(n, {});
        serial_secs_.assign(n, {});
        traced_secs_.assign(n, {});
        par_secs_.assign(n, {});
        for (size_t i = 0; i < n; ++i) {
            const std::string &t = set.specs[i].tenant;
            if (args.workload == "fleet-open" || t == "apps")
                main_.push_back(i);
            else
                probe_.push_back(i);
        }
    }

    int run();

  private:
    bool parallel() const { return args_.trace && !fleet(); }
    bool fleet() const { return args_.workload == "fleet-open"; }
    bool timeLeft() const { return Clock::now() < deadline_; }

    core::OfflineOptions
    options(size_t i) const
    {
        return fleet() ? serviceOptions()
                       : offlineOptions(set_.specs[i], *set_.subjects[i]);
    }

    /** Count one check; a mismatch or failure is a failed attempt. */
    void
    check(bool ok, const char *what, size_t i)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            std::fprintf(stderr, "CHECK FAILED: %s (trace %zu, %s)\n",
                         what, i, set_.specs[i].subject.c_str());
        }
    }

    /** Reference analysis of trace @p i (the identity baseline). */
    void
    setReference(size_t i, const Analysis &a)
    {
        check(a.ok, "analysis ran", i);
        reference_[i] = a.report;
        reference_s_[i] = a.seconds;
        first_[i] = a.result;
        if (a.ok && set_.subjects[i]->has_truth)
            oracle_.add(oracle::scoreReport(set_.subjects[i]->truth,
                                            a.result.report));
    }

    Analysis
    serial(size_t i)
    {
        return analyzeSerial(set_.bytes[i], *set_.subjects[i], options(i));
    }

    /** The parallel analysis, checked against the serial one. */
    void
    parallelCheck(size_t i)
    {
        exec::ExecutorStats ex;
        Analysis p = analyzeParallel(set_.bytes[i], *set_.subjects[i],
                                     options(i), kParallelWorkers, &ex);
        exec_tasks_ += ex.executed;
        exec_steals_ += ex.stolen;
        check(p.ok && p.report == reference_[i],
              "parallel report identical to serial", i);
        par_secs_[i].push_back(p.seconds);
    }

    void offlinePass();
    void tracedPass(unsigned pass);
    void servicePhases();
    void finish();
    void endToEnd(Metrics &m);
    void perLayer(Metrics &m);

    const Args &args_;
    TraceSet &set_;
    SpanRecorder spans_;
    Clock::time_point deadline_;
    std::vector<size_t> main_, probe_;

    std::vector<std::string> reference_;
    std::vector<double> reference_s_;
    std::vector<core::OfflineResult> first_;
    std::vector<std::vector<double>> secs_;        ///< end-to-end runs
    std::vector<std::vector<double>> serial_secs_; ///< untraced, traced run
    std::vector<std::vector<double>> traced_secs_; ///< traced root
    std::vector<std::vector<double>> par_secs_;    ///< parallel analyzer
    std::vector<double> slices_; ///< calibration slices of offline passes
    std::map<uint64_t, size_t> span_trace_; ///< span id -> trace
    uint64_t exec_tasks_ = 0, exec_steals_ = 0;

    uint64_t attempted_ = 0, failed_ = 0;
    oracle::ScoreAccumulator oracle_;
    ServicePhaseResult open_, flood_; ///< flood_: the first flood
    std::vector<double> flood_slices_; ///< paired slices between floods
    std::vector<double> flood_rates_; ///< completions per second
};

void
Measurement::offlinePass()
{
    // Each analysis is calibrated on both sides, as the host's speed
    // drifts within seconds; neighbours share the slice between them.
    double before = calibrationSlice();
    for (const size_t i : main_) {
        Analysis a = serial(i);
        const double after = calibrationSlice();
        slices_.push_back(after);
        // The reference keeps the wall time: service.queue_wait_ms
        // subtracts it from wall times.
        if (reference_[i].empty())
            setReference(i, a);
        check(a.ok && a.report == reference_[i],
              "report identical to the reference", i);
        secs_[i].push_back(
            atReferenceSpeed(a.seconds, 0.5 * (before + after)));
        before = after;
    }
}

void
Measurement::tracedPass(unsigned pass)
{
    for (const size_t i : main_) {
        const uint64_t id = (static_cast<uint64_t>(pass) << 32) | i;
        span_trace_[id] = i;
        Analysis t = analyzeTraced(set_.bytes[i], *set_.subjects[i],
                                   options(i), spans_, id);
        Analysis s = serial(i);
        if (reference_[i].empty())
            setReference(i, s);
        check(s.ok && s.report == reference_[i],
              "serial report identical to the reference", i);
        // The decomposition must describe the same program run.
        check(t.ok && t.report == reference_[i] &&
                  t.result.extended_trace_events ==
                      s.result.extended_trace_events,
              "traced decomposition identical to analyze()", i);
        if (pass == 0)
            first_[i] = t.result;
        traced_secs_[i].push_back(t.seconds);
        serial_secs_[i].push_back(s.seconds);
        if (parallel())
            parallelCheck(i);
    }
}

void
Measurement::servicePhases()
{
    const std::string state = args_.dir + "/service-state";
    if (!fleet()) {
        // Oracle probe through the service: a flood of the probe
        // traces, every report checked against the offline analysis.
        open_ = runServicePhase(set_, probe_, 0, state, reference_,
                                reference_s_, spans_, 1ull << 48);
        return;
    }
    const std::vector<size_t> schedule =
        buildSchedule(set_, kOpenLoopSessions);
    open_ = runServicePhase(set_, schedule, kOpenLoopRate, state,
                            reference_, reference_s_, spans_, 1ull << 48);
    const std::vector<size_t> flood(schedule.begin(),
                                    schedule.begin() + kFloodSessions);
    for (unsigned k = 0; k < kFloods; ++k) {
        // A flood leaves the generator no idle time to calibrate in:
        // it calibrates between floods, on as many threads as the
        // flood keeps busy.
        flood_slices_.push_back(pairedSlice());
        ServicePhaseResult r =
            runServicePhase(set_, flood, 0, state, reference_,
                            reference_s_, spans_, (2ull + k) << 48);
        flood_rates_.push_back(r.rate);
        attempted_ += r.attempted;
        failed_ += r.failed;
        if (k == 0)
            flood_ = std::move(r);
    }
}

int
Measurement::run()
{
    // Identity baselines first: the oracle programs (and for the fleet
    // every stream, with the service's options) analyzed offline before
    // the service sees them.
    for (const size_t i : probe_) {
        setReference(i, serial(i));
        if (parallel())
            parallelCheck(i);
    }
    if (fleet())
        offlinePass();
    servicePhases();
    unsigned min_passes = kMinPasses;
    if (fleet())
        min_passes = args_.trace ? 1 : 0;
    for (unsigned pass = 0; pass < min_passes || timeLeft(); ++pass) {
        if (args_.trace)
            tracedPass(pass);
        else
            offlinePass();
    }
    attempted_ += open_.attempted;
    failed_ += open_.failed;
    finish();
    return 0;
}

void
Measurement::finish()
{
    Metrics m;
    if (args_.trace)
        perLayer(m);
    else
        endToEnd(m);
    if (args_.trace && !args_.spans.empty() &&
        !spans_.writeJsonl(args_.spans))
        std::fprintf(stderr, "cannot write spans to %s\n",
                     args_.spans.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                failed_ == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_),
                m.toJson().c_str());
}

double
sumOfMedians(const std::vector<std::vector<double>> &per_trace,
             const std::vector<size_t> &which)
{
    double sum = 0;
    for (const size_t i : which)
        sum += median(per_trace[i]);
    return sum;
}

void
Measurement::endToEnd(Metrics &m)
{
    double traced_s = 0, mb = 0;
    double tracing = 0, untraced = 0;
    double log_recovery = 0;
    size_t recovering = 0;
    std::vector<double> latencies;
    size_t analyses = 0;
    std::printf("%-16s %10s %10s %12s %10s\n", "trace", "traced s",
                "median s", "s/s", "recovery");
    for (const size_t i : main_) {
        const RecordStats &rec = set_.stats[i];
        const replay::ReplayStats &replay = first_[i].replay_stats;
        traced_s += set_.tracedSeconds(i);
        mb += static_cast<double>(rec.raw_bytes) / 1e6;
        tracing += static_cast<double>(rec.tracing_cycles);
        untraced += static_cast<double>(rec.traced_cycles * rec.cores -
                                        rec.tracing_cycles);
        const double recovery = static_cast<double>(replay.totalAccesses()) /
            static_cast<double>(replay.sampled);
        if (replay.sampled) {
            log_recovery += std::log(recovery);
            ++recovering;
        }
        for (const double s : secs_[i])
            latencies.push_back(1e3 * s);
        analyses += secs_[i].size();
        std::printf("%-16s %10.6f %10.4f %12.1f %10.1f\n",
                    set_.specs[i].subject.c_str(), set_.tracedSeconds(i),
                    median(secs_[i]),
                    median(secs_[i]) / set_.tracedSeconds(i), recovery);
    }
    m.set("analysis_s_per_traced_s", sumOfMedians(secs_, main_) / traced_s,
          "s/s");
    // Geometric mean over traces, so that no one subject's sample
    // count decides it.
    m.set("recovery_ratio",
          recovering ? std::exp(log_recovery / recovering) : 0.0, "x");
    m.set("trace_mb_per_traced_s", mb / traced_s, "MB/s");
    // The cost model's tracing cycles as a share of the traced run's
    // core capacity (wall cycles x cores, idle included) less those
    // cycles. Not traced/baseline - 1: the untraced run's schedule
    // diverges, and the VM does not count busy cycles.
    m.set("tracing_pct_of_core_capacity", 100.0 * tracing / untraced, "%");
    if (fleet()) {
        // At the speed the generator's calibration slices saw.
        const double slice = median(open_.slices);
        for (const double ms : open_.latency_ms)
            latencies.push_back(atReferenceSpeed(ms, slice));
        m.set("sessions_per_s",
              median(flood_rates_) /
                  atReferenceSpeed(1.0, median(flood_slices_)),
              "1/s");
    } else {
        // Closed loop, one caller: a session is one trace's analysis.
        double busy = 0;
        for (const double ms : latencies)
            busy += ms / 1e3;
        m.set("sessions_per_s", static_cast<double>(latencies.size()) / busy,
              "1/s");
    }
    m.set("session_latency_p50_ms", quantile(latencies, 0.5), "ms");
    m.set("session_latency_p90_ms", quantile(latencies, 0.9), "ms");

    // Every service report was checked identical to these.
    m.set("recall", oracle_.recall(), "ratio");
    m.set("precision", oracle_.precision(), "ratio");
    // The analyzer's peak, without the calibration kernel's arena.
    m.set("peak_rss_mb", peakRssMb() - calibrationResidentMb(), "MB");
    m.set("success_share",
          attempted_ ? 1.0 - static_cast<double>(failed_) /
                             static_cast<double>(attempted_)
                     : 0.0,
          "ratio");

    std::printf("%s: %zu traces, %zu timed analyses, %zu timed service "
                "sessions\n",
                args_.workload.c_str(), main_.size(), analyses,
                open_.latency_ms.size());
    std::printf("host: median calibration slice %.2f ms over %zu slices "
                "(reference %.2f ms)\n",
                1e3 * median(slices_), slices_.size(),
                1e3 * kReferenceSliceSeconds);
}

void
Measurement::perLayer(Metrics &m)
{
    // Self time per (analysis, layer), then per-trace medians summed
    // over the workload's traces: the layer's cost of one pass.
    const std::vector<double> self = spans_.selfTimes();
    std::map<uint64_t, std::map<std::string, double>> per_analysis;
    std::map<uint64_t, double> prefilter;
    for (size_t k = 0; k < spans_.spans().size(); ++k) {
        const Span &s = spans_.spans()[k];
        if (!span_trace_.count(s.trace))
            continue; // service spans
        const std::string layer = layerOf(s.name);
        per_analysis[s.trace][layer] += self[k];
        if (std::strcmp(s.name, "core.applyStaticPrefilter") == 0)
            prefilter[s.trace] += self[k];
    }
    std::map<std::string, double> layer_s;
    double prefilter_s = 0;
    for (const size_t i : main_) {
        std::map<std::string, std::vector<double>> samples;
        std::vector<double> pre;
        for (const auto &[id, layers] : per_analysis) {
            if (span_trace_[id] != i)
                continue;
            for (const char *layer : kLayers) {
                auto it = layers.find(layer);
                samples[layer].push_back(it == layers.end() ? 0
                                                            : it->second);
            }
            pre.push_back(prefilter[id]);
        }
        for (auto &[layer, v] : samples)
            layer_s[layer] += median(v);
        prefilter_s += median(pre);
    }
    const double untraced = sumOfMedians(serial_secs_, main_);
    const double traced = sumOfMedians(traced_secs_, main_);

    m.set("trace.read_s", layer_s["trace"], "s");
    m.set("pmu.decode_s", layer_s["pmu"], "s");
    m.set("replay.align_s", layer_s["replay.align"], "s");
    m.set("replay.replay_s", layer_s["replay.replay"], "s");
    m.set("analysis.build_s", layer_s["analysis"], "s");
    m.set("core.prefilter_s", prefilter_s, "s");
    m.set("detect.detect_s", layer_s["detect"], "s");

    // Shares of the untraced serial wall time, and what no span covers.
    double covered = 0;
    std::printf("%-14s %10s %8s   (untraced wall %.4f s per pass, "
                "traced %.4f s)\n",
                "layer", "self s", "share", untraced, traced);
    for (const char *layer : kLayers) {
        const double share = layer_s[layer] / untraced;
        covered += layer_s[layer];
        std::string name = layer;
        name += std::strchr(layer, '.') ? "_share" : ".share";
        m.set(name, share, "ratio");
        std::printf("%-14s %10.4f %7.1f%%\n", layer, layer_s[layer],
                    100 * share);
    }
    const double residue = untraced - covered;
    std::printf("%-14s %10.4f %7.1f%%\n", "(residue)", residue,
                100 * residue / untraced);
    m.set("spans.untraced_wall_s", untraced, "s");
    m.set("spans.traced_wall_s", traced, "s");
    m.set("spans.residue_share", residue / untraced, "ratio");
    m.set("spans.overhead_pct", 100.0 * (traced / untraced - 1.0), "%");

    // Counts of one pass, from the first decomposition of each trace.
    uint64_t bytes = 0, samples = 0, dropped = 0, insns = 0, aligned = 0,
             unaligned = 0, windows = 0, inconsistent = 0, backward = 0,
             fwd = 0, bwd = 0, constant = 0, lookups = 0, inval = 0,
             constraints = 0, pruned = 0, seen = 0, rounds = 0, events = 0,
             accesses = 0, fast = 0, folded = 0, sweeps = 0, peak = 0;
    for (const size_t i : main_) {
        const core::OfflineResult &r = first_[i];
        bytes += set_.bytes[i].size();
        samples += set_.stats[i].samples;
        dropped += r.ingest_loss.segments_dropped;
        insns += r.decode_stats.path_entries;
        aligned += r.align_stats.samples_matched;
        unaligned += r.align_stats.samples_unmatched;
        windows += r.replay_stats.windows;
        inconsistent += r.replay_stats.inconsistent_windows;
        backward += r.replay_stats.backward_rounds;
        fwd += r.replay_stats.recovered_forward;
        bwd += r.replay_stats.recovered_backward;
        constant += r.replay_stats.recovered_constant;
        lookups += r.replay_stats.program_map.page_lookups;
        inval += r.replay_stats.program_map.mem_invalidations;
        constraints += r.prefilter.pointsto_constraints;
        pruned += r.prefilter.pruned();
        seen += r.prefilter.events_seen;
        rounds += static_cast<uint64_t>(r.regeneration_rounds);
        const detect::FastTrackStats &d = r.detect_stats;
        events += d.reads + d.writes + d.sync_ops;
        accesses += d.reads + d.writes;
        fast += d.epoch_fast_path;
        folded += d.run_iterations_folded;
        sweeps += r.incremental.gc_sweeps;
        peak = std::max<uint64_t>(
            peak, r.incremental.events ? r.incremental.peak_live_granules
                                       : d.shadow_slots);
    }
    const auto count = [&](const char *name, uint64_t v) {
        m.set(name, static_cast<double>(v), "count");
    };
    const auto ratio = [](uint64_t a, uint64_t b) {
        return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    m.set("trace.bytes_per_sample", ratio(bytes, samples), "B");
    count("trace.segments_dropped", dropped);
    count("pmu.insns_decoded", insns);
    count("replay.samples_aligned", aligned);
    count("replay.samples_unaligned", unaligned);
    count("replay.windows", windows);
    m.set("replay.inconsistent_share", ratio(inconsistent, windows),
          "ratio");
    count("replay.backward_rounds", backward);
    count("replay.recovered_forward", fwd);
    count("replay.recovered_backward", bwd);
    count("replay.recovered_constant", constant);
    count("replay.pm_lookups", lookups);
    count("replay.pm_bulk_invalidations", inval);
    count("analysis.pointsto_constraints", constraints);
    m.set("core.prefilter_pruned_share", ratio(pruned, seen), "ratio");
    count("core.regeneration_rounds", rounds);
    count("detect.events", events);
    m.set("detect.fast_path_share", ratio(fast, accesses), "ratio");
    count("detect.folded_events", folded);
    count("detect.gc_sweeps",
          sweeps + open_.gc_sweeps + flood_.gc_sweeps);
    count("detect.peak_live_granules",
          std::max({peak, open_.peak_live_granules,
                    flood_.peak_live_granules}));

    count("exec.tasks", exec_tasks_ + open_.exec_tasks + flood_.exec_tasks);
    count("exec.steals",
          exec_steals_ + open_.exec_steals + flood_.exec_steals);
    m.set("exec.parallel_speedup",
          parallel() ? untraced / sumOfMedians(par_secs_, main_) : 0.0, "x");

    // Service: timings of the open loop (the flood on offline
    // workloads, whose only service phase is the oracle probe).
    const auto mean = [](const std::vector<double> &v) {
        double s = 0;
        for (const double x : v)
            s += x;
        return v.empty() ? 0.0 : s / static_cast<double>(v.size());
    };
    m.set("service.open_wait_ms", mean(open_.open_wait_ms), "ms");
    m.set("service.submit_stall_ms", mean(open_.submit_ms), "ms");
    m.set("service.close_to_report_ms", median(open_.close_to_report_ms),
          "ms");
    m.set("service.queue_wait_ms", median(open_.queue_wait_ms), "ms");
    m.set("service.peak_buffered_kb",
          static_cast<double>(std::max(open_.peak_buffered_bytes,
                                       flood_.peak_buffered_bytes)) /
              1024.0,
          "KB");
    count("service.journal_appends",
          open_.journal_appends + flood_.journal_appends);
    count("service.journal_syncs",
          open_.journal_syncs + flood_.journal_syncs);
    count("service.checkpoints_written",
          open_.checkpoints_written + flood_.checkpoints_written);
    count("service.warm_starts", open_.warm_starts + flood_.warm_starts);
    m.set("service.generator_late_ms", quantile(open_.late_ms, 0.9), "ms");
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench record|measure --workload "
                     "apps-p10000|fleet-open --seed N "
                     "--out|--in DIR [--seconds S] "
                     "[--trace 0|1] [--spans FILE]\n");
        return 2;
    }
    if (args.mode == "record")
        return record(args);

    // Pin glibc's mmap threshold at its default (128 KiB): left dynamic,
    // it rises after the first large free, and whether later blocks stay
    // resident then depends on thread timing, so peak RSS would follow
    // allocator history instead of live memory.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    TraceSet set;
    set.specs = workloadSpecs(args.workload, args.seed);
    set.subjects = buildSubjects(set.specs);
    if (!loadTraceSet(set, args.dir)) {
        std::fprintf(stderr, "perfbench: no recorded traces in %s\n",
                     args.dir.c_str());
        return 1;
    }
    Measurement measurement(args, set);
    return measurement.run();
}
