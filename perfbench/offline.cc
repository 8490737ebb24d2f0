/**
 * @file
 * Per-trace analyses: the untraced serial and parallel analyzers, the
 * traced decomposition into each layer's public calls, and the span
 * recorder and metric helpers they share.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hh"
#include "core/parallel_offline.hh"
#include "support/timer.hh"
#include "trace/trace_file.hh"

namespace perfbench {

// ---------------------------------------------------------------------
// Spans.

double
SpanRecorder::now() const
{
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

int32_t
SpanRecorder::begin(const char *name, uint64_t trace)
{
    Span s;
    s.name = name;
    s.trace = trace;
    s.parent = open_.empty() ? -1 : open_.back();
    const int32_t index = static_cast<int32_t>(spans_.size());
    spans_.push_back(s);
    open_.push_back(index);
    spans_.back().start = now(); // last, so set-up is not timed
    return index;
}

void
SpanRecorder::end(int32_t index)
{
    spans_[index].end = now();
    open_.pop_back();
}

std::vector<double>
SpanRecorder::selfTimes() const
{
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            self[s.parent] -= s.end - s.start;
    }
    return self;
}

bool
SpanRecorder::writeJsonl(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    char line[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(line, sizeof(line),
                      "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,"
                      "\"end\":%.9f,\"parent\":%d,\"trace\":%llu}\n",
                      i, s.name, s.start, s.end, s.parent,
                      static_cast<unsigned long long>(s.trace));
        out << line;
    }
    return static_cast<bool>(out);
}

// ---------------------------------------------------------------------
// Analyses.

namespace {

/** Parse @p bytes; throws on an uninterpretable trace. */
trace::LoadedTrace
parse(const std::vector<uint8_t> &bytes)
{
    auto loaded = trace::readTrace(bytes);
    if (!loaded.ok())
        throw std::runtime_error(loaded.error().format());
    return std::move(loaded.value());
}

/** Same GC soundness gate as analyzeFile() and the service. */
core::OfflineOptions
gated(core::OfflineOptions options, const trace::SegmentLoss &loss)
{
    if (loss.sync_dropped > 0)
        options.incremental.enable_gc = false;
    return options;
}

template <typename Body>
Analysis
timed(const Subject &subject, Body &&body)
{
    Analysis a;
    Stopwatch timer;
    try {
        a.result = body();
        a.seconds = timer.lap();
        a.report = a.result.report.format(subject.workload.program.get());
        a.ok = true;
    } catch (const std::exception &e) {
        a.seconds = timer.lap();
        std::fprintf(stderr, "analysis failed: %s\n", e.what());
    }
    return a;
}

} // namespace

Analysis
analyzeSerial(const std::vector<uint8_t> &bytes, const Subject &subject,
              const core::OfflineOptions &options)
{
    return timed(subject, [&] {
        trace::LoadedTrace loaded = parse(bytes);
        core::OfflineAnalyzer analyzer(*subject.workload.program,
                                       gated(options, loaded.loss));
        core::OfflineResult r = analyzer.analyze(loaded.trace);
        r.ingest_loss = loaded.loss;
        return r;
    });
}

Analysis
analyzeParallel(const std::vector<uint8_t> &bytes, const Subject &subject,
                const core::OfflineOptions &options, unsigned workers,
                exec::ExecutorStats *exec)
{
    return timed(subject, [&] {
        trace::LoadedTrace loaded = parse(bytes);
        core::OfflineOptions opts = gated(options, loaded.loss);
        opts.num_threads = workers;
        core::ParallelOfflineAnalyzer analyzer(*subject.workload.program,
                                               opts);
        core::OfflineResult r = analyzer.analyze(loaded.trace);
        r.ingest_loss = loaded.loss;
        if (exec)
            *exec = analyzer.executorStats();
        return r;
    });
}

Analysis
analyzeTraced(const std::vector<uint8_t> &bytes, const Subject &subject,
              const core::OfflineOptions &options_in, SpanRecorder &spans,
              uint64_t id)
{
    const asmkit::Program &program = *subject.workload.program;
    return timed(subject, [&] {
        ScopedSpan root(spans, "analyze", id);
        trace::LoadedTrace loaded;
        {
            ScopedSpan s(spans, "trace.readTrace", id);
            loaded = parse(bytes);
        }
        const trace::RunTrace &run = loaded.trace;
        core::OfflineOptions options = gated(options_in, loaded.loss);

        // OfflineAnalyzer's constructor.
        std::unique_ptr<analysis::ProgramAnalysis> facts;
        {
            ScopedSpan s(spans, "analysis.ProgramAnalysis", id);
            facts = std::make_unique<analysis::ProgramAnalysis>(
                program, options.pointsto);
        }
        options.replay.analysis = facts.get();

        // OfflineAnalyzer::analyze().
        core::OfflineResult result;
        std::map<uint32_t, pmu::ThreadPath> paths;
        std::map<uint32_t, replay::ThreadAlignment> alignments;
        if (options.replay.mode != replay::ReplayMode::kBasicBlock) {
            {
                ScopedSpan s(spans, "pmu.decodePt", id);
                paths = pmu::decodePt(program, options.pt_filter, run,
                                      &result.decode_stats);
            }
            ScopedSpan s(spans, "replay.alignTrace", id);
            alignments = replay::alignTrace(program, paths, run,
                                            &result.align_stats,
                                            facts.get());
        }

        replay::ReplayConfig replay_config = options.replay;
        for (int round = 0;; ++round) {
            result.regeneration_rounds = round;
            std::unordered_set<uint64_t> consumed;
            core::OfflineResult pass = result;
            pass.report = detect::RaceReport();

            // OfflineAnalyzer::analyzeOnce().
            std::vector<replay::ReconstructedAccess> accesses;
            {
                ScopedSpan s(spans, "replay.replayAll", id);
                replay::Replayer replayer(program, replay_config);
                accesses = replayer.replayAll(paths, alignments, run);
                pass.replay_stats = replayer.stats();
                pass.extended_trace_events = accesses.size();
                consumed = replayer.consumedAddresses();
            }
            {
                ScopedSpan s(spans, "core.applyStaticPrefilter", id);
                core::detail::applyStaticPrefilter(
                    accesses, facts.get(), options.static_prefilter,
                    pass.prefilter, &run);
            }
            if (options.incremental.enabled) {
                ScopedSpan s(spans, "detect.detectRacesIncremental", id);
                detect::IncrementalFastTrack detector(options.incremental);
                for (const trace::ThreadMeta &tm : run.meta.threads)
                    detector.requireThread(tm.tid);
                core::detail::detectRacesIncremental(
                    run, alignments, accesses, detector,
                    options.run_summary, &options.checkpoint, round == 0);
                pass.report = detector.report();
                pass.detect_stats = detector.stats();
                pass.incremental.merge(detector.incrementalStats());
            } else {
                ScopedSpan s(spans, "detect.detectRaces", id);
                core::detail::detectRaces(run, alignments, accesses,
                                          pass.report, pass.detect_stats,
                                          options.run_summary);
            }
            result = pass;

            if (round >= options.max_regeneration_rounds)
                break;
            std::vector<std::pair<uint64_t, uint64_t>> additions;
            {
                ScopedSpan s(spans, "core.regenerationBlacklist", id);
                additions = core::detail::regenerationBlacklist(
                    result.report, consumed, replay_config.mem_blacklist);
            }
            if (additions.empty())
                break;
            replay_config.mem_blacklist.insert(
                replay_config.mem_blacklist.end(), additions.begin(),
                additions.end());
        }
        result.ingest_loss = loaded.loss;
        return result;
    });
}

// ---------------------------------------------------------------------
// Metrics.

void
Metrics::set(const std::string &name, double value,
             const std::string &unit)
{
    items_.push_back({name, {std::isfinite(value) ? value : 0, unit}});
}

std::string
Metrics::toJson() const
{
    std::ostringstream os;
    os << '{';
    bool first = true;
    char num[64];
    for (const auto &[name, vu] : items_) {
        std::snprintf(num, sizeof(num), "%.17g", vu.first);
        os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
           << num << ", \"unit\": \"" << vu.second << "\"}";
        first = false;
    }
    os << '}';
    return os.str();
}

double
quantile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double pos = p * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
        (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace perfbench
