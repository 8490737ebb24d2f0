/**
 * @file
 * Shared pieces of the benchmark program: the workload inputs (which
 * programs are traced at which period and seed), the recorded trace
 * set, the span recorder the traced run uses, and the metric sink the
 * result line is printed from.
 */

#ifndef PRORACE_PERFBENCH_BENCH_HH
#define PRORACE_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/offline.hh"
#include "exec/executor.hh"
#include "oracle/generator.hh"
#include "workload/workload.hh"

namespace perfbench {

using namespace prorace;

/** One trace a workload records in set-up. */
struct TraceSpec {
    std::string tenant;  ///< apps, oracle, racy, kvchurn, ...
    std::string subject; ///< registry workload name, or oracle config
    uint64_t period = 0; ///< PEBS sampling period
    uint64_t seed = 0;   ///< machine + tracing seed
    double scale = 1.0;  ///< registry workload scale
    bool is_oracle = false;
    oracle::GeneratorConfig oracle_config; ///< when is_oracle
};

/** A program to analyze, with the oracle truth when it has one. */
struct Subject {
    std::string program_id; ///< unique per distinct program
    workload::Workload workload;
    bool has_truth = false;
    oracle::GroundTruth truth;
};

/** Online-phase numbers of one recording. */
struct RecordStats {
    uint64_t traced_cycles = 0;
    uint64_t raw_bytes = 0; ///< RunTrace::totalBytes(), the paper's rate
    uint64_t samples = 0;   ///< PEBS records in the trace
    uint64_t tracing_cycles = 0; ///< cost-model cycles charged to cores
    uint64_t cores = 0;          ///< cores of the traced machine
};

/** Everything set-up produced, as the measuring process sees it. */
struct TraceSet {
    std::vector<TraceSpec> specs;
    std::vector<std::shared_ptr<Subject>> subjects; ///< per spec
    std::vector<std::vector<uint8_t>> bytes;        ///< serialized
    std::vector<RecordStats> stats;

    double
    tracedSeconds(size_t i) const;
};

/** The workload shapes, by name. */
bool knownWorkload(const std::string &name);

/** The traces @p workload records for @p seed. */
std::vector<TraceSpec> workloadSpecs(const std::string &workload,
                                     uint64_t seed);

/** Build (deterministically) the program each spec traces. */
std::vector<std::shared_ptr<Subject>>
buildSubjects(const std::vector<TraceSpec> &specs);

/** Record one spec: run it under the tracing stack and serialize. */
std::vector<uint8_t> recordTrace(const TraceSpec &spec,
                                 const Subject &subject,
                                 RecordStats &stats);

/** Persist / reload a recorded set (bytes + stats) under @p dir. */
void saveTraceSet(const TraceSet &set, const std::string &dir);
bool loadTraceSet(TraceSet &set, const std::string &dir);

/** Offline options every analysis of @p spec uses (one-shot). */
core::OfflineOptions offlineOptions(const TraceSpec &spec,
                                    const Subject &subject);

/** Offline options of every service session (streaming detection). */
core::OfflineOptions serviceOptions();

// ---------------------------------------------------------------------
// Spans.

using Clock = std::chrono::steady_clock;

/** One timed call into a layer's public entry point. */
struct Span {
    const char *name = "";
    double start = 0; ///< seconds since the recorder's epoch
    double end = 0;
    int32_t parent = -1; ///< index of the enclosing span, -1 = root
    uint64_t trace = 0;  ///< trace or session id the span belongs to
};

/**
 * Keeps spans in memory while the run goes; they are written out once
 * at the end. A disabled recorder records nothing and costs one branch
 * per span.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    int32_t begin(const char *name, uint64_t trace);
    void end(int32_t index);

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration minus the part of it the direct children cover. */
    std::vector<double> selfTimes() const;

    /** One JSON object per line. */
    bool writeJsonl(const std::string &path) const;

  private:
    double now() const;

    bool enabled_;
    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int32_t> open_;
};

/** RAII span; a no-op on a disabled recorder. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const char *name, uint64_t trace)
        : rec_(rec), index_(rec.enabled() ? rec.begin(name, trace) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (index_ >= 0)
            rec_.end(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
    int32_t index_;
};

// ---------------------------------------------------------------------
// Analyses.

/** Result of one per-trace analysis plus how long it took. */
struct Analysis {
    core::OfflineResult result;
    std::string report; ///< RaceReport::format(program)
    bool ok = false;    ///< false when the trace did not parse / threw
    double seconds = 0;
};

/**
 * readTrace + OfflineAnalyzer construction + analyze(), the per-trace
 * cost a user of the offline tool pays (analyzeFile without the disk).
 */
Analysis analyzeSerial(const std::vector<uint8_t> &bytes,
                       const Subject &subject,
                       const core::OfflineOptions &options);

/** The same through core::ParallelOfflineAnalyzer. */
Analysis analyzeParallel(const std::vector<uint8_t> &bytes,
                         const Subject &subject,
                         const core::OfflineOptions &options,
                         unsigned workers, exec::ExecutorStats *exec);

/**
 * The serial analysis decomposed into the public calls of each layer,
 * in OfflineAnalyzer::analyze's order (regeneration rounds included),
 * with one span around each call. Must produce the report analyze()
 * produces; the benchmark checks that it does.
 */
Analysis analyzeTraced(const std::vector<uint8_t> &bytes,
                       const Subject &subject,
                       const core::OfflineOptions &options,
                       SpanRecorder &spans, uint64_t trace_id);

// ---------------------------------------------------------------------
// Metric sink.

/** Ordered (name, value, unit) list the result line prints. */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    std::string toJson() const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        items_;
};

/** p-quantile by linear interpolation (p in [0,1]); 0 when empty. */
double quantile(std::vector<double> values, double p);

/** Median shorthand. */
inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

// ---------------------------------------------------------------------
// Host speed.

/** Seconds one fixed slice of the calibration kernel takes now. */
double calibrationSlice();

/**
 * Two slices at once on two threads, as the service's two workers run;
 * the mean of their times.
 */
double pairedSlice();

/** MB the calibration kernel keeps resident once it has run. */
double calibrationResidentMb();

/**
 * Seconds a calibration slice takes on the reference host, a shared
 * 4-vCPU Xeon VM: about the 10th percentile of 840 slices there.
 */
constexpr double kReferenceSliceSeconds = 0.009;

/**
 * @p seconds, measured while calibration slices took @p slice seconds,
 * as they would read on the reference host. Every timing the benchmark
 * reports end to end goes through this, so that the host's own speed
 * swings cancel out and a change in the analyzer's speed does not. The
 * analyzer follows the slice one for one: over 28 passes of
 * apps-p10000 on the reference host, the log-log slope of pass time on
 * median slice time was 0.99 (correlation 0.91).
 */
inline double
atReferenceSpeed(double seconds, double slice)
{
    return seconds * kReferenceSliceSeconds / slice;
}

/** Peak resident set of this process, MB. */
double peakRssMb();

} // namespace perfbench

#endif // PRORACE_PERFBENCH_BENCH_HH
