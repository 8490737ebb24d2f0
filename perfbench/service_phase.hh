/**
 * @file
 * The service phases of a workload: recorded traces streamed through
 * a durable service::AnalysisService in 4 KB chunks.
 */

#ifndef PRORACE_PERFBENCH_SERVICE_PHASE_HH
#define PRORACE_PERFBENCH_SERVICE_PHASE_HH

#include "bench.hh"
#include "service/service.hh"

namespace perfbench {

/** What one phase measured. */
struct ServicePhaseResult {
    uint64_t attempted = 0; ///< sessions the generator tried to open
    uint64_t completed = 0;
    uint64_t failed = 0; ///< rejected, failed, or report mismatch
    double rate = 0;     ///< steady-state completions per second
    std::vector<double> latency_ms;         ///< due -> report fold
    std::vector<double> close_to_report_ms; ///< closeSession -> fold
    std::vector<double> queue_wait_ms; ///< close_to_report - analysis
    std::vector<double> open_wait_ms;  ///< openSession blocking
    std::vector<double> submit_ms;     ///< all submits + close
    std::vector<double> late_ms;       ///< generator start - due
    std::vector<double> slices; ///< open loop's calibration slices
    uint64_t peak_buffered_bytes = 0;
    uint64_t journal_appends = 0;
    uint64_t journal_syncs = 0;
    uint64_t checkpoints_written = 0;
    uint64_t warm_starts = 0;
    uint64_t exec_tasks = 0;
    uint64_t exec_steals = 0;
    uint64_t gc_sweeps = 0;
    uint64_t peak_live_granules = 0; ///< largest single session
};

/**
 * Session order: tenants take turns; each tenant streams its own
 * recorded traces in order, and every tenth session of a tenant
 * re-streams one of its earlier streams, as a producer retry would.
 */
std::vector<size_t> buildSchedule(const TraceSet &set, size_t sessions);

/**
 * Run @p schedule against a fresh service (2 workers, journal and
 * checkpoints under @p state_dir). @p rate is the open-loop session
 * rate per second; 0 floods. Every report is checked against
 * @p reference (the offline analysis of the same trace), and queue
 * wait is close-to-report minus @p reference_seconds of that trace.
 */
ServicePhaseResult
runServicePhase(const TraceSet &set, const std::vector<size_t> &schedule,
                double rate, const std::string &state_dir,
                const std::vector<std::string> &reference,
                const std::vector<double> &reference_seconds,
                SpanRecorder &spans, uint64_t span_id_base);

} // namespace perfbench

#endif // PRORACE_PERFBENCH_SERVICE_PHASE_HH
