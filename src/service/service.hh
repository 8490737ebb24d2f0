/**
 * @file
 * The long-running multi-tenant analysis service.
 *
 * ProRace's deployment model keeps production machines cheap and moves
 * the heavyweight analysis to dedicated machines; this is that backend
 * tier as one process. Producers open *sessions* (one recorded run
 * each), stream v4 trace bytes in chunks, and close; the service tails
 * each session's byte stream with a trace::TraceReader cursor, and on
 * close hands the ingested trace to the offline pipeline on the
 * work-stealing executor, with streaming detection
 * (detect::IncrementalFastTrack) so detector memory stays bounded on
 * long traces. Finished reports fold into the cross-tenant ReportStore.
 *
 * Two mechanisms bound resident memory regardless of producer count or
 * stream length (DESIGN.md §13.4):
 *
 *   1. Chunk credits (service/ingest.hh): raw queued bytes per tenant
 *      never exceed the credit budget; producers stall or shed.
 *   2. Session slots: a tenant may have at most session_slots sessions
 *      resident (ingesting or awaiting/under analysis). A saturated
 *      analysis pool delays completions, which exhausts slots, which
 *      stalls (or sheds) producers at openSession — backpressure
 *      propagates from the pool to the fleet instead of accumulating
 *      unbounded parsed traces.
 *
 * Every per-session OfflineResult's counters are aggregated per tenant
 * and service-wide (the --stats rollup), not just kept from the last
 * run.
 *
 * With a state_dir configured the service is additionally crash-safe
 * and self-healing (DESIGN.md §15): the report store rides a
 * write-ahead journal (support/journal.hh) and recovers byte-
 * identically on restart; session analyses checkpoint the streaming
 * detector at epoch-GC boundaries and warm-start when the same byte
 * stream is analyzed again; and a SupervisionPolicy retries faulting
 * analyses with exponential backoff before quarantining the session —
 * and eventually the tenant — so a poisoned producer degrades into a
 * statistic instead of an outage.
 */

#ifndef PRORACE_SERVICE_SERVICE_HH
#define PRORACE_SERVICE_SERVICE_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "asmkit/program.hh"
#include "core/offline.hh"
#include "exec/executor.hh"
#include "service/ingest.hh"
#include "service/report_store.hh"
#include "support/stats.hh"
#include "trace/trace_file.hh"

namespace prorace::service {

/**
 * Self-healing policy: what the service does when a session's analysis
 * misbehaves (throws, or overruns its deadline). Failed attempts are
 * retried with exponential backoff; a session that exhausts its retries
 * is *quarantined* — it completes as failed, releases its slot and
 * credits, and counts a strike against its tenant. A tenant collecting
 * tenant_quarantine_strikes quarantined sessions is itself quarantined:
 * its open sessions are aborted and further opens are rejected, so one
 * poisoned producer cannot take the pool down or starve the fleet.
 *
 * Hard trace errors (uninterpretable stream) are NOT retried: the input
 * is deterministic, so a retry would re-fail identically.
 */
struct SupervisionPolicy {
    /**
     * Per-attempt analysis deadline in seconds; 0 disables. Enforced
     * cooperatively at every streaming-detection batch boundary, so
     * granularity is one batch. With checkpointing on (state_dir), a
     * retried attempt warm-starts from the last checkpoint, so repeated
     * timeouts still make forward progress.
     */
    double session_deadline_seconds = 0;
    /** Analysis attempts after the first before quarantining. */
    unsigned max_retries = 2;
    /** Sleep before the first retry; doubles (multiplier) per retry. */
    double backoff_initial_seconds = 0.05;
    double backoff_multiplier = 2.0;
    /**
     * Quarantined sessions before the whole tenant is quarantined;
     * 0 = never quarantine tenants.
     */
    unsigned tenant_quarantine_strikes = 3;
};

/** Service configuration. */
struct ServiceOptions {
    /** Analysis pool size (work-stealing executor threads). */
    unsigned num_workers = 2;
    /** Concurrent resident sessions allowed per tenant. */
    unsigned session_slots = 2;
    IngestPolicy ingest;
    /**
     * Offline-pipeline configuration applied to every session.
     * incremental.enabled is forced on; incremental.enable_gc is
     * additionally cleared per session when that session's sync stream
     * arrived damaged (the GC soundness gate).
     */
    core::OfflineOptions offline;
    /**
     * Durable-state directory; empty = fully in-memory (the pre-crash-
     * safety behavior). When set, the report store is backed by a
     * write-ahead journal at <state_dir>/reports.jrnl — restart replays
     * it and recovers the store byte-identically up to the last synced
     * record — and session analyses checkpoint the streaming detector
     * to <state_dir>/checkpoints/ at epoch-GC boundaries, so a
     * re-streamed session (same tenant, program, and byte stream)
     * warm-starts instead of re-detecting from event zero.
     */
    std::string state_dir;
    /** Journal durability knobs (sync cadence). */
    support::Journal::Options journal;
    SupervisionPolicy supervision;
    /**
     * Test hook: called at the start of every analysis attempt
     * (tenant, session id, attempt index). May throw to simulate an
     * analysis crash; the supervision machinery treats it exactly like
     * a real fault. Null in production.
     */
    std::function<void(const std::string &tenant, uint64_t session_id,
                       unsigned attempt)>
        analysis_fault_injector;
};

/** What one completed session produced. */
struct SessionOutcome {
    uint64_t session_id = 0;
    uint64_t sequence = 0; ///< completion order (ReportStore timeline)
    std::string tenant;
    std::string program_id;
    bool ok = false;
    std::string error; ///< TraceError message when !ok
    detect::RaceReport report;
    trace::SegmentLoss loss;
    /** v5 columnar compression counters of the streamed trace. */
    trace::CompressionStats compression;
    detect::FastTrackStats detect_stats;
    detect::IncrementalStats incremental;
    core::PrefilterStats prefilter;
    /** Reconstruction counters, window quarantine included. */
    replay::ReplayStats replay;
    uint64_t extended_trace_events = 0;
    double ingest_to_report_seconds = 0; ///< openSession -> store fold
    /** Supervision: how many analysis attempts this session took. */
    unsigned attempts = 1;
    /** Attempts aborted by the per-session deadline. */
    uint64_t deadline_timeouts = 0;
    /** Session quarantined (retries exhausted); implies !ok. */
    bool quarantined = false;
    /** Analysis resumed from a detector checkpoint (warm start). */
    bool warm_started = false;
    /** Detector checkpoints written during this session's analysis. */
    uint64_t checkpoints_written = 0;
};

/** Aggregated analysis counters (per tenant, and merged service-wide). */
struct TenantServiceStats {
    uint64_t sessions_opened = 0;
    uint64_t sessions_completed = 0;
    uint64_t sessions_failed = 0; ///< uninterpretable streams
    uint64_t extended_trace_events = 0;
    detect::FastTrackStats detect;
    /** v5 compression counters summed over the tenant's traces. */
    trace::CompressionStats compression;
    detect::IncrementalStats incremental;
    core::PrefilterStats prefilter;
    replay::ReplayStats replay;
    /** What the tenant's streams lost to damage, surfaced in --stats. */
    trace::SegmentLoss loss;
    uint64_t truncated_streams = 0; ///< streams that ended early
    // Supervision counters.
    uint64_t sessions_quarantined = 0;
    uint64_t analysis_retries = 0;   ///< extra attempts beyond the first
    uint64_t deadline_timeouts = 0;  ///< attempts killed by the deadline
    uint64_t warm_starts = 0;        ///< sessions resumed from checkpoint
    uint64_t checkpoints_written = 0;
    bool quarantined = false;        ///< whole tenant quarantined
    RunningStat latency_seconds; ///< ingest-to-report per session

    void
    merge(const TenantServiceStats &other)
    {
        sessions_opened += other.sessions_opened;
        sessions_completed += other.sessions_completed;
        sessions_failed += other.sessions_failed;
        extended_trace_events += other.extended_trace_events;
        detect.merge(other.detect);
        compression.merge(other.compression);
        incremental.merge(other.incremental);
        prefilter.merge(other.prefilter);
        replay.merge(other.replay);
        loss.merge(other.loss);
        truncated_streams += other.truncated_streams;
        sessions_quarantined += other.sessions_quarantined;
        analysis_retries += other.analysis_retries;
        deadline_timeouts += other.deadline_timeouts;
        warm_starts += other.warm_starts;
        checkpoints_written += other.checkpoints_written;
        quarantined = quarantined || other.quarantined;
        latency_seconds.merge(other.latency_seconds);
    }
};

/** Service-wide snapshot: the rollup plus frontend/pool counters. */
struct ServiceStats {
    TenantServiceStats rollup; ///< every tenant merged
    uint64_t sessions_shed = 0;      ///< openSession rejected (shedding)
    uint64_t open_stalls = 0;        ///< openSession waits for a slot
    uint64_t peak_active_sessions = 0;
    uint64_t distinct_races = 0;     ///< ReportStore dedup size
    uint64_t report_observations = 0;
    // Durability & self-healing (zero / false without a state_dir).
    bool durable = false;            ///< journal open and bound
    uint64_t recovered_reports = 0;  ///< journal records replayed at boot
    uint64_t tenants_quarantined = 0;
    uint64_t quarantine_rejected_opens = 0;
    uint64_t quarantine_aborted_sessions = 0;
    support::JournalStats journal;
    IngestStats ingest;
    exec::ExecutorStats executor;
};

class AnalysisService
{
  public:
    explicit AnalysisService(const ServiceOptions &options = {});

    /** Shuts down (drains outstanding work) if not done explicitly. */
    ~AnalysisService();

    AnalysisService(const AnalysisService &) = delete;
    AnalysisService &operator=(const AnalysisService &) = delete;

    /**
     * Make @p program analyzable under @p program_id. Sessions name the
     * id; the service keeps the binary (analysis machines have the
     * symbolized binaries in the paper's deployment, too).
     */
    void registerProgram(const std::string &program_id,
                         std::shared_ptr<const asmkit::Program> program);

    /**
     * Open a session. Blocks while the tenant is out of session slots
     * (or returns 0 immediately under the shedding policy, and for
     * unknown program ids / after shutdown). Returns the session id.
     */
    uint64_t openSession(const std::string &tenant,
                         const std::string &program_id);

    /**
     * Stream trace bytes into the session. Chunking is arbitrary —
     * segment boundaries need not be respected. Returns false when the
     * chunk was shed (credit exhausted under the shedding policy) or
     * the session is unknown/closed; shed bytes degrade into segment
     * loss, which ingestion tolerates.
     */
    bool submit(uint64_t session_id, const uint8_t *data, size_t size);

    bool
    submit(uint64_t session_id, const std::vector<uint8_t> &bytes)
    {
        return submit(session_id, bytes.data(), bytes.size());
    }

    /** End of stream: triggers analysis of everything ingested. */
    void closeSession(uint64_t session_id);

    /** Block until every closed session's analysis has completed. */
    void drain();

    /**
     * Stop intake, drain, and join the pump and pool. Idempotent;
     * further opens/submits fail.
     */
    void shutdown();

    const ReportStore &store() const { return store_; }

    /** True when @p tenant has been quarantined (opens rejected). */
    bool tenantQuarantined(const std::string &tenant) const;

    /** Force-sync the report journal (no-op without a state_dir). */
    void syncJournal();

    /** Per-tenant aggregated counters. */
    std::map<std::string, TenantServiceStats> tenantStats() const;

    /** Service-wide rollup. */
    ServiceStats stats() const;

    /** Completed-session records, in completion order. */
    std::vector<SessionOutcome> outcomes() const;

    /** Ingest-to-report latencies (seconds), one per completion. */
    std::vector<double> latencies() const;

  private:
    struct SessionState {
        uint64_t id = 0;
        std::string tenant;
        std::string program_id;
        std::shared_ptr<const asmkit::Program> program;
        trace::TraceReader reader;
        std::chrono::steady_clock::time_point opened;
        bool close_submitted = false;
    };

    void pumpLoop();
    void analyzeSession(std::shared_ptr<SessionState> session);
    void completeSession(const std::shared_ptr<SessionState> &session,
                         SessionOutcome outcome);
    /** Checkpoint file path of one stream identity ("" = disabled). */
    std::string checkpointPath(const std::string &tenant,
                               const std::string &program_id,
                               uint64_t stream_bytes,
                               uint32_t stream_crc) const;
    /** Abort every open (not yet closed) session of @p tenant. */
    void abortTenantSessionsLocked(const std::string &tenant);

    ServiceOptions options_;
    IngestQueue queue_;
    ReportStore store_;
    std::unique_ptr<support::Journal> journal_;
    uint64_t recovered_reports_ = 0;

    mutable std::mutex mu_;
    std::condition_variable slot_cv_;  ///< session slot released
    std::condition_variable drain_cv_; ///< active count hit zero
    std::map<std::string,
             std::shared_ptr<const asmkit::Program>> programs_;
    std::map<uint64_t, std::shared_ptr<SessionState>> sessions_;
    std::map<std::string, unsigned> active_per_tenant_;
    std::map<std::string, TenantServiceStats> tenant_stats_;
    std::vector<SessionOutcome> outcomes_;
    std::vector<double> latencies_;
    uint64_t next_session_id_ = 1;
    uint64_t completion_sequence_ = 0;
    uint64_t active_sessions_ = 0; ///< opened, analysis not yet folded
    uint64_t closed_pending_ = 0;  ///< closed, analysis not yet folded
    uint64_t peak_active_sessions_ = 0;
    uint64_t sessions_shed_ = 0;
    uint64_t open_stalls_ = 0;
    std::set<std::string> quarantined_tenants_;
    uint64_t quarantine_rejected_opens_ = 0;
    uint64_t quarantine_aborted_sessions_ = 0;
    bool shut_down_ = false;

    // Constructed last, destroyed first: the pump and pool reference
    // everything above.
    std::unique_ptr<exec::Executor> executor_;
    std::thread pump_;
};

} // namespace prorace::service

#endif // PRORACE_SERVICE_SERVICE_HH
