/**
 * @file
 * Offline phase entry point: PT decode, trace alignment, memory-trace
 * reconstruction, and FastTrack race detection, with the paper's
 * racy-emulated-location regeneration loop (§5.1).
 */

#ifndef PRORACE_CORE_OFFLINE_HH
#define PRORACE_CORE_OFFLINE_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "analysis/analysis.hh"
#include "asmkit/program.hh"
#include "detect/fasttrack.hh"
#include "detect/incremental.hh"
#include "detect/report.hh"
#include "exec/executor.hh"
#include "pmu/pt.hh"
#include "pmu/pt_decode.hh"
#include "replay/align.hh"
#include "replay/replayer.hh"
#include "support/expected.hh"
#include "trace/records.hh"
#include "trace/trace_error.hh"
#include "trace/trace_file.hh"

namespace prorace::core {

/**
 * Checkpoint/resume and supervision hooks into the streaming detection
 * stage (detect::IncrementalFastTrack). The analysis service uses these
 * for crash recovery: at every epoch-GC batch boundary it can serialize
 * the detector plus the feed cursor, and a later analysis of the same
 * byte stream warm-starts from that image instead of re-running the
 * detector from event zero. Hooks fire only on the incremental path
 * (OfflineOptions::incremental.enabled); checkpointing and restore
 * apply to regeneration round 0 only — later rounds re-run against a
 * different blacklist, so a round-0 image would be stale for them.
 */
struct CheckpointHooks {
    /**
     * Fired at every batch boundary of every round, and once after the
     * final event. May throw to abort the analysis — this is how the
     * service enforces per-session deadlines cooperatively; the
     * exception propagates out of analyze().
     */
    std::function<void()> tick;

    /**
     * Fired (round 0 only) at every batch boundary and once at
     * end-of-feed, after the boundary's retirement/GC ran:
     * @p feed_cursor events of the @p feed_total -event merged feed are
     * fully dispatched and @p detector holds exactly the state an
     * uninterrupted run has at this point. The hook may serialize it.
     */
    std::function<void(uint64_t feed_cursor, uint64_t feed_total,
                       detect::IncrementalFastTrack &detector)>
        on_boundary;

    /**
     * When set, round 0 restores this serialized detector image and
     * resumes dispatch at feed event @p resume_events instead of 0.
     * Applied only when @p resume_feed_total matches the rebuilt feed
     * size exactly and the image deserializes cleanly; otherwise the
     * analysis cold-starts (correct, just slower).
     */
    const std::vector<uint8_t> *restore = nullptr;
    uint64_t resume_events = 0;
    uint64_t resume_feed_total = 0;

    /** Out-param: set true when the restore was actually applied. */
    bool *resumed = nullptr;
};

/** Offline-phase configuration. */
struct OfflineOptions {
    replay::ReplayConfig replay;
    /** Must match the PT filter the online phase traced with. */
    pmu::PtFilter pt_filter = pmu::PtFilter::all();
    /** Regeneration rounds when races land on emulated locations. */
    int max_regeneration_rounds = 2;
    /**
     * Analysis worker threads: 0 runs every stage on the calling thread;
     * N > 0 gives the analyzer an N-worker executor that decodes the
     * PT streams and replays the inter-sample windows as parallel
     * tasks. The result is bit-identical either way.
     */
    unsigned num_threads = 0;
    /**
     * Drop extended-trace events whose access site the static escape
     * analysis proved definitely thread-local before they reach the
     * FastTrack detector. Per-thread stacks are disjoint and FastTrack
     * accesses never advance thread clocks, so the race report is
     * byte-identical with the prefilter on or off; only detection cost
     * changes. Disabled automatically (at zero cost) whenever the
     * analysis cannot certify its stack invariants for the program.
     */
    bool static_prefilter = true;
    /**
     * Run the Andersen points-to layer and its one consumer, replay
     * constant recovery. The other analyses, the prefilter and the
     * race report are byte-identical with the layer on or off; only
     * the loads replay recovers change. `--no-pointsto` in the CLI
     * maps here.
     */
    bool pointsto = true;
    /**
     * Fold consecutive identical accesses in the detector feed — runs
     * the v5 trace compressor stores as strided blocks — into a single
     * dispatched iteration plus one absorption check, instead of
     * re-running the FastTrack fast path per iteration. Folding only
     * happens when the detector proves the repeats are no-ops
     * (FastTrack::foldRepeats), so the race report is byte-identical
     * with the summary on or off; only detection cost changes.
     * `--no-run-summary` in the CLI maps here.
     */
    bool run_summary = true;
    /**
     * Streaming detection (detect::IncrementalFastTrack): process the
     * merged detector feed in batches with epoch-GC of quiescent shadow
     * state between batches, bounding detector memory on long traces.
     * The race report is byte-identical to one-shot detection; only
     * resident state and statistics differ. The analysis service runs
     * every session this way.
     */
    detect::IncrementalOptions incremental;
    /** Detector checkpoint/resume + deadline hooks (service tier). */
    CheckpointHooks checkpoint;
};

/**
 * Counters of the static access prefilter, accumulated over every
 * detection pass (regeneration rounds included) of one analyze() call.
 */
struct PrefilterStats {
    bool enabled = false;        ///< option on and analysis available
    bool analysis_sound = false; ///< escape-analysis invariants held
    uint64_t sites_total = 0;        ///< static memory-access sites
    uint64_t sites_thread_local = 0; ///< sites proved thread-local
    uint64_t events_seen = 0;   ///< extended-trace events inspected
    uint64_t pruned_stack_implicit = 0; ///< push/pop/call/ret events
    uint64_t pruned_stack_direct = 0;   ///< rsp/rbp-relative accesses
    // Points-to solver size (per-program facts; max-merged).
    uint64_t pointsto_objects = 0;
    uint64_t pointsto_constraints = 0;
    uint64_t pointsto_iterations = 0;

    uint64_t
    pruned() const
    {
        return pruned_stack_implicit + pruned_stack_direct;
    }

    /** Rollup across analyzer instances (service-wide --stats). */
    void
    merge(const PrefilterStats &other)
    {
        enabled = enabled || other.enabled;
        analysis_sound = analysis_sound || other.analysis_sound;
        // Site counts are per-program facts, identical across instances
        // analyzing the same binary: keep the larger, don't sum.
        const auto keep_max = [](uint64_t &a, uint64_t b) {
            a = a > b ? a : b;
        };
        keep_max(sites_total, other.sites_total);
        keep_max(sites_thread_local, other.sites_thread_local);
        keep_max(pointsto_objects, other.pointsto_objects);
        keep_max(pointsto_constraints, other.pointsto_constraints);
        keep_max(pointsto_iterations, other.pointsto_iterations);
        events_seen += other.events_seen;
        pruned_stack_implicit += other.pruned_stack_implicit;
        pruned_stack_direct += other.pruned_stack_direct;
    }
};

/** Everything the offline phase produces. */
struct OfflineResult {
    detect::RaceReport report;
    replay::ReplayStats replay_stats;
    pmu::PtDecodeStats decode_stats;
    replay::AlignStats align_stats;
    detect::FastTrackStats detect_stats;
    /** Streaming-detector counters (OfflineOptions::incremental). */
    detect::IncrementalStats incremental;
    /** What trace ingestion discarded (LoadedTrace analysis only). */
    trace::SegmentLoss ingest_loss;
    /** v5 columnar compression counters of the ingested trace
     *  (LoadedTrace analysis only; zero for a bare RunTrace). */
    trace::CompressionStats compression;
    PrefilterStats prefilter;
    uint64_t extended_trace_events = 0; ///< counted before the prefilter
    int regeneration_rounds = 0;

    // Wall-clock cost split of the offline pipeline (paper §7.6);
    // replay_stats splits replay further into forward and backward.
    double decode_seconds = 0;
    double align_seconds = 0;  ///< sample/sync alignment
    double replay_seconds = 0; ///< replayAll, over every round
    double detect_seconds = 0;

    /** Alignment plus replay: the paper's "reconstruction". */
    double
    reconstructSeconds() const
    {
        return align_seconds + replay_seconds;
    }

    double
    totalSeconds() const
    {
        return decode_seconds + reconstructSeconds() + detect_seconds;
    }
};

/**
 * The offline analyzer: feed it the program binary and a run trace; it
 * returns the race report and pipeline statistics.
 */
class OfflineAnalyzer
{
  public:
    OfflineAnalyzer(const asmkit::Program &program,
                    const OfflineOptions &options);

    /** Run the full offline pipeline over @p run. */
    OfflineResult analyze(const trace::RunTrace &run);

    /**
     * Analyze an ingested trace, recording what ingestion lost and the
     * trace's compression counters. Lost sync segments can hide fork
     * edges, and the epoch-GC soundness argument leans on observing
     * every fork, so such a trace keeps the streaming batching but runs
     * with GC off.
     */
    OfflineResult analyze(const trace::LoadedTrace &loaded);

    /**
     * Ingest @p path fault-tolerantly and analyze what survives.
     * Segment damage degrades the result (recorded in
     * OfflineResult::ingest_loss); only an uninterpretable file —
     * unreadable, foreign, wrong version, meta destroyed — returns a
     * TraceError.
     */
    Result<OfflineResult, trace::TraceError>
    analyzeFile(const std::string &path);

    /** Counters of this analyzer's executor since construction (all
     *  zero without one). */
    exec::ExecutorStats executorStats() const;

  private:
    OfflineResult analyzeWith(const trace::RunTrace &run,
                              const OfflineOptions &options);

    const asmkit::Program &program_;
    OfflineOptions options_;
    /** Static facts shared by the aligner, replayer and prefilter. */
    std::unique_ptr<analysis::ProgramAnalysis> analysis_;
    /** Decode and replay workers; null when num_threads is 0. */
    std::unique_ptr<exec::Executor> executor_;
};

namespace detail {

/**
 * The detection stage of the offline pipeline: merge the
 * reconstructed accesses and the sync trace into one TSC-ordered feed
 * (with the release < access < acquire tie-break at equal timestamps)
 * and run FastTrack over it. With @p run_summary set,
 * consecutive identical accesses are folded through
 * FastTrack::foldRepeats (per-iteration fallback when the detector
 * cannot prove absorption); the report is byte-identical either way.
 */
void detectRaces(const trace::RunTrace &run,
                 const std::map<uint32_t,
                                replay::ThreadAlignment> &alignments,
                 const std::vector<replay::ReconstructedAccess> &accesses,
                 detect::RaceReport &report,
                 detect::FastTrackStats &stats, bool run_summary = true);

/**
 * The streaming variant of detectRaces: the identical merged feed is
 * dispatched into an IncrementalFastTrack in batches of
 * options.batch_events events, with a batch boundary (thread
 * retirement + epoch GC) between batches. The caller pre-seeds
 * @p detector with requireThread() for every expected thread; the race
 * report is byte-identical to the one-shot path.
 */
void detectRacesIncremental(
    const trace::RunTrace &run,
    const std::map<uint32_t, replay::ThreadAlignment> &alignments,
    const std::vector<replay::ReconstructedAccess> &accesses,
    detect::IncrementalFastTrack &detector, bool run_summary = true,
    const CheckpointHooks *hooks = nullptr,
    bool allow_checkpoint = true);

/**
 * Paper §5.1: races on locations whose emulated values the replay
 * consumed are suspect; returns the blacklist additions for the next
 * regeneration round (empty = converged).
 */
std::vector<std::pair<uint64_t, uint64_t>>
regenerationBlacklist(
    const detect::RaceReport &report,
    const std::unordered_set<uint64_t> &consumed,
    const std::vector<std::pair<uint64_t, uint64_t>> &existing);

/**
 * The static access prefilter of the offline pipeline: removes
 * extended-trace events at definitely-thread-local sites and accounts
 * for what was dropped. A no-op (beyond counting
 * events_seen) when @p enabled is false or @p analysis is null.
 */
void applyStaticPrefilter(
    std::vector<replay::ReconstructedAccess> &accesses,
    const analysis::ProgramAnalysis *analysis, bool enabled,
    PrefilterStats &stats,
    // Unused; kept because perfbench/offline.cc still passes &run.
    const trace::RunTrace * = nullptr);

} // namespace detail

} // namespace prorace::core

#endif // PRORACE_CORE_OFFLINE_HH
