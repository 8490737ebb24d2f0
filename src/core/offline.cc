#include "core/offline.hh"

#include <algorithm>
#include <unordered_map>

#include "support/log.hh"
#include "support/timer.hh"
#include "trace/trace_file.hh"

namespace prorace::core {

using detect::AccessOrigin;
using vm::SyncKind;

// The trace reader drops every tid the detector's epochs cannot pack.
static_assert(trace::kMaxTraceThreads == detect::Epoch::kMaxThreads,
              "trace tid bound must match the FastTrack epoch tid field");

namespace {

/** One entry of the merged detector feed. */
struct FeedEvent {
    uint64_t tsc = 0;
    uint8_t subrank = 1; ///< same-TSC tie-break: release < access < acquire
    uint32_t tid = 0;
    uint64_t position = 0;
    bool is_sync = false;
    size_t index = 0; ///< into the access vector or the sync trace
};

/**
 * Tie-break rank at equal TSC: happens-before sources (releases, exits,
 * spawns) sort before plain accesses, which sort before happens-before
 * sinks (acquires, joins, wakes).
 */
uint8_t
syncSubrank(SyncKind kind)
{
    switch (kind) {
      case SyncKind::kUnlock:
      case SyncKind::kCondWaitBegin:
      case SyncKind::kCondSignal:
      case SyncKind::kCondBroadcast:
      case SyncKind::kBarrierEnter:
      case SyncKind::kSpawn:
      case SyncKind::kThreadExit:
      case SyncKind::kRwUnlock:
      case SyncKind::kSemInit:
      case SyncKind::kSemPost:
      case SyncKind::kSpinUnlock:
      case SyncKind::kAtomicRelease:
        return 0;
      case SyncKind::kLock:
      case SyncKind::kCondWake:
      case SyncKind::kBarrierExit:
      case SyncKind::kJoin:
      case SyncKind::kThreadStart:
      case SyncKind::kRwRdLock:
      case SyncKind::kRwWrLock:
      case SyncKind::kSemWait:
      case SyncKind::kSpinLock:
      case SyncKind::kAtomicAcquire:
      case SyncKind::kAtomicAcqRel:
        return 2;
      default:
        return 1; // malloc/free order with accesses
    }
}

/**
 * Merge the reconstructed accesses and the sync trace into the
 * TSC-ordered detector feed with the release < access < acquire
 * tie-break. Both detection paths (one-shot and streaming) consume the
 * identical feed, which is what makes their reports byte-identical.
 */
std::vector<FeedEvent>
buildFeed(const trace::RunTrace &run,
          const std::map<uint32_t, replay::ThreadAlignment> &alignments,
          const std::vector<replay::ReconstructedAccess> &accesses)
{
    // Per-thread positions of sync records (exact program order) let the
    // merge tie-break same-TSC events correctly.
    std::unordered_map<size_t, uint64_t> sync_positions;
    for (const auto &[tid, align] : alignments) {
        for (const auto &s : align.syncs)
            sync_positions[s.record_index] = s.position;
    }

    std::vector<FeedEvent> feed;
    feed.reserve(accesses.size() + run.sync.size());
    for (size_t i = 0; i < accesses.size(); ++i) {
        feed.push_back({accesses[i].tsc, 1, accesses[i].tid,
                        accesses[i].position, false, i});
    }
    for (size_t i = 0; i < run.sync.size(); ++i) {
        uint64_t pos = 0;
        if (auto it = sync_positions.find(i); it != sync_positions.end())
            pos = it->second;
        feed.push_back({run.sync[i].tsc, syncSubrank(run.sync[i].kind),
                        run.sync[i].tid, pos, true, i});
    }
    std::stable_sort(feed.begin(), feed.end(),
                     [](const FeedEvent &a, const FeedEvent &b) {
                         if (a.tsc != b.tsc)
                             return a.tsc < b.tsc;
                         if (a.subrank != b.subrank)
                             return a.subrank < b.subrank;
                         if (a.tid != b.tid)
                             return a.tid < b.tid;
                         return a.position < b.position;
                     });
    return feed;
}

detect::MemAccess
toMemAccess(const replay::ReconstructedAccess &a)
{
    detect::MemAccess ma;
    ma.tid = a.tid;
    ma.addr = a.addr;
    ma.width = a.width;
    ma.is_write = a.is_write;
    ma.is_atomic = a.is_atomic;
    ma.insn_index = a.insn_index;
    ma.tsc = a.tsc;
    ma.origin = a.origin;
    return ma;
}

/** Dispatch one feed event into either detector flavor. */
template <typename Detector>
void
dispatchEvent(Detector &ft, const FeedEvent &ev,
              const trace::RunTrace &run,
              const std::vector<replay::ReconstructedAccess> &accesses)
{
    if (!ev.is_sync) {
        ft.access(toMemAccess(accesses[ev.index]));
        return;
    }
    const trace::SyncRecord &s = run.sync[ev.index];
    switch (s.kind) {
      case SyncKind::kLock:
        ft.acquire(s.tid, s.object);
        break;
      case SyncKind::kUnlock:
        ft.release(s.tid, s.object);
        break;
      case SyncKind::kCondWaitBegin:
        // Releases the associated mutex (aux) before blocking.
        ft.release(s.tid, s.aux);
        break;
      case SyncKind::kCondWake:
        // Reacquires the mutex and inherits the signaler's clock.
        ft.acquire(s.tid, s.aux);
        ft.acquire(s.tid, s.object);
        break;
      case SyncKind::kCondSignal:
      case SyncKind::kCondBroadcast:
        ft.release(s.tid, s.object);
        break;
      case SyncKind::kBarrierEnter:
        ft.barrierEnter(s.tid, s.object);
        break;
      case SyncKind::kBarrierExit:
        ft.barrierExit(s.tid, s.object);
        break;
      case SyncKind::kSpawn:
        ft.fork(s.tid, static_cast<uint32_t>(s.aux));
        break;
      case SyncKind::kThreadStart:
        break; // the fork edge already transferred the clock
      case SyncKind::kThreadExit:
        ft.threadExit(s.tid, s.tsc);
        break;
      case SyncKind::kJoin:
        ft.join(s.tid, static_cast<uint32_t>(s.aux));
        break;
      case SyncKind::kMalloc:
        ft.allocate(s.tid, s.object, s.aux);
        break;
      case SyncKind::kFree:
        ft.deallocate(s.tid, s.object);
        break;
      case SyncKind::kRwRdLock:
        ft.readLock(s.tid, s.object);
        break;
      case SyncKind::kRwWrLock:
        ft.writeLock(s.tid, s.object);
        break;
      case SyncKind::kRwUnlock:
        // aux distinguishes the mode the lock was held in.
        if (s.aux)
            ft.writeUnlock(s.tid, s.object);
        else
            ft.readUnlock(s.tid, s.object);
        break;
      case SyncKind::kSemInit:
        ft.semInit(s.tid, s.object, s.aux);
        break;
      case SyncKind::kSemWait:
        ft.semWait(s.tid, s.object);
        break;
      case SyncKind::kSemPost:
        ft.semPost(s.tid, s.object);
        break;
      case SyncKind::kSpinLock:
        ft.acquire(s.tid, s.object);
        break;
      case SyncKind::kSpinUnlock:
        ft.release(s.tid, s.object);
        break;
      case SyncKind::kAtomicAcquire:
        ft.acquire(s.tid, s.object);
        break;
      case SyncKind::kAtomicRelease:
        ft.release(s.tid, s.object);
        break;
      case SyncKind::kAtomicAcqRel:
        ft.acquireRelease(s.tid, s.object);
        break;
    }
}

/**
 * End of the maximal run starting at feed position @p i: the first
 * position whose event is a sync op or an access differing from
 * feed[i]'s in anything but the TSC. Only such runs — identical
 * accesses with no intervening event of any thread — are candidates for
 * detector-side folding.
 */
size_t
runExtent(const std::vector<FeedEvent> &feed,
          const std::vector<replay::ReconstructedAccess> &accesses,
          size_t i)
{
    const replay::ReconstructedAccess &a = accesses[feed[i].index];
    size_t j = i + 1;
    while (j < feed.size() && !feed[j].is_sync) {
        const replay::ReconstructedAccess &b = accesses[feed[j].index];
        if (b.tid != a.tid || b.addr != a.addr || b.width != a.width ||
            b.is_write != a.is_write || b.is_atomic != a.is_atomic ||
            b.insn_index != a.insn_index || b.origin != a.origin)
            break;
        ++j;
    }
    return j;
}

/**
 * Dispatch the whole feed with optional run-level folding: the first
 * iteration of a run of identical accesses is dispatched normally, then
 * the detector is asked to absorb the repeats in one step; if it
 * declines (shared-read state, where repeat TSCs matter), the repeats
 * are dispatched individually from the original events. @p on_events is
 * called once per run/event with the number of feed events covered and
 * the TSC of the last one — the hook streaming detection paces its
 * batch boundaries with.
 */
template <typename Detector, typename OnEvents>
void
dispatchFeed(Detector &ft, const std::vector<FeedEvent> &feed,
             const trace::RunTrace &run,
             const std::vector<replay::ReconstructedAccess> &accesses,
             bool run_summary, OnEvents &&on_events, size_t start = 0)
{
    // @p start resumes mid-feed (checkpoint warm start). Cursor values
    // recorded by on_events are sums of whole run extents, so a saved
    // cursor always lands back on a run boundary and the continuation
    // dispatches exactly the events an uninterrupted run would have.
    size_t i = start;
    while (i < feed.size()) {
        const FeedEvent &ev = feed[i];
        size_t j = i + 1;
        if (run_summary && !ev.is_sync)
            j = runExtent(feed, accesses, i);
        dispatchEvent(ft, ev, run, accesses);
        if (j - i > 1 &&
            !ft.foldRepeats(toMemAccess(accesses[ev.index]),
                            j - i - 1)) {
            for (size_t k = i + 1; k < j; ++k)
                dispatchEvent(ft, feed[k], run, accesses);
        }
        on_events(j - i, feed[j - 1].tsc);
        i = j;
    }
}

} // namespace

namespace detail {

void
detectRaces(const trace::RunTrace &run,
            const std::map<uint32_t, replay::ThreadAlignment> &alignments,
            const std::vector<replay::ReconstructedAccess> &accesses,
            detect::RaceReport &report, detect::FastTrackStats &stats,
            bool run_summary)
{
    const std::vector<FeedEvent> feed =
        buildFeed(run, alignments, accesses);
    detect::FastTrack ft;
    dispatchFeed(ft, feed, run, accesses, run_summary,
                 [](uint64_t, uint64_t) {});
    report = ft.report();
    stats = ft.stats();
}

void
detectRacesIncremental(
    const trace::RunTrace &run,
    const std::map<uint32_t, replay::ThreadAlignment> &alignments,
    const std::vector<replay::ReconstructedAccess> &accesses,
    detect::IncrementalFastTrack &detector, bool run_summary,
    const CheckpointHooks *hooks, bool allow_checkpoint)
{
    const std::vector<FeedEvent> feed =
        buildFeed(run, alignments, accesses);

    // Checkpoint warm start: the saved image is only valid against the
    // exact feed it was cut from, so the feed size must match and the
    // image must deserialize cleanly; anything else cold-starts.
    uint64_t start = 0;
    if (hooks && allow_checkpoint && hooks->restore &&
        hooks->resume_feed_total == feed.size() &&
        hooks->resume_events <= feed.size()) {
        support::ByteReader reader(*hooks->restore);
        if (detector.restoreState(reader)) {
            start = hooks->resume_events;
            if (hooks->resumed)
                *hooks->resumed = true;
        }
    }

    const uint64_t batch =
        detector.options().batch_events ? detector.options().batch_events
                                        : 1;
    uint64_t in_batch = 0;
    uint64_t cursor = start;
    dispatchFeed(
        detector, feed, run, accesses, run_summary,
        [&](uint64_t events, uint64_t frontier_tsc) {
            in_batch += events;
            cursor += events;
            if (in_batch >= batch) {
                // Every later event has tsc >= this one (the feed is
                // sorted), so this event's TSC is a valid retirement
                // frontier.
                detector.batchBoundary(frontier_tsc);
                in_batch = 0;
                if (hooks) {
                    if (hooks->tick)
                        hooks->tick();
                    if (allow_checkpoint && hooks->on_boundary)
                        hooks->on_boundary(cursor, feed.size(),
                                           detector);
                }
            }
        },
        static_cast<size_t>(start));
    detector.finish();
    if (hooks) {
        if (hooks->tick)
            hooks->tick();
        // A final image at end-of-feed lets a tenant that re-streams
        // the identical trace warm-start past the whole detect stage.
        if (allow_checkpoint && hooks->on_boundary)
            hooks->on_boundary(feed.size(), feed.size(), detector);
    }
}

void
applyStaticPrefilter(std::vector<replay::ReconstructedAccess> &accesses,
                     const analysis::ProgramAnalysis *analysis,
                     bool enabled, PrefilterStats &stats,
                     const trace::RunTrace *)
{
    stats.events_seen += accesses.size();
    if (analysis) {
        const analysis::StaticSummary sum = analysis->summary();
        stats.analysis_sound = sum.rsp_integrity && sum.no_stack_escape;
        stats.sites_total = sum.mem_sites;
        stats.sites_thread_local = sum.thread_local_sites;
        stats.pointsto_objects = sum.pointsto.objects;
        stats.pointsto_constraints = sum.pointsto.constraints;
        stats.pointsto_iterations = sum.pointsto.iterations;
    }
    // An unsound analysis classifies every site may-shared, so the scan
    // below could never prune anything; skip it outright.
    stats.enabled = enabled && analysis != nullptr &&
        stats.analysis_sound;
    if (!stats.enabled)
        return;
    auto keep = std::remove_if(
        accesses.begin(), accesses.end(),
        [&](const replay::ReconstructedAccess &a) {
            if (!analysis->siteThreadLocal(a.insn_index))
                return false;
            using analysis::SiteClass;
            if (analysis->escape().site(a.insn_index) ==
                SiteClass::kStackImplicit) {
                ++stats.pruned_stack_implicit;
            } else {
                ++stats.pruned_stack_direct;
            }
            return true;
        });
    accesses.erase(keep, accesses.end());
}

std::vector<std::pair<uint64_t, uint64_t>>
regenerationBlacklist(
    const detect::RaceReport &report,
    const std::unordered_set<uint64_t> &consumed,
    const std::vector<std::pair<uint64_t, uint64_t>> &existing)
{
    std::vector<std::pair<uint64_t, uint64_t>> additions;
    for (const detect::DataRace &race : report.races()) {
        bool used = false;
        for (uint64_t b = race.addr; b < race.addr + 8; ++b) {
            if (consumed.count(b)) {
                used = true;
                break;
            }
        }
        if (!used)
            continue;
        bool already = false;
        for (const auto &[addr, size] : existing) {
            if (race.addr >= addr && race.addr < addr + size)
                already = true;
        }
        if (!already)
            additions.emplace_back(race.addr, 8);
    }
    return additions;
}

} // namespace detail

OfflineAnalyzer::OfflineAnalyzer(const asmkit::Program &program,
                                 const OfflineOptions &options)
    : program_(program), options_(options),
      analysis_(std::make_unique<analysis::ProgramAnalysis>(
          program, options.pointsto))
{
    // Hand the precomputed fact tables to the replay layer; replay and
    // alignment results are bit-identical with or without them.
    options_.replay.analysis = analysis_.get();
    // Executor(0) would mean "hardware concurrency"; zero workers means
    // no executor at all.
    if (options_.num_threads > 0)
        executor_ = std::make_unique<exec::Executor>(options_.num_threads);
}

exec::ExecutorStats
OfflineAnalyzer::executorStats() const
{
    return executor_ ? executor_->stats() : exec::ExecutorStats();
}

OfflineResult
OfflineAnalyzer::analyze(const trace::RunTrace &run)
{
    return analyzeWith(run, options_);
}

OfflineResult
OfflineAnalyzer::analyze(const trace::LoadedTrace &loaded)
{
    OfflineOptions options = options_;
    if (loaded.loss.sync_dropped > 0)
        options.incremental.enable_gc = false;
    OfflineResult result = analyzeWith(loaded.trace, options);
    result.ingest_loss = loaded.loss;
    result.compression = loaded.trace.meta.compression;
    return result;
}

Result<OfflineResult, trace::TraceError>
OfflineAnalyzer::analyzeFile(const std::string &path)
{
    auto loaded = trace::readTraceFile(path);
    if (!loaded.ok())
        return loaded.error();
    return analyze(loaded.value());
}

OfflineResult
OfflineAnalyzer::analyzeWith(const trace::RunTrace &run,
                             const OfflineOptions &options)
{
    OfflineResult result;
    exec::Executor *ex = executor_.get();

    std::map<uint32_t, pmu::ThreadPath> paths;
    std::map<uint32_t, replay::ThreadAlignment> alignments;
    if (options.replay.mode != replay::ReplayMode::kBasicBlock) {
        Stopwatch timer;
        paths = pmu::decodePt(program_, options.pt_filter, run,
                              &result.decode_stats, ex);
        result.decode_seconds = timer.lap();

        alignments = replay::alignTrace(program_, paths, run,
                                        &result.align_stats,
                                        analysis_.get());
        result.align_seconds = timer.lap();
    }

    replay::ReplayConfig replay_config = options.replay;
    for (int round = 0;; ++round) {
        result.regeneration_rounds = round;

        // --- reconstruction ---
        Stopwatch timer;
        replay::Replayer replayer(program_, replay_config);
        std::vector<replay::ReconstructedAccess> accesses =
            replayer.replayAll(paths, alignments, run, ex);
        result.replay_stats = replayer.stats();
        result.extended_trace_events = accesses.size();
        result.replay_seconds += timer.lap();

        // --- detection (prefilter cost counts as detection cost) ---
        detail::applyStaticPrefilter(accesses, analysis_.get(),
                                     options.static_prefilter,
                                     result.prefilter);
        if (options.incremental.enabled) {
            detect::IncrementalFastTrack detector(options.incremental);
            // GC is gated until every thread of the run has appeared in
            // the feed; the meta thread table is the authoritative
            // population.
            for (const trace::ThreadMeta &tm : run.meta.threads)
                detector.requireThread(tm.tid);
            detail::detectRacesIncremental(run, alignments, accesses,
                                           detector, options.run_summary,
                                           &options.checkpoint,
                                           round == 0);
            result.report = detector.report();
            result.detect_stats = detector.stats();
            result.incremental.merge(detector.incrementalStats());
        } else {
            detail::detectRaces(run, alignments, accesses, result.report,
                                result.detect_stats, options.run_summary);
        }
        result.detect_seconds += timer.lap();

        if (round >= options.max_regeneration_rounds)
            break;

        std::vector<std::pair<uint64_t, uint64_t>> new_blacklist =
            detail::regenerationBlacklist(result.report,
                                          replayer.consumedAddresses(),
                                          replay_config.mem_blacklist);
        if (new_blacklist.empty())
            break;
        replay_config.mem_blacklist.insert(
            replay_config.mem_blacklist.end(), new_blacklist.begin(),
            new_blacklist.end());
    }
    return result;
}

} // namespace prorace::core
