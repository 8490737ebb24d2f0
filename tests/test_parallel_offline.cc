/**
 * @file
 * Thread-count invariance of the offline analyzer: for every workload,
 * seed, and thread count, OfflineAnalyzer with an N-worker executor
 * must produce a byte-identical race report and identical pipeline
 * statistics to the same analyzer with no executor on the same trace
 * (everything except the wall-clock timers), with one-shot and with
 * streaming detection.
 */

#include <gtest/gtest.h>

#include "asmkit/builder.hh"
#include "core/offline.hh"
#include "core/pipeline.hh"
#include "workload/racybugs.hh"

namespace prorace {
namespace {

using asmkit::Program;
using asmkit::ProgramBuilder;
using isa::CondCode;
using isa::Reg;

const unsigned kThreadCounts[] = {1, 2, 8};

/**
 * Analyze @p run with no executor and with @p num_threads workers;
 * every non-timing field of the results must match exactly.
 */
void
expectEquivalentOnce(const Program &program, const trace::RunTrace &run,
                     const core::OfflineOptions &base,
                     unsigned num_threads, int *regeneration_rounds)
{
    core::OfflineOptions serial_opt = base;
    serial_opt.num_threads = 0;
    core::OfflineAnalyzer serial(program, serial_opt);
    core::OfflineResult s = serial.analyze(run);
    if (regeneration_rounds)
        *regeneration_rounds = s.regeneration_rounds;

    core::OfflineOptions parallel_opt = base;
    parallel_opt.num_threads = num_threads;
    core::OfflineAnalyzer parallel(program, parallel_opt);
    core::OfflineResult p = parallel.analyze(run);

    // The report, byte for byte.
    EXPECT_EQ(s.report.format(&program), p.report.format(&program));
    EXPECT_EQ(s.report.size(), p.report.size());

    // The extended trace and the regeneration trajectory.
    EXPECT_EQ(s.extended_trace_events, p.extended_trace_events);
    EXPECT_EQ(s.regeneration_rounds, p.regeneration_rounds);

    // Decode stats.
    EXPECT_EQ(s.decode_stats.packets, p.decode_stats.packets);
    EXPECT_EQ(s.decode_stats.path_entries, p.decode_stats.path_entries);

    // Alignment stats.
    EXPECT_EQ(s.align_stats.samples_matched,
              p.align_stats.samples_matched);
    EXPECT_EQ(s.align_stats.samples_unmatched,
              p.align_stats.samples_unmatched);
    EXPECT_EQ(s.align_stats.candidates_rejected,
              p.align_stats.candidates_rejected);

    // Replay stats, every counter, window quarantine included.
    EXPECT_EQ(s.replay_stats.sampled, p.replay_stats.sampled);
    EXPECT_EQ(s.replay_stats.recovered_forward,
              p.replay_stats.recovered_forward);
    EXPECT_EQ(s.replay_stats.recovered_backward,
              p.replay_stats.recovered_backward);
    EXPECT_EQ(s.replay_stats.recovered_pcrel,
              p.replay_stats.recovered_pcrel);
    EXPECT_EQ(s.replay_stats.windows, p.replay_stats.windows);
    EXPECT_EQ(s.replay_stats.inconsistent_windows,
              p.replay_stats.inconsistent_windows);
    EXPECT_EQ(s.replay_stats.backward_rounds,
              p.replay_stats.backward_rounds);
    EXPECT_EQ(s.replay_stats.violations_branch,
              p.replay_stats.violations_branch);
    EXPECT_EQ(s.replay_stats.violations_fact,
              p.replay_stats.violations_fact);
    EXPECT_EQ(s.replay_stats.violations_sample,
              p.replay_stats.violations_sample);
    EXPECT_EQ(s.replay_stats.violations_end,
              p.replay_stats.violations_end);
    EXPECT_EQ(s.replay_stats.violations_backward,
              p.replay_stats.violations_backward);
    EXPECT_EQ(s.replay_stats.window_retries,
              p.replay_stats.window_retries);
    EXPECT_EQ(s.replay_stats.windows_quarantined,
              p.replay_stats.windows_quarantined);
    EXPECT_EQ(s.replay_stats.recovered_constant,
              p.replay_stats.recovered_constant);
    // Shadow-page counters are per pass, whichever worker's program map
    // the pass reused.
    EXPECT_EQ(s.replay_stats.program_map.pages_allocated,
              p.replay_stats.program_map.pages_allocated);
    EXPECT_EQ(s.replay_stats.program_map.page_lookups,
              p.replay_stats.program_map.page_lookups);
    EXPECT_EQ(s.replay_stats.program_map.cache_hits,
              p.replay_stats.program_map.cache_hits);
    EXPECT_EQ(s.replay_stats.program_map.mem_invalidations,
              p.replay_stats.program_map.mem_invalidations);

    // Detection stats (identical feed => identical FastTrack path mix).
    EXPECT_EQ(s.detect_stats.reads, p.detect_stats.reads);
    EXPECT_EQ(s.detect_stats.writes, p.detect_stats.writes);
    EXPECT_EQ(s.detect_stats.sync_ops, p.detect_stats.sync_ops);
    EXPECT_EQ(s.detect_stats.epoch_fast_path,
              p.detect_stats.epoch_fast_path);
    EXPECT_EQ(s.detect_stats.read_shares, p.detect_stats.read_shares);

    // Streaming-detector counters (all zero for one-shot detection).
    EXPECT_EQ(s.incremental.events, p.incremental.events);
    EXPECT_EQ(s.incremental.batches, p.incremental.batches);
    EXPECT_EQ(s.incremental.gc_sweeps, p.incremental.gc_sweeps);
    EXPECT_EQ(s.incremental.gc_gated, p.incremental.gc_gated);
    EXPECT_EQ(s.incremental.granules_reclaimed,
              p.incremental.granules_reclaimed);
    EXPECT_EQ(s.incremental.clocks_reclaimed,
              p.incremental.clocks_reclaimed);
    EXPECT_EQ(s.incremental.peak_live_granules,
              p.incremental.peak_live_granules);
    EXPECT_EQ(s.incremental.peak_live_clocks,
              p.incremental.peak_live_clocks);
}

/**
 * expectEquivalentOnce with one-shot detection and again with the
 * service's streaming configuration (incremental detection, 256-event
 * batches).
 */
void
expectEquivalent(const Program &program, const trace::RunTrace &run,
                 const core::OfflineOptions &base, unsigned num_threads,
                 const char *label, int *regeneration_rounds = nullptr)
{
    SCOPED_TRACE(std::string(label) + ", num_threads=" +
                 std::to_string(num_threads));
    {
        SCOPED_TRACE("one-shot detection");
        expectEquivalentOnce(program, run, base, num_threads,
                             regeneration_rounds);
    }
    SCOPED_TRACE("incremental detection");
    core::OfflineOptions streaming = base;
    streaming.incremental.enabled = true;
    streaming.incremental.batch_events = 256;
    expectEquivalentOnce(program, run, streaming, num_threads, nullptr);
}

/**
 * The §5.1 regeneration subject: two workers race on a global counter
 * whose stored value the replay reads back within the same window (the
 * global's address is a literal, so the emulated load succeeds), which
 * marks the racy location *consumed* and triggers the blacklist-and-
 * replay loop.
 */
Program
globalRaceProgram()
{
    ProgramBuilder b;
    b.globalU64("counter", 0);
    b.label("main");
    b.movri(Reg::r12, 0);
    b.spawn(Reg::r8, "worker", Reg::r12);
    b.spawn(Reg::r9, "worker", Reg::r12);
    b.join(Reg::r8);
    b.join(Reg::r9);
    b.halt();
    b.beginFunction("worker");
    b.movri(Reg::rcx, 0);
    b.label("loop");
    b.load(Reg::rax, b.symRef("counter"));
    b.addri(Reg::rax, 1);
    b.store(b.symRef("counter"), Reg::rax);
    b.addri(Reg::rcx, 1);
    b.cmpri(Reg::rcx, 300);
    b.jcc(CondCode::kLt, "loop");
    b.halt();
    return b.build();
}

TEST(ParallelOffline, MatchesSerialOnRacyBugWorkloads)
{
    // Two real-app bug subjects, several seeds, all thread counts.
    for (const char *name : {"cherokee-0.9.2", "pbzip2-0.9.5"}) {
        workload::Workload w = workload::makeRacyBug(name, 0.4);
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            auto cfg = core::proRaceConfig(100, seed, w.pt_filter);
            auto run =
                core::Session::run(*w.program, w.setup, cfg.session);
            for (unsigned n : kThreadCounts) {
                expectEquivalent(*w.program, run.trace, cfg.offline, n,
                                 name);
            }
        }
    }
}

TEST(ParallelOffline, MatchesSerialThroughRegenerationRounds)
{
    // The racy-bug scenario whose report triggers the §5.1
    // regeneration loop: the blacklist trajectory — and hence the
    // round count — must be identical too.
    Program p = globalRaceProgram();
    bool saw_regeneration = false;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        auto cfg = core::proRaceConfig(25, seed);
        auto run = core::Session::run(
            p, [](vm::Machine &m) { m.addThread("main"); }, cfg.session);
        for (unsigned n : kThreadCounts) {
            int rounds = 0;
            expectEquivalent(p, run.trace, cfg.offline, n,
                             "global-race", &rounds);
            saw_regeneration = saw_regeneration || rounds > 0;
        }
    }
    EXPECT_TRUE(saw_regeneration)
        << "no seed exercised the regeneration loop; the equivalence "
           "coverage is weaker than intended";
}

TEST(ParallelOffline, MatchesSerialOnRaceFreeWorkload)
{
    // A clean subject: both engines must agree on the empty report and
    // on every counter along the way.
    workload::Workload w = workload::makeRacyBug("apache-21287", 0.4);
    auto cfg = core::proRaceConfig(200, 9, w.pt_filter);
    auto run = core::Session::run(*w.program, w.setup, cfg.session);
    for (unsigned n : kThreadCounts)
        expectEquivalent(*w.program, run.trace, cfg.offline, n,
                         "apache-21287");
}

TEST(ParallelOffline, ZeroThreadsRunsNoExecutorTasks)
{
    workload::Workload w = workload::makeRacyBug("pfscan", 0.4);
    auto cfg = core::proRaceConfig(100, 2, w.pt_filter);
    auto run = core::Session::run(*w.program, w.setup, cfg.session);

    ASSERT_EQ(cfg.offline.num_threads, 0u);
    core::OfflineAnalyzer inline_analyzer(*w.program, cfg.offline);
    core::OfflineResult r = inline_analyzer.analyze(run.trace);
    // No executor: every window ran inline.
    EXPECT_EQ(inline_analyzer.executorStats().executed, 0u);

    core::OfflineOptions two = cfg.offline;
    two.num_threads = 2;
    core::OfflineAnalyzer pooled(*w.program, two);
    core::OfflineResult p = pooled.analyze(run.trace);
    EXPECT_GT(pooled.executorStats().executed, 0u);
    EXPECT_EQ(r.report.format(w.program.get()),
              p.report.format(w.program.get()));
}

} // namespace
} // namespace prorace
