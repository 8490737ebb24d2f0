/**
 * @file
 * Tests for the offline reconstruction pipeline: alignment, forward and
 * backward replay, and end-to-end race detection.
 *
 * The central property: every reconstructed access must be *correct* —
 * it must match the oracle access the machine actually performed at
 * that exact path position.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "analysis/analysis.hh"
#include "core/offline.hh"
#include "core/pipeline.hh"
#include "core/session.hh"
#include "replay/align.hh"
#include "replay/replayer.hh"
#include "testutil.hh"
#include "workload/registry.hh"

namespace prorace::replay {
namespace {

using testutil::makeBranchyProgram;
using isa::AluOp;
using isa::CondCode;
using isa::MemOperand;
using isa::Reg;

/** Everything a reconstruction test needs from one traced run. */
struct Fixture {
    vm::MachineConfig mcfg;
    driver::TraceConfig tcfg;
    trace::RunTrace trace;
    std::map<std::pair<uint32_t, uint64_t>,
             std::vector<vm::MemoryLogEntry>> oracle; ///< (tid,pos) -> accs
    std::map<uint32_t, pmu::ThreadPath> paths;
    std::map<uint32_t, ThreadAlignment> alignments;
    AlignStats align_stats;

    Fixture(const asmkit::Program &program, uint64_t period,
            uint64_t seed = 3)
    {
        mcfg.seed = seed;
        mcfg.record_memory_log = true;
        tcfg.pebs_period = period;
        tcfg.seed = seed + 100;

        vm::Machine machine(program, mcfg);
        driver::TracingSession tracing(tcfg, mcfg.num_cores);
        machine.setObserver(&tracing);
        machine.addThread("main");
        machine.run();
        trace = tracing.finish();
        for (uint32_t tid = 0; tid < machine.numThreads(); ++tid)
            trace.meta.threads.push_back({tid, machine.thread(tid).entry_ip});
        for (const auto &e : machine.memoryLog())
            oracle[{e.tid, e.retire_index}].push_back(e);

        paths = pmu::decodePt(program, pmu::PtFilter::all(), trace);
        alignments = alignTrace(program, paths, trace, &align_stats);
    }
};

/** Assert every access matches the oracle at its claimed position. */
void
verifyAgainstOracle(const Fixture &fx,
                    const std::vector<ReconstructedAccess> &accesses)
{
    for (const auto &acc : accesses) {
        auto it = fx.oracle.find({acc.tid, acc.position});
        ASSERT_NE(it, fx.oracle.end())
            << "no oracle access at tid " << acc.tid << " pos "
            << acc.position << " insn #" << acc.insn_index << " ("
            << detect::accessOriginName(acc.origin) << ")";
        bool matched = false;
        for (const auto &e : it->second) {
            if (e.insn_index == acc.insn_index && e.addr == acc.addr &&
                e.is_write == acc.is_write && e.width == acc.width) {
                matched = true;
            }
        }
        EXPECT_TRUE(matched)
            << "reconstructed access mismatches oracle: tid " << acc.tid
            << " pos " << acc.position << " insn #" << acc.insn_index
            << " addr 0x" << std::hex << acc.addr << std::dec << " ("
            << detect::accessOriginName(acc.origin) << ")";
    }
}

TEST(Align, SamplesLandOnCorrectPathPositions)
{
    asmkit::Program program = makeBranchyProgram(120);
    Fixture fx(program, 7);
    ASSERT_GT(fx.align_stats.samples_matched, 20u);
    // Matching is near-total (tight loops plus anchors plus register
    // verification).
    EXPECT_LT(fx.align_stats.samples_unmatched,
              fx.align_stats.samples_matched / 10 + 2);

    for (const auto &[tid, align] : fx.alignments) {
        const auto &path = fx.paths.at(tid);
        for (const AlignedSample &s : align.samples) {
            const trace::PebsRecord &rec = fx.trace.pebs[s.record_index];
            ASSERT_LT(s.position, path.insns.size());
            EXPECT_EQ(path.insns[s.position], rec.insn_index);
            // The oracle access at this exact position must match the
            // record's address: the match is position-exact, not merely
            // instruction-exact.
            auto it = fx.oracle.find({tid, s.position});
            ASSERT_NE(it, fx.oracle.end());
            bool ok = false;
            for (const auto &e : it->second)
                ok |= e.addr == rec.addr && e.is_write == rec.is_write;
            EXPECT_TRUE(ok) << "sample matched to wrong loop iteration";
        }
    }
}

TEST(Align, TscInterpolationIsMonotone)
{
    asmkit::Program program = makeBranchyProgram(80);
    Fixture fx(program, 13);
    for (const auto &[tid, align] : fx.alignments) {
        uint64_t last = 0;
        const auto &path = fx.paths.at(tid);
        for (uint64_t pos = 0; pos < path.insns.size();
             pos += 1 + path.insns.size() / 200) {
            const uint64_t t = align.tscAt(pos);
            EXPECT_GE(t, last);
            last = t;
        }
    }
}

TEST(Replayer, ReconstructionMatchesOracleExactly)
{
    asmkit::Program program = makeBranchyProgram(150);
    for (uint64_t seed : testutil::testSeeds({3ull, 11ull, 29ull})) {
        PRORACE_SEED_TRACE(seed);
        Fixture fx(program, 23, seed);
        Replayer replayer(program, {});
        auto accesses = replayer.replayAll(fx.paths, fx.alignments,
                                           fx.trace);
        ASSERT_GT(accesses.size(), 100u);
        verifyAgainstOracle(fx, accesses);
    }
}

TEST(Replayer, RecoveryRatioIsSubstantial)
{
    asmkit::Program program = makeBranchyProgram(200);
    Fixture fx(program, 50);
    Replayer replayer(program, {});
    auto accesses = replayer.replayAll(fx.paths, fx.alignments, fx.trace);
    (void)accesses;
    const ReplayStats &st = replayer.stats();
    ASSERT_GT(st.sampled, 10u);
    EXPECT_GT(st.recoveryRatio(), 10.0)
        << "forward+backward replay should multiply coverage";
}

TEST(Replayer, ModesFormAStrictHierarchy)
{
    asmkit::Program program = makeBranchyProgram(200);
    Fixture fx(program, 50);

    auto run_mode = [&](ReplayMode mode) {
        ReplayConfig cfg;
        cfg.mode = mode;
        Replayer replayer(program, cfg);
        auto accesses = replayer.replayAll(fx.paths, fx.alignments,
                                           fx.trace);
        // Basic-block mode uses block-relative positions, so the
        // position-exact oracle check only applies to the PT modes.
        if (mode != ReplayMode::kBasicBlock)
            verifyAgainstOracle(fx, accesses);
        return replayer.stats().totalAccesses();
    };

    const uint64_t bb = run_mode(ReplayMode::kBasicBlock);
    const uint64_t fwd = run_mode(ReplayMode::kForwardOnly);
    const uint64_t both = run_mode(ReplayMode::kForwardBackward);
    EXPECT_GT(fwd, bb) << "PT-guided forward replay beats basic-block";
    EXPECT_GE(both, fwd);
    EXPECT_GT(both, bb * 2);
}

TEST(Replayer, BackwardReplayRecoversPointerChase)
{
    // The paper's Fig. 5 situation: a pointer loaded from (unavailable)
    // memory is dereferenced; forward replay cannot compute the second
    // address, but the next sample's registers restore it backwards.
    asmkit::ProgramBuilder b;
    b.global("slots", 64 * 8);
    b.globalU64("sink", 0);
    b.label("main");
    b.movri(Reg::rcx, 0);
    b.lea(Reg::r15, b.symRef("slots"));
    b.label("loop");
    // rsi = slots[rcx % 8]; rdx = [rsi + 8]  (pointer chase)
    b.movrr(Reg::rax, Reg::rcx);
    b.aluri(AluOp::kAnd, Reg::rax, 7);
    b.load(Reg::rsi, MemOperand::baseIndex(Reg::r15, Reg::rax, 8)); // A
    b.load(Reg::rdx, MemOperand::baseDisp(Reg::rsi, 8));            // B
    b.store(b.symRef("sink"), Reg::rdx);
    b.addri(Reg::rcx, 1);
    b.cmpri(Reg::rcx, 4000);
    b.jcc(CondCode::kLt, "loop");
    b.halt();
    asmkit::Program program = b.build();

    // Initialize slots with self-referential pointers so load B has a
    // meaningful address.
    vm::MachineConfig mcfg;
    mcfg.seed = 7;
    mcfg.record_memory_log = true;
    driver::TraceConfig tcfg;
    tcfg.pebs_period = 101;

    vm::Machine machine(program, mcfg);
    const uint64_t slots = program.symbol("slots").addr;
    for (int i = 0; i < 8; ++i)
        machine.memory().write(slots + 8 * i, slots + 256 + 32 * i, 8);
    driver::TracingSession tracing(tcfg, mcfg.num_cores);
    machine.setObserver(&tracing);
    machine.addThread("main");
    machine.run();
    trace::RunTrace trace = tracing.finish();
    trace.meta.threads.push_back({0, machine.thread(0).entry_ip});

    auto paths = pmu::decodePt(program, pmu::PtFilter::all(), trace);
    auto alignments = alignTrace(program, paths, trace);

    auto count_b = [&](ReplayMode mode) {
        ReplayConfig cfg;
        cfg.mode = mode;
        Replayer replayer(program, cfg);
        auto accesses = replayer.replayAll(paths, alignments, trace);
        const uint32_t insn_b = 5; // load B above (0-based emission order)
        uint64_t n = 0;
        for (const auto &a : accesses) {
            if (a.insn_index == insn_b &&
                a.origin == detect::AccessOrigin::kBackward) {
                ++n;
            }
        }
        return n;
    };

    EXPECT_EQ(count_b(ReplayMode::kForwardOnly), 0u);
    EXPECT_GT(count_b(ReplayMode::kForwardBackward), 10u)
        << "backward propagation must restore the chased pointer";

    // And all reconstructed addresses must still be correct.
    std::map<std::pair<uint32_t, uint64_t>,
             std::vector<vm::MemoryLogEntry>> oracle;
    for (const auto &e : machine.memoryLog())
        oracle[{e.tid, e.retire_index}].push_back(e);
    ReplayConfig cfg;
    Replayer replayer(program, cfg);
    auto accesses = replayer.replayAll(paths, alignments, trace);
    for (const auto &acc : accesses) {
        auto it = oracle.find({acc.tid, acc.position});
        ASSERT_NE(it, oracle.end());
        bool matched = false;
        for (const auto &e : it->second) {
            matched |= e.insn_index == acc.insn_index &&
                e.addr == acc.addr && e.is_write == acc.is_write;
        }
        EXPECT_TRUE(matched) << "backward-recovered address is wrong at "
                             << acc.position;
    }
}

TEST(Replayer, BackwardReplayLearnsRegistersThroughCopies)
{
    // Reverse execution learns a register from a later copy of it
    // (§5.2.2): the chased pointer is copied — by a register move, or
    // by lea with a displacement — and then overwritten, so the next
    // sample holds only the copy, and load B is recovered backward
    // only by learning the pointer back through the copy.
    for (const bool use_lea : {false, true}) {
        SCOPED_TRACE(use_lea ? "lea" : "mov");
        asmkit::ProgramBuilder b;
        b.global("slots", 64 * 8);
        b.globalU64("sink", 0);
        b.label("main");
        b.movri(Reg::rcx, 0);
        b.lea(Reg::r15, b.symRef("slots"));
        b.label("loop");
        b.movrr(Reg::rax, Reg::rcx);
        b.aluri(AluOp::kAnd, Reg::rax, 7);
        b.load(Reg::rsi, MemOperand::baseIndex(Reg::r15, Reg::rax, 8));
        const uint32_t insn_b =
            b.load(Reg::rdx, MemOperand::baseDisp(Reg::rsi, 8)); // B
        if (use_lea)
            b.lea(Reg::rdi, MemOperand::baseDisp(Reg::rsi, 16));
        else
            b.movrr(Reg::rdi, Reg::rsi);
        b.movri(Reg::rsi, 0);
        b.store(b.symRef("sink"), Reg::rdx);
        b.addri(Reg::rcx, 1);
        b.cmpri(Reg::rcx, 4000);
        b.jcc(CondCode::kLt, "loop");
        b.halt();
        asmkit::Program program = b.build();

        vm::MachineConfig mcfg;
        mcfg.seed = 7;
        mcfg.record_memory_log = true;
        driver::TraceConfig tcfg;
        tcfg.pebs_period = 101;
        vm::Machine machine(program, mcfg);
        const uint64_t slots = program.symbol("slots").addr;
        for (int i = 0; i < 8; ++i)
            machine.memory().write(slots + 8 * i, slots + 256 + 32 * i, 8);
        driver::TracingSession tracing(tcfg, mcfg.num_cores);
        machine.setObserver(&tracing);
        machine.addThread("main");
        machine.run();
        trace::RunTrace trace = tracing.finish();
        trace.meta.threads.push_back({0, machine.thread(0).entry_ip});
        std::map<std::pair<uint32_t, uint64_t>,
                 std::vector<vm::MemoryLogEntry>> oracle;
        for (const auto &e : machine.memoryLog())
            oracle[{e.tid, e.retire_index}].push_back(e);

        auto paths = pmu::decodePt(program, pmu::PtFilter::all(), trace);
        auto alignments = alignTrace(program, paths, trace);
        Replayer replayer(program, {});
        auto accesses = replayer.replayAll(paths, alignments, trace);
        uint64_t backward_b = 0;
        for (const auto &acc : accesses) {
            backward_b += acc.insn_index == insn_b &&
                acc.origin == detect::AccessOrigin::kBackward;
            auto it = oracle.find({acc.tid, acc.position});
            ASSERT_NE(it, oracle.end());
            bool matched = false;
            for (const auto &e : it->second) {
                matched |= e.insn_index == acc.insn_index &&
                    e.addr == acc.addr && e.is_write == acc.is_write;
            }
            EXPECT_TRUE(matched) << "wrong address at " << acc.position;
        }
        EXPECT_GT(backward_b, 10u)
            << "the pointer must be learned back through its copy";
    }
}

TEST(Replayer, PcRelativeRecoveredWithoutAnySample)
{
    // PC-relative accesses need only the PT path (paper §7.4): even with
    // (almost) no samples the extended trace contains them.
    asmkit::ProgramBuilder b;
    b.globalU64("flag", 0);
    b.label("main");
    b.movri(Reg::rcx, 0);
    b.label("loop");
    b.load(Reg::rax, b.symRef("flag"));   // pc-relative load
    b.addri(Reg::rax, 1);
    b.store(b.symRef("flag"), Reg::rax);  // pc-relative store
    b.addri(Reg::rcx, 1);
    b.cmpri(Reg::rcx, 500);
    b.jcc(CondCode::kLt, "loop");
    b.halt();
    asmkit::Program program = b.build();

    vm::MachineConfig mcfg;
    mcfg.seed = 5;
    driver::TraceConfig tcfg;
    tcfg.pebs_period = 1'000'000; // effectively no samples

    vm::Machine machine(program, mcfg);
    driver::TracingSession tracing(tcfg, mcfg.num_cores);
    machine.setObserver(&tracing);
    machine.addThread("main");
    machine.run();
    trace::RunTrace trace = tracing.finish();
    trace.meta.threads.push_back({0, machine.thread(0).entry_ip});

    auto paths = pmu::decodePt(program, pmu::PtFilter::all(), trace);
    auto alignments = alignTrace(program, paths, trace);
    Replayer replayer(program, {});
    auto accesses = replayer.replayAll(paths, alignments, trace);

    uint64_t pcrel = 0;
    for (const auto &a : accesses)
        pcrel += a.origin == detect::AccessOrigin::kPcRelative;
    EXPECT_GE(pcrel, 1000u) << "one load + one store per iteration";
}

TEST(Offline, DetectsARealRaceEndToEnd)
{
    // Two workers increment a shared counter without a lock; one worker
    // updates a locked counter too (so there is sync traffic).
    asmkit::ProgramBuilder b;
    b.globalU64("shared", 0);
    b.globalU64("safe", 0);
    b.global("mtx", 8);
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
    uint32_t racy_load = b.load(Reg::rax, b.symRef("shared"));
    b.addri(Reg::rax, 1);
    uint32_t racy_store = b.store(b.symRef("shared"), Reg::rax);
    b.lock(b.symRef("mtx"));
    b.load(Reg::rbx, b.symRef("safe"));
    b.addri(Reg::rbx, 1);
    b.store(b.symRef("safe"), Reg::rbx);
    b.unlock(b.symRef("mtx"));
    b.addri(Reg::rcx, 1);
    b.cmpri(Reg::rcx, 300);
    b.jcc(CondCode::kLt, "loop");
    b.halt();
    asmkit::Program program = b.build();

    core::SessionOptions opt;
    opt.machine.seed = 9;
    opt.run_baseline = false;
    opt.tracing.pebs_period = 100;
    core::RunArtifacts run = core::Session::run(
        program, [](vm::Machine &m) { m.addThread("main"); }, opt);

    core::OfflineAnalyzer analyzer(program, {});
    core::OfflineResult result = analyzer.analyze(run.trace);

    EXPECT_FALSE(result.report.empty()) << "the race must be detected";
    const uint64_t shared = program.symbol("shared").addr;
    EXPECT_TRUE(result.report.containsAddressRange(shared, 8));
    bool hits_site = result.report.containsInsn(racy_load) ||
        result.report.containsInsn(racy_store);
    EXPECT_TRUE(hits_site) << "report should name the racy instructions";
    // The locked counter must NOT be reported.
    EXPECT_FALSE(result.report.containsAddressRange(
        program.symbol("safe").addr, 8))
        << "lock-protected accesses misreported";
}

TEST(Offline, NoFalsePositivesOnSynchronizedProgram)
{
    // A fully synchronized program must produce an empty report for
    // every seed (FastTrack precision: no false positives).
    asmkit::Program program = makeBranchyProgram(100);
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        core::SessionOptions opt;
        opt.machine.seed = seed;
        opt.run_baseline = false;
        opt.tracing.pebs_period = 20;
        core::RunArtifacts run = core::Session::run(
            program, [](vm::Machine &m) { m.addThread("main"); }, opt);
        core::OfflineAnalyzer analyzer(program, {});
        core::OfflineResult result = analyzer.analyze(run.trace);
        EXPECT_TRUE(result.report.empty())
            << "false positive with seed " << seed << ":\n"
            << result.report.format(&program);
    }
}

TEST(Offline, TimingBreakdownIsPopulated)
{
    asmkit::Program program = makeBranchyProgram(150);
    core::SessionOptions opt;
    opt.machine.seed = 4;
    opt.run_baseline = false;
    opt.tracing.pebs_period = 30;
    core::RunArtifacts run = core::Session::run(
        program, [](vm::Machine &m) { m.addThread("main"); }, opt);
    core::OfflineAnalyzer analyzer(program, {});
    core::OfflineResult result = analyzer.analyze(run.trace);
    EXPECT_GT(result.decode_stats.packets, 0u);
    EXPECT_GT(result.extended_trace_events, 0u);
    EXPECT_GT(result.totalSeconds(), 0.0);
    EXPECT_GT(result.detect_stats.reads + result.detect_stats.writes, 0u);
}

// ---------------------------------------------------------------------
// Pinned reconstruction digests: the replay engine's exact output
// (every ReconstructedAccess field, the consumed set and every
// ReplayStats counter) for registry subjects at fixed seeds. A change
// to the replay internals must leave these digests unchanged; a change
// that means to alter reconstruction re-pins them deliberately.
// ---------------------------------------------------------------------

/** FNV-1a over a stream of 64-bit words. */
struct Digest {
    uint64_t h = 0xcbf29ce484222325ull;

    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    std::string
    hex() const
    {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }
};

/**
 * Fold one replay into @p d. The shadow-page counters join only for a
 * replay without a blacklist: the blacklist is applied once per worker
 * state, not once per pass, so it is not charged to any pass.
 */
void
digestReplay(Digest &d, const Replayer &replayer,
             const std::vector<ReconstructedAccess> &accesses,
             bool shadow_counters)
{
    d.add(accesses.size());
    for (const ReconstructedAccess &a : accesses) {
        d.add(a.tid);
        d.add(a.position);
        d.add(a.insn_index);
        d.add(a.addr);
        d.add(a.width);
        d.add(a.is_write);
        d.add(a.is_atomic);
        d.add(a.tsc);
        d.add(static_cast<uint64_t>(a.origin));
    }
    std::vector<uint64_t> consumed(replayer.consumedAddresses().begin(),
                                   replayer.consumedAddresses().end());
    std::sort(consumed.begin(), consumed.end());
    d.add(consumed.size());
    for (const uint64_t addr : consumed)
        d.add(addr);
    const ReplayStats &st = replayer.stats();
    for (const uint64_t v :
         {st.sampled, st.recovered_forward, st.recovered_backward,
          st.recovered_pcrel, st.recovered_constant, st.windows,
          st.inconsistent_windows, st.backward_rounds, st.violations_branch,
          st.violations_fact, st.violations_sample, st.violations_end,
          st.violations_backward, st.window_retries,
          st.windows_quarantined}) {
        d.add(v);
    }
    if (shadow_counters) {
        d.add(st.program_map.pages_allocated);
        d.add(st.program_map.page_lookups);
        d.add(st.program_map.cache_hits);
        d.add(st.program_map.mem_invalidations);
    }
}

/**
 * Digest of one traced registry subject: full ProRace replay with the
 * static analysis attached (as the offline analyzer runs it), a
 * regeneration replay under a blacklist drawn from the consumed set,
 * and the RaceZ basic-block replay.
 */
std::string
subjectDigest(const std::string &name, double scale, uint64_t period,
              uint64_t seed)
{
    const auto w = workload::findWorkload(name, scale);
    PRORACE_ASSERT(w.has_value(), "unknown subject ", name);
    const core::PipelineConfig cfg =
        core::proRaceConfig(period, seed, w->pt_filter);
    const core::RunArtifacts run =
        core::Session::run(*w->program, w->setup, cfg.session);
    const analysis::ProgramAnalysis pa(*w->program);
    const auto paths = pmu::decodePt(*w->program, w->pt_filter, run.trace);
    const auto alignments =
        alignTrace(*w->program, paths, run.trace, nullptr, &pa);

    Digest d;
    ReplayConfig rcfg;
    rcfg.analysis = &pa;
    Replayer first(*w->program, rcfg);
    digestReplay(d, first, first.replayAll(paths, alignments, run.trace),
                 true);

    std::vector<uint64_t> consumed(first.consumedAddresses().begin(),
                                   first.consumedAddresses().end());
    std::sort(consumed.begin(), consumed.end());
    for (size_t i = 0; i < consumed.size(); i += 5)
        rcfg.mem_blacklist.push_back({consumed[i] & ~7ull, 8});
    Replayer regen(*w->program, rcfg);
    digestReplay(d, regen, regen.replayAll(paths, alignments, run.trace),
                 false);

    rcfg.mode = ReplayMode::kBasicBlock;
    Replayer racez(*w->program, rcfg);
    digestReplay(d, racez, racez.replayAll(paths, alignments, run.trace),
                 false);
    return d.hex();
}

TEST(ReplayDigest, RegistrySubjectsArePinned)
{
    EXPECT_EQ(subjectDigest("mysql", 0.3, 2000, 5), "f77ece32da5ee91d");
    EXPECT_EQ(subjectDigest("apache-25520", 0.5, 800, 3),
              "7e4898f35907b6fc");
    EXPECT_EQ(subjectDigest("ptr-dispatch", 1.0, 100, 7),
              "bae5f08dd8446583");
}

} // namespace
} // namespace prorace::replay
