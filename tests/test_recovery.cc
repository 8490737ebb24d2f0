/**
 * @file
 * Tests for the crash-safety and self-healing layer: the write-ahead
 * journal's prefix-validity and torn-tail recovery, byte-identical
 * report-store reconstruction at every journal prefix, detector
 * checkpoint/restore identity with uninterrupted analysis, service
 * restart recovery and warm starts, and the supervision machinery
 * (retry, deadline, session and tenant quarantine).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "detect/incremental.hh"
#include "fault_injection.hh"
#include "oracle/generator.hh"
#include "service/fleet.hh"
#include "service/report_store.hh"
#include "service/service.hh"
#include "support/journal.hh"
#include "support/rng.hh"
#include "testutil.hh"
#include "trace/trace_file.hh"
#include "workload/registry.hh"

namespace prorace {
namespace {

using support::ByteReader;
using support::ByteWriter;
using support::Journal;
using support::JournalRecord;
using support::JournalScan;

// ---------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------

/** A per-test scratch directory, removed (recursively) on teardown. */
struct TempDir {
    explicit TempDir(const std::string &tag)
    {
        static std::atomic<uint64_t> counter{0};
        path = (std::filesystem::temp_directory_path() /
                ("prorace-" + tag + "-" +
                 std::to_string(::getpid()) + "-" +
                 std::to_string(counter++)))
                   .string();
        std::filesystem::create_directories(path);
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    std::string
    file(const std::string &name) const
    {
        return path + "/" + name;
    }

    std::string path;
};

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

detect::DataRace
makeRace(uint32_t insn_a, uint32_t insn_b, bool write_a, bool write_b,
         uint64_t addr)
{
    detect::DataRace race;
    race.addr = addr;
    race.prior.insn_index = insn_a;
    race.prior.is_write = write_a;
    race.prior.tid = 0;
    race.prior.tsc = 10;
    race.current.insn_index = insn_b;
    race.current.is_write = write_b;
    race.current.tid = 1;
    race.current.tsc = 20;
    return race;
}

detect::RaceReport
reportOf(std::initializer_list<detect::DataRace> races)
{
    detect::RaceReport report;
    for (const detect::DataRace &race : races)
        report.add(race);
    return report;
}

/** One recorded workload, reusable across service tests. */
struct Recorded {
    std::shared_ptr<const asmkit::Program> program;
    pmu::PtFilter filter;
    trace::RunTrace trace;
    std::vector<uint8_t> bytes;
};

Recorded
recordWorkload(const std::string &name, double scale, uint64_t period,
               uint64_t seed)
{
    auto w = workload::findWorkload(name, scale);
    EXPECT_TRUE(w.has_value()) << name;
    core::PipelineConfig cfg = core::proRaceConfig(period, seed,
                                                   w->pt_filter);
    cfg.session.run_baseline = false;
    core::RunArtifacts run =
        core::Session::run(*w->program, w->setup, cfg.session);
    Recorded rec;
    rec.program = w->program;
    rec.filter = w->pt_filter;
    rec.trace = std::move(run.trace);
    rec.bytes = trace::serializeTrace(rec.trace);
    return rec;
}

void
streamSession(service::AnalysisService &svc, uint64_t id,
              const std::vector<uint8_t> &bytes, size_t chunk = 997)
{
    for (size_t off = 0; off < bytes.size(); off += chunk) {
        const size_t len = std::min(chunk, bytes.size() - off);
        svc.submit(id, bytes.data() + off, len);
    }
    svc.closeSession(id);
}

// ---------------------------------------------------------------------
// Journal: append/replay, torn tails, corruption
// ---------------------------------------------------------------------

std::vector<uint8_t>
payloadOf(const std::string &s)
{
    return std::vector<uint8_t>(s.begin(), s.end());
}

TEST(Journal, AppendSyncReplayRoundTrip)
{
    TempDir dir("journal");
    const std::string path = dir.file("j.jrnl");
    const std::vector<std::pair<uint32_t, std::vector<uint8_t>>> records =
        {{1, payloadOf("alpha")},
         {2, payloadOf("")},
         {1, payloadOf(std::string(1000, 'x'))},
         {7, {0x00, 0xff, 0x4a, 0x52, 0x4e, 0x4c}}};

    {
        Journal j;
        std::string error;
        ASSERT_TRUE(j.open(path, {}, nullptr, &error)) << error;
        for (const auto &[type, payload] : records)
            ASSERT_TRUE(j.append(type, payload));
        j.close();
    }

    Journal j;
    std::string error;
    std::vector<JournalRecord> replayed;
    ASSERT_TRUE(j.open(
        path, {},
        [&](const JournalRecord &r) { replayed.push_back(r); }, &error))
        << error;
    ASSERT_EQ(replayed.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(replayed[i].type, records[i].first) << i;
        EXPECT_EQ(replayed[i].payload, records[i].second) << i;
    }
    EXPECT_EQ(j.stats().recovered_records, records.size());
    EXPECT_EQ(j.stats().truncated_bytes, 0u);
    EXPECT_EQ(j.sizeBytes(), j.stats().recovered_bytes);

    // Appending after recovery continues the record sequence.
    ASSERT_TRUE(j.append(9, payloadOf("tail")));
    j.close();
    const JournalScan scan = support::scanJournalFile(path);
    ASSERT_EQ(scan.records.size(), records.size() + 1);
    EXPECT_TRUE(scan.clean);
    EXPECT_EQ(scan.records.back().type, 9u);
}

TEST(Journal, TornTailTruncationSweep)
{
    TempDir dir("journal-torn");
    const std::string path = dir.file("j.jrnl");
    {
        Journal j;
        std::string error;
        ASSERT_TRUE(j.open(path, {}, nullptr, &error)) << error;
        for (uint32_t i = 0; i < 5; ++i)
            ASSERT_TRUE(j.append(i + 1, payloadOf(std::string(
                                             7 * i + 3, 'a' + char(i)))));
        j.close();
    }
    const std::vector<uint8_t> full = readFile(path);
    const JournalScan full_scan = support::scanJournal(full);
    ASSERT_EQ(full_scan.records.size(), 5u);
    ASSERT_EQ(full_scan.valid_prefix_bytes, full.size());

    // Every possible crash point: the valid prefix is exactly the
    // records wholly contained in the kept bytes.
    for (size_t keep = 0; keep <= full.size(); ++keep) {
        std::vector<uint8_t> torn = full;
        fault::truncateAt(torn, keep);
        const JournalScan scan = support::scanJournal(torn);
        size_t expect_records = 0;
        uint64_t expect_prefix = 0;
        for (const JournalRecord &r : full_scan.records) {
            if (r.end_offset > keep)
                break;
            ++expect_records;
            expect_prefix = r.end_offset;
        }
        EXPECT_EQ(scan.records.size(), expect_records) << keep;
        EXPECT_EQ(scan.valid_prefix_bytes, expect_prefix) << keep;
        EXPECT_EQ(scan.clean, expect_prefix == keep) << keep;
    }

    // Open() on a torn file truncates the tail and keeps appending.
    const size_t mid = full_scan.records[2].end_offset + 5;
    std::vector<uint8_t> torn = full;
    fault::truncateAt(torn, mid);
    const std::string torn_path = dir.file("torn.jrnl");
    writeFile(torn_path, torn);

    Journal j;
    std::string error;
    size_t replayed = 0;
    ASSERT_TRUE(j.open(
        torn_path, {}, [&](const JournalRecord &) { ++replayed; },
        &error))
        << error;
    EXPECT_EQ(replayed, 3u);
    EXPECT_EQ(j.stats().truncated_bytes,
              mid - full_scan.records[2].end_offset);
    ASSERT_TRUE(j.append(42, payloadOf("after-recovery")));
    j.close();
    const JournalScan healed = support::scanJournalFile(torn_path);
    ASSERT_EQ(healed.records.size(), 4u);
    EXPECT_TRUE(healed.clean);
    EXPECT_EQ(healed.records.back().type, 42u);
}

TEST(Journal, CorruptionInvalidatesRecordAndSuffix)
{
    TempDir dir("journal-corrupt");
    const std::string path = dir.file("j.jrnl");
    {
        Journal j;
        std::string error;
        ASSERT_TRUE(j.open(path, {}, nullptr, &error)) << error;
        for (uint32_t i = 0; i < 4; ++i)
            ASSERT_TRUE(j.append(i + 1, payloadOf("payload-" +
                                                  std::to_string(i))));
        j.close();
    }
    const std::vector<uint8_t> full = readFile(path);
    const JournalScan full_scan = support::scanJournal(full);
    ASSERT_EQ(full_scan.records.size(), 4u);

    // A single flipped bit anywhere in record k (header or payload)
    // kills k and everything after it — validity is prefix-shaped.
    Rng rng(testutil::testSeed(67));
    for (size_t k = 0; k < 4; ++k) {
        const JournalRecord &target = full_scan.records[k];
        std::vector<uint8_t> damaged = full;
        const size_t offset =
            target.offset + static_cast<size_t>(rng.below(
                                target.end_offset - target.offset));
        fault::flipBitAt(damaged, offset,
                         static_cast<unsigned>(rng.below(8)));
        const JournalScan scan = support::scanJournal(damaged);
        EXPECT_EQ(scan.records.size(), k) << "record " << k;
        EXPECT_FALSE(scan.clean);
        EXPECT_EQ(scan.valid_prefix_bytes, target.offset);
    }
}

// ---------------------------------------------------------------------
// Report store: journaled ingest, every-prefix recovery, JSONL escaping
// ---------------------------------------------------------------------

TEST(ReportStoreRecovery, EveryJournalPrefixReconstructsExactly)
{
    TempDir dir("store-prefix");
    const std::string path = dir.file("reports.jrnl");

    // Drive a journaled store through a mixed ingest sequence,
    // snapshotting the JSONL after every call.
    std::vector<std::string> snapshots{""}; // snapshot[k] = after k calls
    {
        Journal j;
        std::string error;
        ASSERT_TRUE(j.open(path, {}, nullptr, &error)) << error;
        service::ReportStore store;
        store.bindJournal(&j);
        const detect::RaceReport r1 =
            reportOf({makeRace(10, 20, true, true, 0x1000)});
        const detect::RaceReport r2 =
            reportOf({makeRace(10, 20, true, true, 0x2000),
                      makeRace(33, 44, false, true, 0x3000)});
        const detect::RaceReport empty;
        store.ingest("alpha", "prog-a", r1, 1);
        snapshots.push_back(store.toJsonl());
        store.ingest("beta", "prog-a", r2, 2);
        snapshots.push_back(store.toJsonl());
        store.ingest("alpha", "prog-b", r1, 3);
        snapshots.push_back(store.toJsonl());
        store.ingest("gamma", "prog-a", empty, 4);
        snapshots.push_back(store.toJsonl());
        store.ingest("beta", "prog-a", r1, 5);
        snapshots.push_back(store.toJsonl());
        j.close();
    }

    const std::vector<uint8_t> bytes = readFile(path);
    const JournalScan scan = support::scanJournal(bytes);
    ASSERT_EQ(scan.records.size(), snapshots.size() - 1);

    // Replaying the first k records reconstructs the store exactly as
    // it was after the k-th ingest — the crash-recovery contract for a
    // crash that durably captured k records.
    for (size_t k = 0; k <= scan.records.size(); ++k) {
        service::ReportStore replayed;
        for (size_t i = 0; i < k; ++i) {
            ASSERT_EQ(scan.records[i].type, service::kReportIngestRecord);
            ASSERT_TRUE(
                replayed.applyIngestRecord(scan.records[i].payload));
        }
        EXPECT_EQ(replayed.toJsonl(), snapshots[k]) << "prefix " << k;
        EXPECT_EQ(replayed.maxSequence(), k) << "prefix " << k;
    }
}

TEST(ReportStoreRecovery, MalformedIngestRecordIsRejectedUnchanged)
{
    service::ReportStore store;
    const detect::RaceReport report =
        reportOf({makeRace(1, 2, true, false, 0x40)});
    std::vector<uint8_t> good = service::ReportStore::encodeIngestRecord(
        "tenant", "prog", report, 7);
    ASSERT_TRUE(store.applyIngestRecord(good));
    const std::string before = store.toJsonl();

    std::vector<uint8_t> truncated(good.begin(), good.end() - 3);
    EXPECT_FALSE(store.applyIngestRecord(truncated));
    std::vector<uint8_t> padded = good;
    padded.push_back(0);
    EXPECT_FALSE(store.applyIngestRecord(padded));
    std::vector<uint8_t> bad_version = good;
    bad_version[0] ^= 0xff;
    EXPECT_FALSE(store.applyIngestRecord(bad_version));
    EXPECT_EQ(store.toJsonl(), before);
    EXPECT_EQ(store.maxSequence(), 7u);
}

/** Inverse of jsonEscape, for round-trip checking. */
std::string
jsonUnescape(const std::string &s)
{
    std::string out;
    for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\') {
            out += s[i];
            continue;
        }
        ++i;
        if (s[i] == 'u') {
            out += static_cast<char>(
                std::stoi(s.substr(i + 1, 4), nullptr, 16));
            i += 4;
        } else {
            out += s[i];
        }
    }
    return out;
}

TEST(ReportStoreRecovery, JsonlEscapingRoundTrips)
{
    const std::vector<std::string> nasty = {
        "plain",
        "has \"quotes\" inside",
        "back\\slash",
        "new\nline\ttab\rret",
        std::string("nul\0byte", 8),
        "\x01\x1f edge controls",
        "mix \"\\\n\" of everything",
    };
    for (const std::string &s : nasty) {
        const std::string escaped = service::jsonEscape(s);
        EXPECT_EQ(jsonUnescape(escaped), s);
        // No raw quote or control character survives: the JSONL line
        // framing cannot be broken by hostile ids.
        for (size_t i = 0; i < escaped.size(); ++i) {
            EXPECT_NE(escaped[i], '\n');
            if (escaped[i] == '"')
                EXPECT_TRUE(i > 0 && escaped[i - 1] == '\\');
        }
    }

    // End to end: a hostile program id goes through ingest + dump and
    // comes back out escaped on a single line.
    const std::string hostile = "prog\"id\nwith\\junk";
    service::ReportStore store;
    store.ingest("ten\"ant", hostile,
                 reportOf({makeRace(3, 4, true, true, 0x99)}), 1);
    const std::string jsonl = store.toJsonl();
    EXPECT_NE(jsonl.find(service::jsonEscape(hostile)),
              std::string::npos);
    // One entry, one line.
    EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 1);

    // And the journal codec carries the raw strings losslessly.
    const auto payload = service::ReportStore::encodeIngestRecord(
        "ten\"ant", hostile, reportOf({makeRace(3, 4, true, true, 0x99)}),
        1);
    service::ReportStore replayed;
    ASSERT_TRUE(replayed.applyIngestRecord(payload));
    EXPECT_EQ(replayed.toJsonl(), jsonl);
}

// ---------------------------------------------------------------------
// Detector checkpoint/restore identity (satellite: every subject)
// ---------------------------------------------------------------------

struct CapturedCheckpoint {
    uint64_t cursor = 0;
    uint64_t total = 0;
    std::vector<uint8_t> image;
};

/** The batch boundaries and report of one checkpoint-identity run. */
struct CheckpointTrail {
    std::vector<uint64_t> cursors;
    std::string report;
};

/**
 * Run streaming analysis with @p num_threads analysis workers,
 * capturing a checkpoint at every batch boundary, then re-run restored
 * from randomized checkpoints and demand the byte-identical report.
 * The boundary cursors and the report go to @p trail.
 */
void
expectCheckpointIdentity(const asmkit::Program &program,
                         const trace::RunTrace &trace,
                         const pmu::PtFilter &filter, uint64_t seed,
                         const std::string &label, unsigned num_threads,
                         CheckpointTrail *trail = nullptr)
{
    core::OfflineOptions streaming;
    streaming.pt_filter = filter;
    streaming.num_threads = num_threads;
    streaming.incremental.enabled = true;
    streaming.incremental.batch_events = 256; // many boundaries
    streaming.incremental.gc_min_events = 64;

    std::vector<CapturedCheckpoint> checkpoints;
    core::OfflineOptions capture = streaming;
    capture.checkpoint.on_boundary =
        [&](uint64_t cursor, uint64_t total,
            detect::IncrementalFastTrack &detector) {
            ByteWriter w;
            detector.serializeState(w);
            checkpoints.push_back({cursor, total, w.take()});
        };
    core::OfflineAnalyzer base_analyzer(program, capture);
    const core::OfflineResult base = base_analyzer.analyze(trace);
    const std::string expected = base.report.format(&program);
    ASSERT_FALSE(checkpoints.empty()) << label;
    if (trail) {
        trail->report = expected;
        for (const CapturedCheckpoint &ckpt : checkpoints)
            trail->cursors.push_back(ckpt.cursor);
    }

    // Randomized restore positions: the first boundary, the end-of-feed
    // checkpoint, and a seeded-random interior one.
    Rng rng(seed);
    std::vector<size_t> picks = {0, checkpoints.size() - 1};
    if (checkpoints.size() > 2)
        picks.push_back(1 +
                        static_cast<size_t>(
                            rng.below(checkpoints.size() - 2)));
    for (const size_t pick : picks) {
        const CapturedCheckpoint &ckpt = checkpoints[pick];
        core::OfflineOptions resume = streaming;
        bool resumed = false;
        resume.checkpoint.restore = &ckpt.image;
        resume.checkpoint.resume_events = ckpt.cursor;
        resume.checkpoint.resume_feed_total = ckpt.total;
        resume.checkpoint.resumed = &resumed;
        core::OfflineAnalyzer analyzer(program, resume);
        const core::OfflineResult restored = analyzer.analyze(trace);
        EXPECT_TRUE(resumed)
            << label << ": checkpoint " << pick << " not applied";
        EXPECT_EQ(restored.report.format(&program), expected)
            << label << ": restore at feed cursor " << ckpt.cursor
            << "/" << ckpt.total << " diverged from uninterrupted run";
    }

    // An identity mismatch (wrong feed size) must cold-start, not
    // corrupt: resumed stays false and the report is still identical.
    const CapturedCheckpoint &last = checkpoints.back();
    core::OfflineOptions mismatch = streaming;
    bool resumed = false;
    mismatch.checkpoint.restore = &last.image;
    mismatch.checkpoint.resume_events = last.cursor;
    mismatch.checkpoint.resume_feed_total = last.total + 1;
    mismatch.checkpoint.resumed = &resumed;
    core::OfflineAnalyzer analyzer(program, mismatch);
    const core::OfflineResult cold = analyzer.analyze(trace);
    EXPECT_FALSE(resumed) << label;
    EXPECT_EQ(cold.report.format(&program), expected) << label;

    // A corrupt image likewise degrades to a cold start.
    if (!last.image.empty()) {
        std::vector<uint8_t> damaged = last.image;
        damaged.resize(damaged.size() / 2);
        core::OfflineOptions corrupt = streaming;
        bool resumed_corrupt = false;
        corrupt.checkpoint.restore = &damaged;
        corrupt.checkpoint.resume_events = last.cursor;
        corrupt.checkpoint.resume_feed_total = last.total;
        corrupt.checkpoint.resumed = &resumed_corrupt;
        core::OfflineAnalyzer c(program, corrupt);
        const core::OfflineResult cold2 = c.analyze(trace);
        EXPECT_FALSE(resumed_corrupt) << label;
        EXPECT_EQ(cold2.report.format(&program), expected) << label;
    }
}

/**
 * expectCheckpointIdentity with no executor and with two workers: the
 * boundaries must fire at the same cursors and the reports must match.
 */
void
expectCheckpointIdentityInlineAndPooled(const asmkit::Program &program,
                                        const trace::RunTrace &trace,
                                        const pmu::PtFilter &filter,
                                        uint64_t seed,
                                        const std::string &label)
{
    CheckpointTrail inline_trail, pooled_trail;
    expectCheckpointIdentity(program, trace, filter, seed, label, 0,
                             &inline_trail);
    expectCheckpointIdentity(program, trace, filter, seed,
                             label + " (2 threads)", 2, &pooled_trail);
    EXPECT_EQ(inline_trail.cursors, pooled_trail.cursors) << label;
    EXPECT_EQ(inline_trail.report, pooled_trail.report) << label;
}

TEST(CheckpointRestore, EveryRegistrySubject)
{
    const uint64_t seed = testutil::testSeed(71);
    PRORACE_SEED_TRACE(seed);
    for (const std::string &name : workload::allWorkloadNames()) {
        auto w = workload::findWorkload(name, 0.1);
        ASSERT_TRUE(w.has_value()) << name;
        core::PipelineConfig cfg =
            core::proRaceConfig(8, seed, w->pt_filter);
        cfg.session.run_baseline = false;
        core::RunArtifacts run =
            core::Session::run(*w->program, w->setup, cfg.session);
        expectCheckpointIdentityInlineAndPooled(
            *w->program, run.trace, w->pt_filter, seed + 1, name);
    }
}

TEST(CheckpointRestore, OracleBattery)
{
    const uint64_t seed = testutil::testSeed(73);
    PRORACE_SEED_TRACE(seed);
    for (const oracle::GeneratorConfig &cfg :
         oracle::standardBattery(seed, 3)) {
        const oracle::GeneratedWorkload gw = oracle::generate(cfg);
        core::PipelineConfig pc =
            core::proRaceConfig(6, seed + 7, gw.workload.pt_filter);
        pc.session.run_baseline = false;
        core::RunArtifacts run = core::Session::run(
            *gw.workload.program, gw.workload.setup, pc.session);
        expectCheckpointIdentityInlineAndPooled(
            *gw.workload.program, run.trace, gw.workload.pt_filter,
            seed + 13, gw.workload.name);
    }
}

TEST(CheckpointRestore, ThrowingTickAbortsPooledAnalysis)
{
    // The deadline hook is honoured with analysis workers too: the
    // first tick that throws ends the analysis.
    const uint64_t seed = testutil::testSeed(79);
    PRORACE_SEED_TRACE(seed);
    auto w = workload::findWorkload("aget-bug2", 0.2);
    ASSERT_TRUE(w.has_value());
    core::PipelineConfig cfg = core::proRaceConfig(8, seed, w->pt_filter);
    cfg.session.run_baseline = false;
    cfg.offline.num_threads = 2;
    cfg.offline.incremental.enabled = true;
    cfg.offline.incremental.batch_events = 64;
    unsigned ticks = 0;
    cfg.offline.checkpoint.tick = [&] {
        ++ticks;
        throw std::runtime_error("deadline");
    };
    EXPECT_THROW(core::runPipeline(*w->program, w->setup, cfg),
                 std::runtime_error);
    EXPECT_EQ(ticks, 1u);
}

TEST(CheckpointRestore, SyncVocabularyOracles)
{
    // The new sync families exercise rwlock read-clocks, semaphore
    // post queues, spinlock clocks, and atomic release chains; each
    // must survive checkpoint/restore at randomized boundaries with a
    // byte-identical report — racy and clean variants both.
    const uint64_t seed = testutil::testSeed(107);
    PRORACE_SEED_TRACE(seed);
    oracle::GeneratorConfig racy;
    racy.seed = seed;
    racy.threads = 4;
    racy.items = 40;
    racy.racy_sites = 0;
    racy.rw_racy_sites = 1;
    racy.sem_racy_sites = 1;
    racy.spin_racy_sites = 1;
    racy.relaxed_racy_sites = 1;
    oracle::GeneratorConfig clean = racy;
    clean.seed = seed + 1;
    clean.rw_racy_sites = clean.sem_racy_sites = 0;
    clean.spin_racy_sites = clean.relaxed_racy_sites = 0;
    clean.rw_locked_sites = 1;
    clean.sem_signal_sites = 1;
    clean.spin_locked_sites = 1;
    clean.relacq_sites = 1;
    for (const oracle::GeneratorConfig &cfg : {racy, clean}) {
        const oracle::GeneratedWorkload gw = oracle::generate(cfg);
        core::PipelineConfig pc =
            core::proRaceConfig(6, seed + 3, gw.workload.pt_filter);
        pc.session.run_baseline = false;
        core::RunArtifacts run = core::Session::run(
            *gw.workload.program, gw.workload.setup, pc.session);
        expectCheckpointIdentity(*gw.workload.program, run.trace,
                                 gw.workload.pt_filter, seed + 17,
                                 gw.workload.name, 0);
    }
}

TEST(CheckpointRestore, RwSharedAndSemStateSurviveGcBoundary)
{
    // Checkpoint taken at a GC-enabled batch boundary while a granule
    // is rwlock read-shared and a semaphore has undelivered posts; the
    // restored detector must agree with the original on any seeded
    // continuation — same races AND byte-identical final state.
    detect::IncrementalOptions options;
    options.enabled = true;
    options.enable_gc = true;
    options.gc_min_events = 0; // sweep at every boundary
    for (uint64_t seed : testutil::testSeeds({401ull, 409ull, 419ull})) {
        PRORACE_SEED_TRACE(seed);
        detect::IncrementalFastTrack a(options);
        for (uint32_t t = 0; t < 4; ++t)
            a.requireThread(t);
        for (uint32_t t = 1; t < 4; ++t)
            a.fork(0, t);
        // Live read-shared state: three rwlock readers, no writer yet.
        for (uint32_t t = 1; t < 4; ++t) {
            a.readLock(t, 0xa000);
            detect::MemAccess ma;
            ma.tid = t;
            ma.addr = 0x1000;
            ma.is_write = false;
            ma.insn_index = t;
            ma.tsc = 10 + t;
            a.access(ma);
            a.readUnlock(t, 0xa000);
        }
        // Live semaphore state: two posts queued, none consumed.
        a.semInit(0, 0xb000, 0);
        a.semPost(1, 0xb000);
        a.semPost(2, 0xb000);
        a.batchBoundary(100); // GC sweeps here with both structures live

        ByteWriter w;
        a.serializeState(w);
        detect::IncrementalFastTrack b(options);
        ByteReader r(w.bytes());
        ASSERT_TRUE(b.restoreState(r)) << "seed " << seed;

        // Identical seeded continuation over both detectors, mixing
        // the new primitives with plain accesses.
        Rng rng(seed);
        for (uint64_t i = 0; i < 600; ++i) {
            const uint32_t tid = static_cast<uint32_t>(rng.below(4));
            const uint64_t op = rng.below(10);
            const uint64_t obj = 0xa000 + 0x100 * rng.below(2);
            const uint64_t addr = 0x1000 + 8 * rng.below(4);
            const uint32_t insn =
                8 + static_cast<uint32_t>(rng.below(48));
            const bool is_write = rng.below(2) == 0;
            for (detect::IncrementalFastTrack *ft : {&a, &b}) {
                switch (op) {
                  case 0: ft->readLock(tid, obj); break;
                  case 1: ft->readUnlock(tid, obj); break;
                  case 2: ft->writeLock(tid, obj); break;
                  case 3: ft->writeUnlock(tid, obj); break;
                  case 4: ft->semWait(tid, 0xb000); break;
                  case 5: ft->semPost(tid, 0xb000); break;
                  case 6: ft->acquireRelease(tid, 0xc000); break;
                  default: {
                      detect::MemAccess ma;
                      ma.tid = tid;
                      ma.addr = addr;
                      ma.is_write = is_write;
                      ma.insn_index = insn;
                      ma.tsc = 200 + i;
                      ft->access(ma);
                      break;
                  }
                }
            }
            if (i % 128 == 127) {
                a.batchBoundary(200 + i);
                b.batchBoundary(200 + i);
            }
        }
        a.finish();
        b.finish();
        EXPECT_EQ(a.report().format(nullptr), b.report().format(nullptr))
            << "seed " << seed;
        ByteWriter wa, wb;
        a.serializeState(wa);
        b.serializeState(wb);
        EXPECT_EQ(wa.bytes(), wb.bytes()) << "seed " << seed;
    }
}

TEST(CheckpointRestore, SerializedStateRoundTripsByteIdentically)
{
    detect::IncrementalOptions options;
    options.enabled = true;
    options.gc_min_events = 0;
    detect::IncrementalFastTrack a(options);
    a.requireThread(0);
    a.requireThread(1);
    a.fork(0, 1);
    detect::MemAccess ma;
    ma.tid = 1;
    ma.addr = 0x2000;
    ma.is_write = true;
    ma.insn_index = 2;
    ma.tsc = 11;
    a.access(ma);
    a.release(1, 0x9000);
    a.acquire(0, 0x9000);
    a.batchBoundary(50);

    ByteWriter w1;
    a.serializeState(w1);

    detect::IncrementalFastTrack b(options);
    ByteReader r(w1.bytes());
    ASSERT_TRUE(b.restoreState(r));
    ByteWriter w2;
    b.serializeState(w2);
    EXPECT_EQ(w1.bytes(), w2.bytes());

    // Garbage never restores — and leaves the detector untouched.
    std::vector<uint8_t> garbage = fault::poisonStream(64, 5);
    ByteReader bad(garbage);
    EXPECT_FALSE(b.restoreState(bad));
    ByteWriter w3;
    b.serializeState(w3);
    EXPECT_EQ(w1.bytes(), w3.bytes());

    // Both detectors see the same continuation and report identically.
    for (detect::IncrementalFastTrack *ft : {&a, &b}) {
        detect::MemAccess racy;
        racy.tid = 0;
        racy.addr = 0x3000;
        racy.is_write = true;
        racy.insn_index = 5;
        racy.tsc = 60;
        ft->access(racy);
        racy.tid = 1;
        racy.insn_index = 6;
        racy.tsc = 61;
        ft->access(racy);
        ft->finish();
    }
    EXPECT_EQ(a.report().format(nullptr), b.report().format(nullptr));
}

// ---------------------------------------------------------------------
// Stream identity (checkpoint matching key)
// ---------------------------------------------------------------------

TEST(StreamIdentity, IndependentOfChunking)
{
    const uint64_t seed = testutil::testSeed(79);
    const std::vector<uint8_t> bytes = fault::poisonStream(10000, seed);

    trace::TraceReader whole("whole");
    whole.feed(bytes);
    trace::TraceReader chunked("chunked");
    Rng rng(seed + 1);
    for (size_t off = 0; off < bytes.size();) {
        const size_t len = std::min<size_t>(
            1 + static_cast<size_t>(rng.below(777)), bytes.size() - off);
        chunked.feed(bytes.data() + off, len);
        off += len;
    }
    EXPECT_EQ(whole.streamBytes(), bytes.size());
    EXPECT_EQ(whole.streamBytes(), chunked.streamBytes());
    EXPECT_EQ(whole.streamCrc(), chunked.streamCrc());

    // One flipped bit changes the identity.
    std::vector<uint8_t> other = bytes;
    fault::flipBitAt(other, bytes.size() / 2, 3);
    trace::TraceReader different("different");
    different.feed(other);
    EXPECT_NE(whole.streamCrc(), different.streamCrc());
}

// ---------------------------------------------------------------------
// Service: restart recovery, warm starts, supervision, quarantine
// ---------------------------------------------------------------------

service::ServiceOptions
durableOptions(const std::string &state_dir, const pmu::PtFilter &filter)
{
    service::ServiceOptions options;
    options.num_workers = 2;
    options.offline.pt_filter = filter;
    options.offline.incremental.batch_events = 256;
    options.offline.incremental.gc_min_events = 64;
    options.state_dir = state_dir;
    options.supervision.backoff_initial_seconds = 0.001;
    return options;
}

TEST(ServiceRecovery, RestartRecoversStoreAndWarmStartsResubmission)
{
    const uint64_t seed = testutil::testSeed(83);
    PRORACE_SEED_TRACE(seed);
    TempDir dir("svc-recovery");
    const Recorded rec = recordWorkload("aget-bug2", 0.3, 8, seed);

    std::string jsonl_before;
    std::string expected_report;
    uint64_t sequence_before = 0;
    {
        service::AnalysisService svc(
            durableOptions(dir.path, rec.filter));
        svc.registerProgram("aget-bug2", rec.program);
        const uint64_t id = svc.openSession("tenant-a", "aget-bug2");
        ASSERT_NE(id, 0u);
        streamSession(svc, id, rec.bytes);
        svc.drain();

        const auto outcomes = svc.outcomes();
        ASSERT_EQ(outcomes.size(), 1u);
        EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
        EXPECT_FALSE(outcomes[0].warm_started); // nothing to resume yet
        EXPECT_GT(outcomes[0].checkpoints_written, 0u);
        expected_report = outcomes[0].report.format(rec.program.get());
        sequence_before = outcomes[0].sequence;

        const service::ServiceStats stats = svc.stats();
        EXPECT_TRUE(stats.durable);
        EXPECT_EQ(stats.recovered_reports, 0u);
        EXPECT_GT(stats.journal.appended_records, 0u);
        EXPECT_GT(stats.distinct_races, 0u);
        jsonl_before = svc.store().toJsonl();
        svc.shutdown();
    }
    ASSERT_FALSE(jsonl_before.empty());

    // Restart on the same state dir: the store comes back
    // byte-identically and sequence numbering continues above the
    // recovered maximum.
    service::AnalysisService svc(durableOptions(dir.path, rec.filter));
    svc.registerProgram("aget-bug2", rec.program);
    const service::ServiceStats boot = svc.stats();
    EXPECT_TRUE(boot.durable);
    EXPECT_EQ(boot.recovered_reports, 1u);
    EXPECT_EQ(svc.store().toJsonl(), jsonl_before);
    EXPECT_EQ(svc.store().maxSequence(), sequence_before);

    // The same tenant re-streams the same bytes: the analysis
    // warm-starts from the checkpoint the first process wrote, and the
    // report is still byte-identical.
    const uint64_t id = svc.openSession("tenant-a", "aget-bug2");
    ASSERT_NE(id, 0u);
    streamSession(svc, id, rec.bytes);
    svc.drain();
    const auto outcomes = svc.outcomes();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_TRUE(outcomes[0].warm_started);
    EXPECT_GT(outcomes[0].sequence, sequence_before);
    EXPECT_EQ(outcomes[0].report.format(rec.program.get()),
              expected_report);
    EXPECT_EQ(svc.tenantStats().at("tenant-a").warm_starts, 1u);

    // Both observations of every race are now in the recovered store.
    for (const service::StoredRace &row : svc.store().query())
        EXPECT_EQ(row.observations, 2u);
    svc.shutdown();
}

TEST(ServiceRecovery, TornJournalTailRecoversValidPrefix)
{
    TempDir dir("svc-torn");
    const std::string path = dir.file("reports.jrnl");

    // Forge a journal: two good records, then a torn third.
    std::vector<std::string> snapshots;
    {
        Journal j;
        std::string error;
        ASSERT_TRUE(j.open(path, {}, nullptr, &error)) << error;
        service::ReportStore store;
        store.bindJournal(&j);
        store.ingest("a", "p", reportOf({makeRace(1, 2, true, true, 8)}),
                     1);
        snapshots.push_back(store.toJsonl());
        store.ingest("b", "p", reportOf({makeRace(3, 4, true, true, 8)}),
                     2);
        snapshots.push_back(store.toJsonl());
        store.ingest("c", "p", reportOf({makeRace(5, 6, true, true, 8)}),
                     3);
        j.close();
    }
    std::vector<uint8_t> bytes = readFile(path);
    const JournalScan scan = support::scanJournal(bytes);
    ASSERT_EQ(scan.records.size(), 3u);
    fault::truncateAt(bytes,
                      static_cast<size_t>(scan.records[2].end_offset) - 4);
    writeFile(path, bytes);

    // A service booting on this state dir recovers exactly the two
    // whole records; the torn third is truncated away, not replayed.
    service::ServiceOptions options;
    options.state_dir = dir.path;
    service::AnalysisService svc(options);
    const service::ServiceStats stats = svc.stats();
    EXPECT_TRUE(stats.durable);
    EXPECT_EQ(stats.recovered_reports, 2u);
    EXPECT_GT(stats.journal.truncated_bytes, 0u);
    EXPECT_EQ(svc.store().toJsonl(), snapshots[1]);
    EXPECT_EQ(svc.store().maxSequence(), 2u);
    svc.shutdown();
}

TEST(Supervision, TransientFaultIsRetriedToSuccess)
{
    const uint64_t seed = testutil::testSeed(89);
    PRORACE_SEED_TRACE(seed);
    const Recorded rec = recordWorkload("aget-bug2", 0.2, 8, seed);

    service::ServiceOptions options;
    options.offline.pt_filter = rec.filter;
    options.supervision.backoff_initial_seconds = 0.001;
    std::atomic<unsigned> injections{0};
    options.analysis_fault_injector = [&](const std::string &, uint64_t,
                                          unsigned attempt) {
        if (attempt == 0) {
            ++injections;
            throw std::runtime_error("injected transient fault");
        }
    };
    service::AnalysisService svc(options);
    svc.registerProgram("aget-bug2", rec.program);
    const uint64_t id = svc.openSession("flaky", "aget-bug2");
    ASSERT_NE(id, 0u);
    streamSession(svc, id, rec.bytes);
    svc.drain();

    const auto outcomes = svc.outcomes();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_EQ(outcomes[0].attempts, 2u);
    EXPECT_FALSE(outcomes[0].quarantined);
    EXPECT_EQ(injections, 1u);
    const auto ts = svc.tenantStats().at("flaky");
    EXPECT_EQ(ts.analysis_retries, 1u);
    EXPECT_EQ(ts.sessions_completed, 1u);
    EXPECT_EQ(ts.sessions_quarantined, 0u);
    svc.shutdown();
}

TEST(Supervision, PersistentFaultQuarantinesSessionThenTenant)
{
    const uint64_t seed = testutil::testSeed(97);
    PRORACE_SEED_TRACE(seed);
    const Recorded rec = recordWorkload("aget-bug2", 0.2, 8, seed);

    service::ServiceOptions options;
    options.offline.pt_filter = rec.filter;
    options.supervision.max_retries = 1;
    options.supervision.backoff_initial_seconds = 0.001;
    options.supervision.tenant_quarantine_strikes = 1;
    options.analysis_fault_injector = [](const std::string &tenant,
                                         uint64_t, unsigned) {
        if (tenant == "poisoned")
            throw std::runtime_error("injected persistent fault");
    };
    service::AnalysisService svc(options);
    svc.registerProgram("aget-bug2", rec.program);

    const uint64_t bad = svc.openSession("poisoned", "aget-bug2");
    ASSERT_NE(bad, 0u);
    streamSession(svc, bad, rec.bytes);
    const uint64_t good = svc.openSession("healthy", "aget-bug2");
    ASSERT_NE(good, 0u);
    streamSession(svc, good, rec.bytes);
    svc.drain();

    // The poisoned session exhausted its retries and was quarantined;
    // one strike quarantines the tenant.
    const auto outcomes = svc.outcomes();
    ASSERT_EQ(outcomes.size(), 2u);
    for (const service::SessionOutcome &o : outcomes) {
        if (o.tenant == "poisoned") {
            EXPECT_FALSE(o.ok);
            EXPECT_TRUE(o.quarantined);
            EXPECT_EQ(o.attempts, 2u); // first try + max_retries
            EXPECT_NE(o.error.find("quarantined"), std::string::npos);
        } else {
            EXPECT_TRUE(o.ok) << o.error;
        }
    }
    EXPECT_TRUE(svc.tenantQuarantined("poisoned"));
    EXPECT_FALSE(svc.tenantQuarantined("healthy"));
    const auto tenants = svc.tenantStats();
    EXPECT_EQ(tenants.at("poisoned").sessions_quarantined, 1u);
    EXPECT_TRUE(tenants.at("poisoned").quarantined);
    EXPECT_EQ(tenants.at("healthy").sessions_completed, 1u);

    // Further opens from the quarantined tenant are rejected; the
    // healthy tenant keeps flowing.
    EXPECT_EQ(svc.openSession("poisoned", "aget-bug2"), 0u);
    EXPECT_NE(svc.openSession("healthy", "aget-bug2"), 0u);
    const service::ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.tenants_quarantined, 1u);
    EXPECT_GE(stats.quarantine_rejected_opens, 1u);
    svc.shutdown();
}

TEST(Supervision, DeadlineTimeoutCountsAndQuarantines)
{
    const uint64_t seed = testutil::testSeed(101);
    PRORACE_SEED_TRACE(seed);
    const Recorded rec = recordWorkload("aget-bug2", 0.2, 8, seed);

    service::ServiceOptions options;
    options.offline.pt_filter = rec.filter;
    options.offline.incremental.batch_events = 64; // many tick points
    options.supervision.session_deadline_seconds = 1e-9; // always over
    options.supervision.max_retries = 1;
    options.supervision.backoff_initial_seconds = 0.001;
    service::AnalysisService svc(options);
    svc.registerProgram("aget-bug2", rec.program);
    const uint64_t id = svc.openSession("slow", "aget-bug2");
    ASSERT_NE(id, 0u);
    streamSession(svc, id, rec.bytes);
    svc.drain();

    const auto outcomes = svc.outcomes();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_TRUE(outcomes[0].quarantined);
    EXPECT_EQ(outcomes[0].deadline_timeouts, 2u); // both attempts
    EXPECT_EQ(svc.tenantStats().at("slow").deadline_timeouts, 2u);
    svc.shutdown();
}

TEST(Supervision, HardTraceErrorFailsFastWithoutRetry)
{
    service::ServiceOptions options;
    options.supervision.backoff_initial_seconds = 0.001;
    std::atomic<unsigned> injections{0};
    options.analysis_fault_injector =
        [&](const std::string &, uint64_t, unsigned) { ++injections; };
    service::AnalysisService svc(options);
    auto rec = recordWorkload("aget-bug2", 0.1, 16, testutil::testSeed(3));
    svc.registerProgram("aget-bug2", rec.program);

    const uint64_t id = svc.openSession("garbage", "aget-bug2");
    ASSERT_NE(id, 0u);
    streamSession(svc, id, fault::poisonStream(1 << 14, 11));
    svc.drain();

    const auto outcomes = svc.outcomes();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_FALSE(outcomes[0].quarantined); // deterministic: no strikes
    EXPECT_EQ(outcomes[0].attempts, 1u);
    EXPECT_EQ(injections, 0u); // analysis never started
    const auto ts = svc.tenantStats().at("garbage");
    EXPECT_EQ(ts.sessions_failed, 1u);
    EXPECT_EQ(ts.sessions_quarantined, 0u);
    EXPECT_EQ(ts.analysis_retries, 0u);
    svc.shutdown();
}

TEST(Supervision, OutOfRangeRecordTidDropsOnlyItsSegment)
{
    // A record tid the FastTrack epochs cannot pack — a PEBS sample's,
    // or the child tid of a spawn — drops its segment at decode, like an
    // out-of-range kind byte: analysis completes instead of aborting,
    // and the service neither retries nor quarantines the session.
    const uint64_t seed = testutil::testSeed(103);
    PRORACE_SEED_TRACE(seed);
    Recorded rec = recordWorkload("aget-bug2", 0.1, 16, seed);
    ASSERT_FALSE(rec.trace.pebs.empty());
    ASSERT_FALSE(rec.trace.sync.empty());
    trace::PebsRecord bad_sample = rec.trace.pebs.back();
    bad_sample.tid = 2000;
    rec.trace.pebs.push_back(bad_sample);
    trace::SyncRecord bad_spawn = rec.trace.sync.back();
    bad_spawn.kind = vm::SyncKind::kSpawn;
    bad_spawn.aux = 2000;
    rec.trace.sync.push_back(bad_spawn);
    rec.bytes = trace::serializeTrace(rec.trace);

    auto loaded = trace::readTrace(rec.bytes);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().loss.segments_dropped, 2u);
    EXPECT_GT(loaded.value().loss.pebs_dropped, 0u);
    EXPECT_GT(loaded.value().loss.sync_dropped, 0u);

    const core::OfflineOptions offline =
        core::proRaceConfig(16, seed, rec.filter).offline;
    core::OfflineAnalyzer analyzer(*rec.program, offline);
    const core::OfflineResult result = analyzer.analyze(loaded.value());
    EXPECT_EQ(result.ingest_loss.segments_dropped, 2u);

    service::ServiceOptions options;
    options.offline.pt_filter = rec.filter;
    service::AnalysisService svc(options);
    svc.registerProgram("aget-bug2", rec.program);
    const uint64_t id = svc.openSession("wide-tid", "aget-bug2");
    ASSERT_NE(id, 0u);
    streamSession(svc, id, rec.bytes);
    svc.drain();

    const auto outcomes = svc.outcomes();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_EQ(outcomes[0].attempts, 1u);
    EXPECT_FALSE(outcomes[0].quarantined);
    EXPECT_EQ(outcomes[0].loss.segments_dropped, 2u);
    svc.shutdown();
}

TEST(FleetSimulator, PoisonTenantsDegradeIntoStatistics)
{
    service::FleetConfig cfg;
    cfg.producers = 2;
    cfg.sessions_per_producer = 2;
    cfg.subjects = {"aget-bug2"};
    cfg.scale = 0.3;
    cfg.period = 8;
    cfg.seed = testutil::testSeed(53); // the smoke-test seed: samples
                                       // the aget race at this scale
    cfg.poison_producers = 1;
    cfg.service.num_workers = 2;
    cfg.service.supervision.backoff_initial_seconds = 0.001;
    const service::FleetResult result = service::runFleet(cfg);

    // The healthy fleet is untouched by the poison tenant...
    EXPECT_EQ(result.sessions_opened, 4u);
    EXPECT_EQ(result.poison_sessions, 2u);
    EXPECT_GT(result.stats.distinct_races, 0u);
    uint64_t healthy_completed = 0, poison_failed = 0;
    for (const auto &[name, ts] : result.tenants) {
        if (name.rfind("poison-", 0) == 0) {
            EXPECT_EQ(ts.sessions_completed, 0u) << name;
            poison_failed += ts.sessions_failed;
        } else {
            EXPECT_EQ(ts.sessions_failed, 0u) << name;
            healthy_completed += ts.sessions_completed;
        }
    }
    EXPECT_EQ(healthy_completed, 4u);
    // ... and every poison session failed without taking the run down.
    EXPECT_EQ(poison_failed, result.poison_sessions);
    EXPECT_EQ(result.stats.rollup.sessions_completed, 4u);
}

} // namespace
} // namespace prorace
