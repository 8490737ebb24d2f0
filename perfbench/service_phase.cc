/**
 * @file
 * Streams recorded traces through a durable service::AnalysisService
 * from one generator thread: either an open loop at a fixed nominal
 * session rate, timed from each session's due time, or a flood that
 * opens sessions as fast as the service admits them.
 */

#include "service_phase.hh"

#include <algorithm>
#include <filesystem>
#include <thread>

namespace perfbench {

namespace {

double
since(Clock::time_point t0, Clock::time_point t)
{
    return std::chrono::duration<double>(t - t0).count();
}

} // namespace

std::vector<size_t>
buildSchedule(const TraceSet &set, size_t sessions)
{
    // Tenants in first-appearance order, each with its streams.
    std::vector<std::string> tenants;
    std::map<std::string, std::vector<size_t>> streams;
    for (size_t i = 0; i < set.specs.size(); ++i) {
        const std::string &t = set.specs[i].tenant;
        if (!streams.count(t))
            tenants.push_back(t);
        streams[t].push_back(i);
    }
    std::map<std::string, std::vector<size_t>> sent;
    std::vector<size_t> schedule;
    uint64_t pick = 0x2545f4914f6cdd1dull;
    for (size_t i = 0; i < sessions; ++i) {
        const std::string &tenant = tenants[i % tenants.size()];
        std::vector<size_t> &done = sent[tenant];
        const std::vector<size_t> &mine = streams[tenant];
        size_t trace = 0;
        const size_t k = done.size();
        if (k % 10 == 9 || k - (k / 10) >= mine.size()) {
            // A producer retry: re-stream one of this tenant's earlier
            // streams, at least three of its sessions back, so its
            // checkpoint has been written by the time it arrives.
            pick = pick * 6364136223846793005ull + 1442695040888963407ull;
            const size_t window = k >= 3 ? k - 2 : 1;
            trace = done[(pick >> 33) % window];
        } else {
            trace = mine[k - (k / 10)];
        }
        done.push_back(trace);
        schedule.push_back(trace);
    }
    return schedule;
}

ServicePhaseResult
runServicePhase(const TraceSet &set, const std::vector<size_t> &schedule,
                double rate, const std::string &state_dir,
                const std::vector<std::string> &reference,
                const std::vector<double> &reference_seconds,
                SpanRecorder &spans, uint64_t span_id_base)
{
    std::error_code ec;
    std::filesystem::remove_all(state_dir, ec);

    service::ServiceOptions options;
    options.num_workers = 2;
    options.session_slots = 2;
    options.offline = serviceOptions();
    options.state_dir = state_dir;
    service::AnalysisService svc(options);
    for (size_t i = 0; i < set.specs.size(); ++i)
        svc.registerProgram(set.subjects[i]->program_id,
                            set.subjects[i]->workload.program);

    struct Sent {
        size_t trace = 0;
        double due = 0, opened = 0, closed = 0;
    };
    std::map<uint64_t, Sent> sent;
    ServicePhaseResult r;
    constexpr size_t kChunk = 4096;
    constexpr auto kSliceBudget = std::chrono::milliseconds(60);

    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < schedule.size(); ++i) {
        const size_t trace = schedule[i];
        const uint64_t span_id = span_id_base + i;
        Clock::time_point due = Clock::now();
        if (rate > 0) {
            due = t0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               static_cast<double>(i) / rate));
            // One calibration slice per gap, when it surely fits.
            if (Clock::now() + kSliceBudget < due)
                r.slices.push_back(calibrationSlice());
            std::this_thread::sleep_until(due);
        }
        const Clock::time_point start = Clock::now();
        r.late_ms.push_back(1e3 * since(due, start));

        uint64_t id = 0;
        {
            ScopedSpan s(spans, "service.openSession", span_id);
            id = svc.openSession(set.specs[trace].tenant,
                                 set.subjects[trace]->program_id);
        }
        const Clock::time_point opened = Clock::now();
        r.open_wait_ms.push_back(1e3 * since(start, opened));
        ++r.attempted;
        if (id == 0) {
            ++r.failed;
            continue;
        }
        const std::vector<uint8_t> &bytes = set.bytes[trace];
        for (size_t off = 0; off < bytes.size(); off += kChunk) {
            ScopedSpan s(spans, "service.submit", span_id);
            if (!svc.submit(id, bytes.data() + off,
                            std::min(kChunk, bytes.size() - off)))
                ++r.failed;
        }
        {
            ScopedSpan s(spans, "service.closeSession", span_id);
            svc.closeSession(id);
        }
        const Clock::time_point closed = Clock::now();
        r.submit_ms.push_back(1e3 * since(opened, closed));
        sent[id] = {trace, since(t0, due), since(t0, opened),
                    since(t0, closed)};
    }
    svc.drain();

    std::vector<double> folds;
    for (const service::SessionOutcome &o : svc.outcomes()) {
        auto it = sent.find(o.session_id);
        if (it == sent.end())
            continue;
        const Sent &s = it->second;
        const Subject &subject = *set.subjects[s.trace];
        const double fold = s.opened + o.ingest_to_report_seconds;
        folds.push_back(fold);
        r.latency_ms.push_back(1e3 * (fold - s.due));
        const double close_to_report = 1e3 * (fold - s.closed);
        r.close_to_report_ms.push_back(close_to_report);
        r.queue_wait_ms.push_back(close_to_report -
                                  1e3 * reference_seconds[s.trace]);
        ++r.completed;
        const bool same =
            o.ok && o.report.format(subject.workload.program.get()) ==
                reference[s.trace];
        if (!same)
            ++r.failed;
        r.peak_live_granules = std::max(
            r.peak_live_granules, o.incremental.peak_live_granules);
    }
    // Completion rate between the 10th and the 90th percentile of the
    // report folds: the pipeline's steady state, without its fill and
    // drain. With fewer than two reports there is no rate (it stays 0).
    std::sort(folds.begin(), folds.end());
    if (folds.size() >= 2) {
        const size_t lo = folds.size() / 10, hi = folds.size() - 1 - lo;
        if (hi > lo && folds[hi] > folds[lo])
            r.rate = static_cast<double>(hi - lo) / (folds[hi] - folds[lo]);
    }

    // Sessions that never completed count as failed.
    r.failed += sent.size() - std::min<size_t>(sent.size(), r.completed);

    const service::ServiceStats st = svc.stats();
    r.peak_buffered_bytes = st.ingest.peak_buffered_bytes;
    r.journal_appends = st.journal.appended_records;
    r.journal_syncs = st.journal.syncs;
    r.checkpoints_written = st.rollup.checkpoints_written;
    r.warm_starts = st.rollup.warm_starts;
    r.exec_tasks = st.executor.executed;
    r.exec_steals = st.executor.stolen;
    r.gc_sweeps = st.rollup.incremental.gc_sweeps;
    svc.shutdown();
    std::filesystem::remove_all(state_dir, ec);
    return r;
}

} // namespace perfbench
