/**
 * @file
 * Production-deployment walkthrough on the apache-25520 scenario:
 * the production machine traces the server at near-zero overhead and
 * writes the trace to a file; an analysis machine later loads it and
 * runs the offline pipeline (the paper's §3 datacenter model).
 *
 *   $ ./examples/webserver_audit [period]
 */

#include <cstdio>
#include <cstdlib>

#include "core/pipeline.hh"
#include "trace/trace_file.hh"
#include "workload/racybugs.hh"

using namespace prorace;

int
main(int argc, char **argv)
{
    const uint64_t period = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                     : 1000;
    workload::Workload server = workload::makeRacyBug("apache-25520");
    std::printf("subject: %s — %s\n", server.name.c_str(),
                server.description.c_str());

    // --- production machine: trace and ship ---
    core::PipelineConfig config =
        core::proRaceConfig(period, /*seed=*/2026, server.pt_filter);
    config.session.run_baseline = true; // so we can report the overhead
    core::RunArtifacts online = core::Session::run(
        *server.program, server.setup, config.session);

    const char *trace_path = "/tmp/prorace_webserver.trace";
    trace::saveTrace(online.trace, trace_path);
    std::printf("online: overhead %.2f%%, %llu samples, trace %.1f KB "
                "-> %s\n",
                100.0 * online.overhead(),
                static_cast<unsigned long long>(
                    online.stats.samples_taken),
                online.trace.totalBytes() / 1024.0, trace_path);

    // --- analysis machine: load and analyze ---
    trace::RunTrace shipped = trace::loadTrace(trace_path);
    core::OfflineAnalyzer analyzer(*server.program, config.offline);
    core::OfflineResult result = analyzer.analyze(shipped);

    std::printf("offline: decode %.3fs, reconstruct %.3fs, detect "
                "%.3fs; %llu extended-trace events\n",
                result.decode_seconds, result.reconstructSeconds(),
                result.detect_seconds,
                static_cast<unsigned long long>(
                    result.extended_trace_events));
    std::printf("\n%s", result.report.format(server.program.get()).c_str());

    const bool found =
        workload::bugDetected(server.bugs[0], result.report);
    std::printf("\napache-25520 %s in this trace (try more traces or a "
                "smaller period).\n",
                found ? "DETECTED" : "not detected");
    std::remove(trace_path);
    return 0;
}
