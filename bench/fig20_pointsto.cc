/**
 * @file
 * Figure 20 (beyond the paper): what the Andersen points-to layer adds
 * to the offline phase — replay constant recovery — with report
 * identity asserted everywhere.
 *
 * For each subject the online phase runs once; the same trace is then
 * analyzed twice per trial, points-to on (`OfflineOptions::pointsto`)
 * and off (the `--no-pointsto` CLI path). Self-asserted CI floors
 * (exit 1 on violation, so the Release perf job gates on it):
 *   - the racy-pair set is byte-identical with points-to on and off on
 *     every subject, every workload of the full registry (small scale),
 *     and the full oracle battery including the sync-vocabulary half;
 *   - points-to off recovers no constant loads.
 *
 * `--json <path>` writes per-trial JSONL rows; `--jobs N` sets the
 * analysis thread count (default 2).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/offline.hh"
#include "core/pipeline.hh"
#include "oracle/generator.hh"
#include "oracle/scorer.hh"
#include "workload/registry.hh"

namespace {

using namespace prorace;

const char *const kSubjects[] = {"ptr-dispatch", "mpmc-queue",
                                 "event-loop", "pfscan"};
constexpr uint64_t kPeriod = 100;
constexpr uint64_t kSeed = 31;

struct OnOff {
    core::OfflineResult on;
    core::OfflineResult off;
};

OnOff
analyzeBoth(const asmkit::Program &program, const core::RunArtifacts &run,
            const core::OfflineOptions &base, unsigned jobs)
{
    core::OfflineOptions on = base;
    on.num_threads = jobs;
    on.static_prefilter = true;
    on.pointsto = true;
    core::OfflineOptions off = on;
    off.pointsto = false;

    OnOff r;
    core::OfflineAnalyzer a_on(program, on);
    r.on = a_on.analyze(run.trace);
    core::OfflineAnalyzer a_off(program, off);
    r.off = a_off.analyze(run.trace);
    return r;
}

bool
assertIdentical(const char *name, const OnOff &r)
{
    if (oracle::reportPairs(r.on.report) ==
        oracle::reportPairs(r.off.report)) {
        return true;
    }
    std::fprintf(stderr,
                 "FAIL: %s reports differ with points-to on (%zu races) "
                 "vs off (%zu)\n",
                 name, r.on.report.size(), r.off.report.size());
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReporter json(argc, argv);
    unsigned jobs = 2;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0)
            jobs = static_cast<unsigned>(
                std::strtoul(argv[i + 1], nullptr, 10));
    }
    const int trials = bench::envTrials(3);
    const double scale = 0.05 * bench::envScale();

    bench::banner("Figure 20",
                  "Andersen points-to layer: constant recovery — "
                  "report identity asserted.");
    std::printf("jobs = %u, trials = %d, period = %llu\n\n", jobs, trials,
                static_cast<unsigned long long>(kPeriod));
    std::printf("%-14s %9s %9s %7s\n", "workload", "events", "pruned",
                "const");

    bool ok = true;

    for (const char *name : kSubjects) {
        auto w = workload::findWorkload(name, scale);
        if (!w) {
            std::fprintf(stderr, "FAIL: unknown workload %s\n", name);
            ok = false;
            continue;
        }
        core::PipelineConfig pc =
            core::proRaceConfig(kPeriod, kSeed, w->pt_filter);
        core::RunArtifacts run =
            core::Session::run(*w->program, w->setup, pc.session);

        uint64_t events = 0, pruned = 0, recovered_const = 0;
        for (int trial = 0; trial < trials; ++trial) {
            const OnOff r =
                analyzeBoth(*w->program, run, pc.offline, jobs);
            ok &= assertIdentical(name, r);
            events = r.on.prefilter.events_seen;
            pruned = r.on.prefilter.pruned();
            recovered_const = r.on.replay_stats.recovered_constant;
            if (r.off.replay_stats.recovered_constant != 0) {
                std::fprintf(stderr,
                             "FAIL: %s recovered constant accesses with "
                             "points-to off\n",
                             name);
                ok = false;
            }
            json.record(
                "fig20_pointsto",
                {{"workload", name},
                 {"jobs", std::to_string(jobs)},
                 {"trial", std::to_string(trial)}},
                {{"events", static_cast<double>(events)},
                 {"pruned", static_cast<double>(pruned)},
                 {"recovered_constant",
                  static_cast<double>(recovered_const)},
                 {"pointsto_objects",
                  static_cast<double>(r.on.prefilter.pointsto_objects)},
                 {"pointsto_constraints",
                  static_cast<double>(
                      r.on.prefilter.pointsto_constraints)},
                 {"pointsto_iterations",
                  static_cast<double>(
                      r.on.prefilter.pointsto_iterations)},
                 {"detect_on_s", r.on.detect_seconds},
                 {"detect_off_s", r.off.detect_seconds}});
        }

        std::printf("%-14s %9llu %9llu %7llu\n", name,
                    static_cast<unsigned long long>(events),
                    static_cast<unsigned long long>(pruned),
                    static_cast<unsigned long long>(recovered_const));
    }

    // --- oracle batteries: identity must hold under planted races and
    // the full sync vocabulary ---
    std::printf("\noracle batteries (report identity, points-to on/off):\n");
    auto batteries = oracle::standardBattery(1078, 5);
    const auto sync_battery = oracle::syncBattery(1079, 5);
    batteries.insert(batteries.end(), sync_battery.begin(),
                     sync_battery.end());
    for (const oracle::GeneratorConfig &cfg : batteries) {
        const oracle::GeneratedWorkload gw = oracle::generate(cfg);
        core::PipelineConfig pc = core::proRaceConfig(
            kPeriod, kSeed + 13, gw.workload.pt_filter);
        core::RunArtifacts run = core::Session::run(
            *gw.workload.program, gw.workload.setup, pc.session);
        const OnOff r =
            analyzeBoth(*gw.workload.program, run, pc.offline, jobs);
        const bool identical =
            assertIdentical(gw.workload.name.c_str(), r);
        ok &= identical;
        const oracle::OracleScore s_on =
            oracle::scoreReport(gw.truth, r.on.report);
        std::printf("  %-18s recall %.3f pruned %llu %s\n",
                    gw.workload.name.c_str(), s_on.recall(),
                    static_cast<unsigned long long>(
                        r.on.prefilter.pruned()),
                    identical ? "identical" : "DIFFER");
        json.record("fig20_pointsto",
                    {{"workload", gw.workload.name},
                     {"jobs", std::to_string(jobs)},
                     {"trial", "oracle"}},
                    {{"pruned", static_cast<double>(
                                    r.on.prefilter.pruned())},
                     {"recall_on", s_on.recall()},
                     {"identical", identical ? 1.0 : 0.0}});
    }

    // --- full registry sweep at reduced scale: identity everywhere ---
    std::printf("\nregistry sweep (report identity at scale 0.02):\n");
    unsigned swept = 0;
    for (const std::string &name : workload::allWorkloadNames()) {
        auto w = workload::findWorkload(name, 0.02 * bench::envScale());
        if (!w)
            continue;
        core::PipelineConfig pc =
            core::proRaceConfig(kPeriod, kSeed + 17, w->pt_filter);
        core::RunArtifacts run =
            core::Session::run(*w->program, w->setup, pc.session);
        const OnOff r = analyzeBoth(*w->program, run, pc.offline, jobs);
        ok &= assertIdentical(name.c_str(), r);
        ++swept;
    }
    std::printf("  %u workloads, all identical: %s\n", swept,
                ok ? "yes" : "NO");

    std::printf("\n%s\n", ok ? "floors OK" : "FLOOR VIOLATION");
    return ok ? 0 : 1;
}
