/**
 * @file
 * Workload inputs: which programs each workload traces, at which
 * period and seed, how they are recorded, and how the recorded set is
 * handed from the set-up process to the measuring process.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.hh"
#include "core/pipeline.hh"
#include "core/session.hh"
#include "driver/cost_model.hh"
#include "service/fleet.hh"
#include "support/log.hh"
#include "trace/trace_file.hh"
#include "workload/registry.hh"

namespace perfbench {

namespace {

// Load shapes. Changing any of these changes what the benchmark
// measures; BENCHMARK.json describes them.
constexpr uint64_t kAppsPeriod = 10000;
constexpr unsigned kAppsSeeds = 5;
constexpr double kAppsScale = 0.5;
const char *const kApps[] = {"apache", "mysql", "cherokee",
                             "pbzip2", "pfscan", "aget"};

constexpr uint64_t kOraclePeriod = 100;
/** Oracle programs of every workload: standard + sync batteries. */
constexpr unsigned kOraclePrograms = 192;

constexpr uint64_t kFleetPeriod = 16;
/**
 * Scales that keep the tenants' session costs close (~35-45 ms; ptr-
 * dispatch ~7 ms), so latency quantiles do not sit on a gap between two
 * tenants and jump with the seed.
 */
constexpr double kRacyScale = 0.1;
constexpr double kKvchurnScale = 0.2;
constexpr double kPtrDispatchScale = 1.0;
/** Distinct recorded streams per fleet tenant. */
constexpr unsigned kFleetStreams = 35;
const char *const kRacy[] = {"apache-21287", "pbzip2-0.9.4",
                             "aget-bug2"};

/** SplitMix64: derives independent per-trace seeds from the run seed. */
uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Seed of the trace at @p index. The run seed is mixed first, so that
 * nearby run seeds share no trace (mix(seed + index) would give run
 * seed n + 1's first trace the seed of run seed n's second).
 */
uint64_t
traceSeed(uint64_t seed, size_t index)
{
    return mix(mix(seed) + index);
}

void
addOracle(std::vector<TraceSpec> &specs, uint64_t seed, unsigned count)
{
    // Half standard battery, half sync-vocabulary battery: both carry
    // exact truth sets.
    const unsigned sync = count / 2;
    std::vector<oracle::GeneratorConfig> configs =
        oracle::standardBattery(mix(seed ^ 0x0a11), count - sync);
    for (const auto &c : oracle::syncBattery(mix(seed ^ 0x5eed), sync))
        configs.push_back(c);
    for (const oracle::GeneratorConfig &c : configs) {
        TraceSpec s;
        s.tenant = "oracle";
        s.subject = c.name();
        s.period = kOraclePeriod;
        s.seed = traceSeed(seed, specs.size());
        s.is_oracle = true;
        s.oracle_config = c;
        specs.push_back(s);
    }
}

void
addRegistry(std::vector<TraceSpec> &specs, const std::string &tenant,
            const std::string &subject, uint64_t period, double scale,
            uint64_t seed)
{
    TraceSpec s;
    s.tenant = tenant;
    s.subject = subject;
    s.period = period;
    s.scale = scale;
    s.seed = traceSeed(seed, specs.size());
    specs.push_back(s);
}

} // namespace

double
TraceSet::tracedSeconds(size_t i) const
{
    return static_cast<double>(stats[i].traced_cycles) /
        driver::kCyclesPerSecond;
}

bool
knownWorkload(const std::string &name)
{
    return name == "apps-p10000" || name == "fleet-open";
}

std::vector<TraceSpec>
workloadSpecs(const std::string &workload, uint64_t seed)
{
    std::vector<TraceSpec> specs;
    if (workload == "apps-p10000") {
        for (unsigned k = 0; k < kAppsSeeds; ++k)
            for (const char *app : kApps)
                addRegistry(specs, "apps", app, kAppsPeriod, kAppsScale,
                            seed);
        addOracle(specs, seed, kOraclePrograms);
    } else if (workload == "fleet-open") {
        addOracle(specs, seed, kOraclePrograms);
        for (unsigned k = 0; k < kFleetStreams; ++k)
            addRegistry(specs, "racy", kRacy[k % 3], kFleetPeriod,
                        kRacyScale, seed);
        for (unsigned k = 0; k < kFleetStreams; ++k)
            addRegistry(specs, "kvchurn", "kvchurn", kFleetPeriod,
                        kKvchurnScale, seed);
        for (unsigned k = 0; k < kFleetStreams; ++k)
            addRegistry(specs, "ptr-dispatch", "ptr-dispatch",
                        kFleetPeriod, kPtrDispatchScale, seed);
    }
    return specs;
}

std::vector<std::shared_ptr<Subject>>
buildSubjects(const std::vector<TraceSpec> &specs)
{
    // Specs sharing a program share one Subject (and one program id).
    std::map<std::string, std::shared_ptr<Subject>> built;
    std::vector<std::shared_ptr<Subject>> out;
    for (const TraceSpec &spec : specs) {
        std::ostringstream id;
        id << spec.subject << "@" << spec.scale;
        auto &slot = built[id.str()];
        if (!slot) {
            slot = std::make_shared<Subject>();
            slot->program_id = id.str();
            if (spec.is_oracle) {
                oracle::GeneratedWorkload g =
                    oracle::generate(spec.oracle_config);
                slot->workload = std::move(g.workload);
                slot->has_truth = true;
                slot->truth = std::move(g.truth);
            } else {
                auto w = workload::findWorkload(spec.subject, spec.scale);
                if (!w)
                    PRORACE_FATAL("perfbench: unknown workload '",
                                  spec.subject, "'");
                slot->workload = std::move(*w);
            }
            // One PT filter for every program: the service applies a
            // single OfflineOptions to all sessions, so the fleet and
            // the oracle probe trace everything.
            if (spec.tenant != "apps")
                slot->workload.pt_filter = pmu::PtFilter::all();
        }
        out.push_back(slot);
    }
    return out;
}

std::vector<uint8_t>
recordTrace(const TraceSpec &spec, const Subject &subject,
            RecordStats &stats)
{
    core::PipelineConfig cfg = core::proRaceConfig(
        spec.period, spec.seed, subject.workload.pt_filter);
    core::RunArtifacts run = core::Session::run(
        *subject.workload.program, subject.workload.setup, cfg.session);
    stats.traced_cycles = run.traced_cycles;
    stats.raw_bytes = run.trace.totalBytes();
    stats.samples = run.trace.pebs.size();
    stats.tracing_cycles = run.stats.totalCycles();
    stats.cores = cfg.session.machine.num_cores;
    return trace::serializeTrace(run.trace);
}

core::OfflineOptions
offlineOptions(const TraceSpec &spec, const Subject &subject)
{
    return core::proRaceConfig(spec.period, spec.seed,
                               subject.workload.pt_filter)
        .offline;
}

core::OfflineOptions
serviceOptions()
{
    // The fleet defaults (service/fleet.hh), with incremental detection
    // on as the service forces it, so offline references match the
    // service's reports.
    core::OfflineOptions o = service::FleetConfig().service.offline;
    o.incremental.enabled = true;
    return o;
}

void
saveTraceSet(const TraceSet &set, const std::string &dir)
{
    std::filesystem::create_directories(dir);
    std::ofstream manifest(dir + "/manifest.txt", std::ios::trunc);
    for (size_t i = 0; i < set.bytes.size(); ++i) {
        const RecordStats &s = set.stats[i];
        manifest << i << ' ' << s.traced_cycles << ' ' << s.raw_bytes << ' '
                 << s.samples << ' ' << s.tracing_cycles << ' '
                 << s.cores << ' ' << set.bytes[i].size() << '\n';
        std::ofstream out(dir + "/trace-" + std::to_string(i) + ".bin",
                          std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(set.bytes[i].data()),
                  static_cast<std::streamsize>(set.bytes[i].size()));
        if (!out)
            PRORACE_FATAL("perfbench: cannot write trace ", i);
    }
    if (!manifest)
        PRORACE_FATAL("perfbench: cannot write manifest in ", dir);
}

bool
loadTraceSet(TraceSet &set, const std::string &dir)
{
    std::ifstream manifest(dir + "/manifest.txt");
    if (!manifest)
        return false;
    set.bytes.assign(set.specs.size(), {});
    set.stats.assign(set.specs.size(), {});
    size_t seen = 0;
    size_t i = 0, size = 0;
    RecordStats s;
    while (manifest >> i >> s.traced_cycles >> s.raw_bytes >> s.samples >>
           s.tracing_cycles >> s.cores >> size) {
        if (i >= set.specs.size())
            return false;
        std::ifstream in(dir + "/trace-" + std::to_string(i) + ".bin",
                         std::ios::binary);
        std::vector<uint8_t> bytes(size);
        in.read(reinterpret_cast<char *>(bytes.data()),
                static_cast<std::streamsize>(size));
        if (!in)
            return false;
        set.bytes[i] = std::move(bytes);
        set.stats[i] = s;
        ++seen;
    }
    return seen == set.specs.size();
}

} // namespace perfbench
