/**
 * @file
 * The memory-trace reconstruction engine (paper §5).
 *
 * For every pair of adjacent PEBS samples of a thread, the replayer
 * re-executes the program binary along the PT-observed path:
 *
 *  - *Forward replay* restores the first sample's register file and
 *    emulates forward, tracking operand availability in a ProgramMap
 *    and recovering the addresses of unsampled loads and stores.
 *  - *Backward replay* runs a reverse sweep from the next sample's
 *    register file: a register's sampled value is valid backwards until
 *    its most recent update (backward propagation), and invertible
 *    instructions (add/sub/xor, reg-reg moves, lea, push/pop rsp
 *    arithmetic) extend validity across updates (reverse execution).
 *    Facts recovered backward are injected into another forward pass;
 *    the two alternate to a fixed point.
 *
 * Three modes reproduce the paper's comparison: kBasicBlock limits
 * reconstruction to the sampled basic block (RaceZ), kForwardOnly runs
 * forward replay alone, and kForwardBackward is full ProRace.
 */

#ifndef PRORACE_REPLAY_REPLAYER_HH
#define PRORACE_REPLAY_REPLAYER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_set>
#include <vector>

#include "asmkit/program.hh"
#include "detect/report.hh"
#include "pmu/pt_decode.hh"
#include "replay/align.hh"
#include "replay/program_map.hh"
#include "trace/records.hh"

namespace prorace::analysis {
class ProgramAnalysis;
} // namespace prorace::analysis

namespace prorace::exec {
class Executor;
} // namespace prorace::exec

namespace prorace::replay {

/** Reconstruction scope. */
enum class ReplayMode : uint8_t {
    kBasicBlock,      ///< RaceZ: within the sampled basic block only
    kForwardOnly,     ///< PT-guided forward replay
    kForwardBackward, ///< full ProRace: forward + backward replay
};

/** Printable mode name. */
const char *replayModeName(ReplayMode mode);

/** One entry of the extended memory trace. */
struct ReconstructedAccess {
    uint32_t tid = 0;
    uint64_t position = 0; ///< path position (BB mode: synthetic order)
    uint32_t insn_index = 0;
    uint64_t addr = 0;
    uint8_t width = 8;
    bool is_write = false;
    bool is_atomic = false;
    uint64_t tsc = 0;      ///< interpolated retirement time
    detect::AccessOrigin origin = detect::AccessOrigin::kSampled;
};

/** Reconstruction statistics (drives Fig 11). */
struct ReplayStats {
    uint64_t sampled = 0;            ///< accesses straight from PEBS
    uint64_t recovered_forward = 0;  ///< new in forward replay
    uint64_t recovered_backward = 0; ///< new only with backward replay
    uint64_t recovered_pcrel = 0;    ///< PC-relative subset (of the above)
    uint64_t recovered_constant = 0; ///< via points-to constant values
    uint64_t windows = 0;
    uint64_t inconsistent_windows = 0;
    uint64_t backward_rounds = 0;
    uint64_t violations_branch = 0;   ///< branch-direction contradictions
    uint64_t violations_fact = 0;     ///< forward/backward disagreements
    uint64_t violations_sample = 0;   ///< sampled-address EA mismatches
    uint64_t violations_end = 0;      ///< closing-sample register mismatches
    uint64_t violations_backward = 0; ///< backward immediate contradictions
    uint64_t window_retries = 0;      ///< windows that threw and reran
    uint64_t windows_quarantined = 0; ///< windows that threw twice

    /** Paged-ProgramMap shadow counters, summed over all replay passes. */
    ProgramMapStats program_map;

    /**
     * Time in forward passes and in backward scans (with their block-run
     * set-up), summed over windows: CPU seconds across all workers when
     * windows replay on an executor. Timers, unlike the counters above,
     * differ from run to run.
     */
    double forward_seconds = 0;
    double backward_seconds = 0;

    uint64_t
    totalAccesses() const
    {
        return sampled + recovered_forward + recovered_backward +
            recovered_constant;
    }

    /**
     * Fold another accumulator in. Window replays are independent, so
     * summing per-task stats reproduces the serial accumulation
     * exactly (every counter is a plain sum of window-local deltas).
     */
    void
    merge(const ReplayStats &o)
    {
        sampled += o.sampled;
        recovered_forward += o.recovered_forward;
        recovered_backward += o.recovered_backward;
        recovered_pcrel += o.recovered_pcrel;
        recovered_constant += o.recovered_constant;
        windows += o.windows;
        inconsistent_windows += o.inconsistent_windows;
        backward_rounds += o.backward_rounds;
        violations_branch += o.violations_branch;
        violations_fact += o.violations_fact;
        violations_sample += o.violations_sample;
        violations_end += o.violations_end;
        violations_backward += o.violations_backward;
        window_retries += o.window_retries;
        windows_quarantined += o.windows_quarantined;
        program_map.merge(o.program_map);
        forward_seconds += o.forward_seconds;
        backward_seconds += o.backward_seconds;
    }

    /** Recovered+sampled accesses per sampled access (paper Fig 11). */
    double
    recoveryRatio() const
    {
        if (sampled == 0)
            return 0;
        return static_cast<double>(totalAccesses()) /
            static_cast<double>(sampled);
    }
};

/** One backward-recovered register fact: reg = val before @p pos. */
struct ReplayFact {
    uint64_t pos = 0;
    isa::Reg reg = isa::Reg::none;
    uint64_t val = 0;
};

/** A position-sorted flat list of facts. */
using FactList = std::vector<ReplayFact>;

/** Replayer configuration. */
struct ReplayConfig {
    ReplayMode mode = ReplayMode::kForwardBackward;
    int max_backward_rounds = 3;
    /** Address ranges never emulated (racy-location regeneration). */
    std::vector<std::pair<uint64_t, uint64_t>> mem_blacklist;
    /**
     * Precomputed static analysis of the program being replayed, or
     * nullptr to fall back to per-instruction fact derivation. When
     * set, the backward scan skips whole basic-block runs via the
     * block kill masks and the aligner indexes the flat fact table;
     * results are bit-identical either way. The analysis (owned by the
     * offline analyzer) must outlive every replayer holding this
     * config.
     */
    const analysis::ProgramAnalysis *analysis = nullptr;
};

/**
 * Reconstructs the extended memory trace for one run.
 */
class Replayer
{
  public:
    Replayer(const asmkit::Program &program, const ReplayConfig &config);

    /**
     * Replay every aligned thread; returns the extended memory trace
     * sorted by estimated TSC.
     *
     * The inter-sample windows of every thread, in ascending-tid then
     * path order, run inline or, with @p ex, as executor tasks whose
     * results are committed in that same order; the trace and the
     * statistics are identical either way. A window collects its
     * stats, consumed spans and accesses apart from the run's, so a
     * window that throws contributes nothing: it is retried once and
     * then quarantined (ReplayStats::window_retries,
     * windows_quarantined), and its samples reach the trace through
     * the unlocatable-sample fallback.
     */
    std::vector<ReconstructedAccess>
    replayAll(const std::map<uint32_t, pmu::ThreadPath> &paths,
              const std::map<uint32_t, ThreadAlignment> &alignments,
              const trace::RunTrace &run, exec::Executor *ex = nullptr);

    /** Accumulated statistics. */
    const ReplayStats &stats() const { return stats_; }

    /** Emulated-memory byte addresses whose values were consumed. */
    const std::unordered_set<uint64_t> &consumedAddresses() const
    {
        return consumed_;
    }

  private:
    /**
     * Per-window emission buffer, deduplicated by (position, slot) and
     * kept in that key order. A pass emits in ascending key order: it
     * appends to a pass-local run and finds an earlier pass's entry for
     * the same key with a forward cursor; endPass() merges the two in
     * place. Erased entries stay as tombstones until that merge.
     */
    class EmitBuffer
    {
      public:
        /**
         * An emitted access without what its window implies: the tid,
         * and the instruction, which is the path's at the position.
         */
        struct Entry {
            uint64_t key = 0; ///< position * 4 + slot
            uint64_t addr = 0;
            uint8_t width = 0;
            bool is_write = false;
            bool is_atomic = false;
            detect::AccessOrigin origin = detect::AccessOrigin::kSampled;
            bool live = true;

            uint64_t position() const { return key >> 2; }

            /** As an extended-trace access (tsc still unset). */
            ReconstructedAccess
            toAccess(uint32_t tid, uint32_t insn_index) const
            {
                ReconstructedAccess acc;
                acc.tid = tid;
                acc.position = position();
                acc.insn_index = insn_index;
                acc.addr = addr;
                acc.width = width;
                acc.is_write = is_write;
                acc.is_atomic = is_atomic;
                acc.origin = origin;
                return acc;
            }
        };

        void clear();
        void beginPass() { cursor_ = 0; }

        /** Add unless the key is present; true when added. */
        bool add(const Entry &entry);

        /**
         * Erase the forward- and backward-recovered entries with keys in
         * [lo_key, hi_key], taking them back out of @p stats.
         */
        void eraseRecovered(uint64_t lo_key, uint64_t hi_key,
                            ReplayStats &stats);

        void endPass();

        /** Live entries. */
        size_t size() const { return live_; }

        /** All entries in key order, after endPass(). */
        const std::vector<Entry> &entries() const { return merged_; }

        /** Release storage above @p keep_bytes per buffer. */
        void trim(size_t keep_bytes);

      private:
        std::vector<Entry> merged_; ///< earlier passes, key order
        std::vector<Entry> fresh_;  ///< this pass, key order
        size_t cursor_ = 0;         ///< into merged_
        size_t live_ = 0;
    };

    /**
     * A replay window between two adjacent samples of one thread.
     *
     * The boundary samples are the only state adjacent windows share:
     * window i's closing sample (s2, the source of backward
     * propagation) is window i+1's opening sample (s1, the restored
     * register file). Both are immutable PEBS records in the run
     * trace, which is what makes windows replayable in parallel — the
     * handoff between adjacent windows is these two pointers, not
     * mutable replay state.
     */
    struct Window {
        uint32_t tid = 0;
        uint64_t start = 0; ///< path position (inclusive)
        uint64_t end = 0;   ///< path position (exclusive)
        const trace::PebsRecord *s1 = nullptr; ///< sample at start, if any
        const trace::PebsRecord *s2 = nullptr; ///< sample at end, if any
        const std::map<uint64_t, const trace::SyncRecord *> *sync_at =
            nullptr;
    };

    /**
     * Reusable replay state of one worker: the program map (blacklist
     * applied once) and the buffers of the window being replayed. Only
     * the window's WindowResult leaves it.
     */
    struct Scratch {
        ProgramMap pm;
        EmitBuffer emit;
        FactList hints;
        FactList facts;
        /**
         * run_back[rel]: how far below position window.start + rel the
         * maximal same-block consecutive-index run containing it begins
         * (saturating).
         */
        std::vector<uint32_t> run_back;
        ReplayStats stats; ///< the current window's

        /**
         * Release buffers a long window grew, so that its peak does not
         * stay resident beside the next window's.
         */
        void trim();
    };

    /** What one window contributes to the run. */
    struct WindowResult {
        ReplayStats stats;
        std::vector<MemSpan> consumed; ///< sorted, without repeats
        std::vector<ReconstructedAccess> accesses; ///< position order
    };

    /** A fresh worker state with the configured blacklist applied. */
    std::unique_ptr<Scratch> makeScratch() const;

    /** malloc/spawn sync records mapped to their path positions. */
    static std::map<uint64_t, const trace::SyncRecord *>
    syncAtMap(const ThreadAlignment &alignment,
              const trace::RunTrace &run);

    /**
     * Build one thread's inter-sample window list. Windows cover
     * disjoint [start, end) path ranges; @p sync_at must outlive the
     * returned windows.
     */
    static std::vector<Window>
    buildWindows(const pmu::ThreadPath &path,
                 const ThreadAlignment &alignment,
                 const trace::RunTrace &run,
                 const std::map<uint64_t,
                                const trace::SyncRecord *> &sync_at);

    /** Deterministic final ordering of the extended trace. */
    static void sortByTsc(std::vector<ReconstructedAccess> &out);

    /** Forward and backward replay of one window. */
    WindowResult replayWindow(const Window &win,
                              const pmu::ThreadPath &path,
                              Scratch &s) const;

    void forwardPass(const Window &win, const pmu::ThreadPath &path,
                     const FactList &facts, detect::AccessOrigin tag,
                     Scratch &s, FactList *hints_out, bool *consistent_out,
                     uint64_t *bad_pos_out) const;

    void backwardScan(const Window &win, const pmu::ThreadPath &path,
                      const FactList &hints, FactList &facts_out,
                      bool *consistent_out, Scratch &s) const;

    /** Fill Scratch::run_back for @p win (static analysis required). */
    void buildRunStarts(const Window &win, const pmu::ThreadPath &path,
                        Scratch &s) const;

    void replayBasicBlock(const trace::PebsRecord &rec, Scratch &s) const;

    /**
     * Fold a window's consumed spans into the run's log, compacting the
     * log when it has doubled since the last compaction.
     */
    void addConsumed(const std::vector<MemSpan> &spans);

    /** Build consumedAddresses() from the run's log, then drop the log. */
    void finishConsumed();

    const asmkit::Program &program_;
    ReplayConfig config_;
    ReplayStats stats_;
    std::vector<MemSpan> consumed_log_;
    size_t compacted_size_ = 0;
    std::unordered_set<uint64_t> consumed_;
};

} // namespace prorace::replay

#endif // PRORACE_REPLAY_REPLAYER_HH
