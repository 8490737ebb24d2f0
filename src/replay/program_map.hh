/**
 * @file
 * The "program map" of the paper's replay engine (§5.1): an
 * availability-tracked model of the architectural state used while
 * re-executing the binary offline.
 *
 * Every register is either available (value known) or unavailable.
 * Memory is emulated opportunistically: a store of a known value to a
 * known address makes that location available; loads from unavailable
 * locations poison their destination register; syscalls and other
 * scheduling points conservatively invalidate all emulated memory.
 *
 * Emulated memory is a sanitizer-style paged shadow (DESIGN.md §9):
 * fixed 4 KiB pages carry the value bytes plus per-byte availability
 * and blacklist bitmaps, behind an open-addressing page table with a
 * one-entry last-page cache. An aligned 8-byte load or store is one
 * page lookup plus word-wide bitmap ops, and invalidateMemory() is an
 * O(1) epoch bump instead of a hash-map rehash. Successful loads append
 * their span to a consumed log (§9.1).
 *
 * One map serves many replay passes: beginPass() makes every register
 * and page logically absent in O(1), so a pass reads and counts as on a
 * fresh map, while the page allocations and the blacklist bitmaps are
 * reused (the blacklist, applied once, is charged to no pass).
 */

#ifndef PRORACE_REPLAY_PROGRAM_MAP_HH
#define PRORACE_REPLAY_PROGRAM_MAP_HH

#include <array>
#include <compare>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "isa/reg.hh"
#include "support/log.hh"
#include "vm/cpu.hh"

namespace prorace::replay {

/**
 * Shadow-page counters of the replay passes. They are logical: each
 * pass counts what it would on a fresh map, so the sums do not depend
 * on which pass reused which map.
 */
struct ProgramMapStats {
    uint64_t pages_allocated = 0; ///< pages brought into use per pass
    uint64_t page_lookups = 0;    ///< page-resolutions (incl. cache hits)
    uint64_t cache_hits = 0;      ///< served by the last-page cache
    uint64_t mem_invalidations = 0; ///< invalidateMemory() epoch bumps

    void
    merge(const ProgramMapStats &o)
    {
        pages_allocated += o.pages_allocated;
        page_lookups += o.page_lookups;
        cache_hits += o.cache_hits;
        mem_invalidations += o.mem_invalidations;
    }
};

/** A byte range [addr, addr + width) read from emulated memory. */
struct MemSpan {
    uint64_t addr = 0;
    uint8_t width = 0;

    auto operator<=>(const MemSpan &) const = default;
};

/** Availability-tracked registers + paged emulated memory. */
class ProgramMap
{
  public:
    /** Start with every register and all memory unavailable. */
    ProgramMap() = default;

    /**
     * Start a replay pass: every register and all emulated memory
     * become unavailable, and the shadow counters restart from zero.
     * Blacklisted bytes stay blacklisted; the consumed log is kept.
     */
    void beginPass();

    /** Restore the full register file from a PEBS sample. */
    void
    restoreRegs(const vm::RegFile &regs)
    {
        values_ = regs.gpr;
        avail_mask_ = 0xffff;
    }

    /** True when @p reg holds a known value. */
    bool
    regAvailable(isa::Reg reg) const
    {
        PRORACE_ASSERT(isa::isGpr(reg), "availability of non-GPR");
        return (avail_mask_ >> isa::gprIndex(reg)) & 1u;
    }

    /** Bit i set: the register with GPR index i is available. */
    uint16_t availMask() const { return avail_mask_; }

    /** Value of an available register (assert-checked). */
    uint64_t
    regValue(isa::Reg reg) const
    {
        PRORACE_ASSERT(regAvailable(reg), "read of unavailable register ",
                       isa::regName(reg));
        return values_[isa::gprIndex(reg)];
    }

    /** Make @p reg available with @p value. */
    void
    setReg(isa::Reg reg, uint64_t value)
    {
        PRORACE_ASSERT(isa::isGpr(reg), "set of non-GPR");
        values_[isa::gprIndex(reg)] = value;
        avail_mask_ |= static_cast<uint16_t>(1u << isa::gprIndex(reg));
    }

    /** Mark @p reg unavailable. */
    void
    invalidateReg(isa::Reg reg)
    {
        PRORACE_ASSERT(isa::isGpr(reg), "invalidate of non-GPR");
        avail_mask_ &= static_cast<uint16_t>(~(1u << isa::gprIndex(reg)));
    }

    /** Mark every register unavailable (library-code gaps). */
    void invalidateAllRegs() { avail_mask_ = 0; }

    /** Emulate a store of a known value (marks bytes available). */
    void writeMem(uint64_t addr, uint64_t value, uint8_t width);

    /** Mark [addr, addr+width) unavailable (store of unknown value). */
    void invalidateMem(uint64_t addr, uint8_t width);

    /**
     * Emulated load: the value if every byte is available. A successful
     * read appends the address range to the consumed log, so the
     * pipeline can later regenerate the trace if a race is found on it
     * (§5.1).
     */
    std::optional<uint64_t> readMem(uint64_t addr, uint8_t width);

    /** Drop all emulated memory (syscall / scheduling point). */
    void invalidateMemory();

    /**
     * Blacklist an address range: it is never emulated again (used when
     * regenerating after a race on an emulated location).
     */
    void blacklistMem(uint64_t addr, uint64_t size);

    /**
     * Spans consumed by reads, in read order and with repeats. The log
     * survives invalidateMemory() and beginPass(); its owner drains it.
     */
    std::vector<MemSpan> &consumedLog() { return consumed_log_; }

    /** Emulated byte addresses of the consumed log. */
    std::unordered_set<uint64_t> consumedAddresses() const;

    /** Number of registers currently available. */
    unsigned availableRegCount() const;

    /** Shadow-structure counters (merged into ReplayStats). */
    const ProgramMapStats &memStats() const { return mstats_; }

  private:
    static constexpr unsigned kPageShift = 12; ///< 4 KiB value bytes
    static constexpr uint64_t kPageBytes = 1ull << kPageShift;
    static constexpr uint64_t kOffsetMask = kPageBytes - 1;
    static constexpr unsigned kWordsPerPage =
        static_cast<unsigned>(kPageBytes / 64);

    /**
     * One shadow page: value bytes plus per-byte bitmaps. Availability
     * is epoch-validated — a page whose avail_epoch is stale logically
     * has an all-zero availability bitmap and is refreshed on first
     * touch, which is what makes invalidateMemory() O(1). A page whose
     * pass is stale is logically absent until a write brings it back.
     */
    struct Page {
        uint64_t index = 0; ///< page number (addr >> kPageShift)
        uint64_t avail_epoch = 0;
        uint64_t pass = 0;
        std::array<uint8_t, kPageBytes> bytes{};
        std::array<uint64_t, kWordsPerPage> avail{};
        std::array<uint64_t, kWordsPerPage> blacklist{};
    };

    /** The allocated page for @p page_index, whatever its pass. */
    Page *probe(uint64_t page_index) const;

    /**
     * Page for @p page_index if present in this pass, or nullptr;
     * refreshes stale epochs.
     */
    Page *findPage(uint64_t page_index);

    /** Page for @p page_index, created on demand; epoch-fresh. */
    Page &getPage(uint64_t page_index);

    /** Zero a stale availability bitmap and stamp the current epoch. */
    void
    refreshAvail(Page &page)
    {
        if (page.avail_epoch != epoch_) {
            page.avail.fill(0);
            page.avail_epoch = epoch_;
        }
    }

    void growTable(size_t new_cap);

    /** Width must be a power-of-two load/store size with no wraparound. */
    static void checkSpan(uint64_t addr, uint8_t width);

    // --- bitmap helpers over [off, off+len) bit ranges ---
    static void setBits(uint64_t *bm, unsigned off, unsigned len);
    static void clearBits(uint64_t *bm, unsigned off, unsigned len);
    static bool allSet(const uint64_t *bm, unsigned off, unsigned len);
    /** dst |= range-mask & ~veto (availability respecting blacklist). */
    static void setBitsExcept(uint64_t *dst, const uint64_t *veto,
                              unsigned off, unsigned len);

    std::array<uint64_t, isa::kNumGprs> values_{};
    uint16_t avail_mask_ = 0;

    /** Open-addressing page table (power-of-two, never shrinks). */
    std::vector<std::unique_ptr<Page>> table_;
    size_t page_count_ = 0;
    Page *last_page_ = nullptr; ///< one-entry lookup cache
    uint64_t epoch_ = 1;
    uint64_t pass_ = 0;
    std::vector<MemSpan> consumed_log_;
    ProgramMapStats mstats_;
};

} // namespace prorace::replay

#endif // PRORACE_REPLAY_PROGRAM_MAP_HH
