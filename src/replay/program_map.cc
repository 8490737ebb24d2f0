#include "replay/program_map.hh"

#include <bit>

#include "support/log.hh"

namespace prorace::replay {

using isa::Reg;

namespace {

/** splitmix64 finalizer, same mix as support/flat_map.hh. */
uint64_t
mixHash(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

// --- registers ---

void
ProgramMap::beginPass()
{
    // O(1): pages of earlier passes read as absent until a write
    // restamps them, which is what a fresh map would show.
    avail_mask_ = 0;
    ++pass_;
    last_page_ = nullptr;
    mstats_ = ProgramMapStats();
}

unsigned
ProgramMap::availableRegCount() const
{
    return static_cast<unsigned>(std::popcount(avail_mask_));
}

// --- bitmap helpers ---

void
ProgramMap::setBits(uint64_t *bm, unsigned off, unsigned len)
{
    while (len) {
        const unsigned w = off >> 6;
        const unsigned b = off & 63;
        const unsigned n = std::min(64u - b, len);
        const uint64_t mask =
            (n == 64 ? ~0ull : ((1ull << n) - 1)) << b;
        bm[w] |= mask;
        off += n;
        len -= n;
    }
}

void
ProgramMap::clearBits(uint64_t *bm, unsigned off, unsigned len)
{
    while (len) {
        const unsigned w = off >> 6;
        const unsigned b = off & 63;
        const unsigned n = std::min(64u - b, len);
        const uint64_t mask =
            (n == 64 ? ~0ull : ((1ull << n) - 1)) << b;
        bm[w] &= ~mask;
        off += n;
        len -= n;
    }
}

bool
ProgramMap::allSet(const uint64_t *bm, unsigned off, unsigned len)
{
    while (len) {
        const unsigned w = off >> 6;
        const unsigned b = off & 63;
        const unsigned n = std::min(64u - b, len);
        const uint64_t mask =
            (n == 64 ? ~0ull : ((1ull << n) - 1)) << b;
        if ((bm[w] & mask) != mask)
            return false;
        off += n;
        len -= n;
    }
    return true;
}

void
ProgramMap::setBitsExcept(uint64_t *dst, const uint64_t *veto,
                          unsigned off, unsigned len)
{
    while (len) {
        const unsigned w = off >> 6;
        const unsigned b = off & 63;
        const unsigned n = std::min(64u - b, len);
        const uint64_t mask =
            (n == 64 ? ~0ull : ((1ull << n) - 1)) << b;
        dst[w] |= mask & ~veto[w];
        off += n;
        len -= n;
    }
}

// --- page table ---

void
ProgramMap::growTable(size_t new_cap)
{
    std::vector<std::unique_ptr<Page>> old = std::move(table_);
    table_.clear();
    table_.resize(new_cap);
    const size_t mask = new_cap - 1;
    for (auto &slot : old) {
        if (!slot)
            continue;
        size_t i = mixHash(slot->index) & mask;
        while (table_[i])
            i = (i + 1) & mask;
        table_[i] = std::move(slot);
    }
    last_page_ = nullptr; // slots moved
}

ProgramMap::Page *
ProgramMap::probe(uint64_t page_index) const
{
    if (table_.empty())
        return nullptr;
    const size_t mask = table_.size() - 1;
    size_t i = mixHash(page_index) & mask;
    while (table_[i]) {
        if (table_[i]->index == page_index)
            return table_[i].get();
        i = (i + 1) & mask;
    }
    return nullptr;
}

ProgramMap::Page *
ProgramMap::findPage(uint64_t page_index)
{
    ++mstats_.page_lookups;
    if (last_page_ && last_page_->index == page_index) {
        ++mstats_.cache_hits;
        refreshAvail(*last_page_);
        return last_page_;
    }
    Page *page = probe(page_index);
    if (!page || page->pass != pass_)
        return nullptr;
    last_page_ = page;
    refreshAvail(*page);
    return page;
}

ProgramMap::Page &
ProgramMap::getPage(uint64_t page_index)
{
    if (Page *page = findPage(page_index))
        return *page;

    Page *page = probe(page_index);
    if (!page) {
        // Pages are never removed (invalidation is an epoch bump), so
        // the table needs no tombstones; keep load under 1/2 for short
        // probes.
        if (table_.empty()) {
            growTable(16);
        } else if ((page_count_ + 1) * 2 >= table_.size()) {
            growTable(table_.size() * 2);
        }
        const size_t mask = table_.size() - 1;
        size_t i = mixHash(page_index) & mask;
        while (table_[i])
            i = (i + 1) & mask;
        table_[i] = std::make_unique<Page>();
        table_[i]->index = page_index;
        page = table_[i].get();
        ++page_count_;
    }
    // New to this pass: nothing available yet; blacklist bits persist.
    page->pass = pass_;
    page->avail.fill(0);
    page->avail_epoch = epoch_;
    ++mstats_.pages_allocated;
    last_page_ = page;
    return *page;
}

// --- emulated memory ---

void
ProgramMap::checkSpan(uint64_t addr, uint8_t width)
{
    PRORACE_ASSERT(width == 1 || width == 2 || width == 4 || width == 8,
                   "degenerate memory-access width ", unsigned(width));
    PRORACE_ASSERT(addr <= ~uint64_t{0} - width,
                   "memory span wraps the address space at ", addr);
}

void
ProgramMap::writeMem(uint64_t addr, uint64_t value, uint8_t width)
{
    checkSpan(addr, width);
    unsigned done = 0;
    while (done < width) {
        const uint64_t a = addr + done;
        const unsigned off = static_cast<unsigned>(a & kOffsetMask);
        const unsigned n = std::min<unsigned>(width - done,
                                              kPageBytes - off);
        Page &page = getPage(a >> kPageShift);
        for (unsigned i = 0; i < n; ++i) {
            page.bytes[off + i] =
                static_cast<uint8_t>(value >> (8 * (done + i)));
        }
        // Blacklisted bytes never become available again.
        setBitsExcept(page.avail.data(), page.blacklist.data(), off, n);
        done += n;
    }
}

void
ProgramMap::invalidateMem(uint64_t addr, uint8_t width)
{
    checkSpan(addr, width);
    unsigned done = 0;
    while (done < width) {
        const uint64_t a = addr + done;
        const unsigned off = static_cast<unsigned>(a & kOffsetMask);
        const unsigned n = std::min<unsigned>(width - done,
                                              kPageBytes - off);
        if (Page *page = findPage(a >> kPageShift))
            clearBits(page->avail.data(), off, n);
        done += n;
    }
}

std::optional<uint64_t>
ProgramMap::readMem(uint64_t addr, uint8_t width)
{
    checkSpan(addr, width);

    // An access spans at most two pages (width <= 8 << page size).
    struct Chunk {
        Page *page;
        unsigned off;
        unsigned len;
        unsigned byte_shift; ///< position of the chunk in the value
    };
    Chunk chunks[2];
    unsigned num_chunks = 0;

    // Pass 1: every byte must be available before anything is consumed.
    unsigned done = 0;
    while (done < width) {
        const uint64_t a = addr + done;
        const unsigned off = static_cast<unsigned>(a & kOffsetMask);
        const unsigned n = std::min<unsigned>(width - done,
                                              kPageBytes - off);
        Page *page = findPage(a >> kPageShift);
        if (!page || !allSet(page->avail.data(), off, n))
            return std::nullopt;
        chunks[num_chunks++] = {page, off, n, done};
        done += n;
    }

    // Pass 2: assemble the value and mark the span consumed.
    uint64_t value = 0;
    for (unsigned c = 0; c < num_chunks; ++c) {
        const Chunk &chunk = chunks[c];
        for (unsigned i = 0; i < chunk.len; ++i) {
            value |= static_cast<uint64_t>(chunk.page->bytes[chunk.off + i])
                << (8 * (chunk.byte_shift + i));
        }
    }
    consumed_log_.push_back({addr, width});
    return value;
}

void
ProgramMap::invalidateMemory()
{
    // O(1): stale pages refresh their availability bitmap on first
    // touch. Value bytes, blacklist, and the consumed log all survive.
    ++epoch_;
    ++mstats_.mem_invalidations;
}

void
ProgramMap::blacklistMem(uint64_t addr, uint64_t size)
{
    uint64_t done = 0;
    while (done < size) {
        const uint64_t a = addr + done;
        const unsigned off = static_cast<unsigned>(a & kOffsetMask);
        const unsigned n = static_cast<unsigned>(
            std::min<uint64_t>(size - done, kPageBytes - off));
        Page &page = getPage(a >> kPageShift);
        setBits(page.blacklist.data(), off, n);
        clearBits(page.avail.data(), off, n);
        done += n;
    }
}

std::unordered_set<uint64_t>
ProgramMap::consumedAddresses() const
{
    std::unordered_set<uint64_t> out;
    for (const MemSpan &span : consumed_log_) {
        for (unsigned i = 0; i < span.width; ++i)
            out.insert(span.addr + i);
    }
    return out;
}

} // namespace prorace::replay
