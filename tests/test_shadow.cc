/**
 * @file
 * Shadow-structure tests for the PR-2 overhaul: the paged ProgramMap
 * against the byte-map reference model, the flat-table FastTrack
 * against the pre-overhaul reference detector, the SSO VectorClock,
 * the FlatMap primitive, and the new guard rails (tid limit, width
 * asserts).
 */

#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "detect/fasttrack.hh"
#include "detect/fasttrack_ref.hh"
#include "detect/vector_clock.hh"
#include "replay/byte_map_model.hh"
#include "replay/program_map.hh"
#include "support/flat_map.hh"
#include "support/rng.hh"

#include "testutil.hh"

namespace {

using namespace prorace;
using detect::Epoch;
using detect::FastTrack;
using detect::MemAccess;
using detect::RefFastTrack;
using detect::VectorClock;
using replay::ByteMapModel;
using replay::ProgramMap;

// --- FlatMap ---

TEST(FlatMap, InsertFindEraseAcrossRehashes)
{
    FlatMap<uint64_t> map;
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(42), nullptr);

    constexpr uint64_t kKeys = 10000;
    for (uint64_t k = 0; k < kKeys; ++k)
        map[k * 0x10001ull] = k;
    EXPECT_EQ(map.size(), kKeys);
    for (uint64_t k = 0; k < kKeys; ++k) {
        const uint64_t *v = map.find(k * 0x10001ull);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, k);
    }

    // Erase the odd keys; the even ones must survive the tombstones.
    for (uint64_t k = 1; k < kKeys; k += 2)
        EXPECT_TRUE(map.erase(k * 0x10001ull));
    EXPECT_FALSE(map.erase(1 * 0x10001ull));
    EXPECT_EQ(map.size(), kKeys / 2);
    for (uint64_t k = 0; k < kKeys; ++k) {
        const uint64_t *v = map.find(k * 0x10001ull);
        if (k % 2 == 0) {
            ASSERT_NE(v, nullptr);
            EXPECT_EQ(*v, k);
        } else {
            EXPECT_EQ(v, nullptr);
        }
    }

    // Reinsertion reuses tombstoned slots.
    for (uint64_t k = 1; k < kKeys; k += 2)
        map[k * 0x10001ull] = k + 1;
    EXPECT_EQ(map.size(), kKeys);
    EXPECT_EQ(*map.find(3 * 0x10001ull), 4u);

    size_t visited = 0;
    map.forEach([&](uint64_t, const uint64_t &) { ++visited; });
    EXPECT_EQ(visited, kKeys);
    EXPECT_GT(map.probeStats().lookups, 0u);
}

TEST(FlatMap, RandomizedAgainstStdMap)
{
    FlatMap<uint64_t> flat;
    std::unordered_map<uint64_t, uint64_t> ref;
    const uint64_t seed = testutil::testSeed(77);
    PRORACE_SEED_TRACE(seed);
    Rng rng(seed);
    for (int op = 0; op < 50000; ++op) {
        const uint64_t key = rng.below(512) * 0x9e370001ull;
        switch (rng.below(3)) {
          case 0:
            flat[key] = static_cast<uint64_t>(op);
            ref[key] = static_cast<uint64_t>(op);
            break;
          case 1:
            EXPECT_EQ(flat.erase(key), ref.erase(key) > 0);
            break;
          default: {
            const uint64_t *v = flat.find(key);
            auto it = ref.find(key);
            ASSERT_EQ(v != nullptr, it != ref.end());
            if (v) {
                EXPECT_EQ(*v, it->second);
            }
          }
        }
    }
    EXPECT_EQ(flat.size(), ref.size());
}

// --- VectorClock SSO ---

TEST(VectorClockSso, StaysInlineForFourComponents)
{
    VectorClock vc;
    EXPECT_FALSE(vc.usesHeap());
    for (uint32_t t = 0; t < VectorClock::kInlineComponents; ++t)
        vc.set(t, 10 + t);
    EXPECT_FALSE(vc.usesHeap());
    EXPECT_EQ(vc.get(3), 13u);
    EXPECT_EQ(vc.get(9), 0u);
}

TEST(VectorClockSso, SpillPreservesComponents)
{
    VectorClock vc;
    for (uint32_t t = 0; t < 12; ++t)
        vc.set(t, 100 + t);
    EXPECT_TRUE(vc.usesHeap());
    for (uint32_t t = 0; t < 12; ++t)
        EXPECT_EQ(vc.get(t), 100u + t);
    EXPECT_EQ(vc.size(), 12u);
}

TEST(VectorClockSso, JoinAssignLessOrEqualAcrossSpillBoundary)
{
    VectorClock small;
    small.set(1, 7);

    VectorClock big;
    big.set(9, 3);
    big.set(1, 2);

    // inline.join(heap) spills and takes pointwise maxima.
    VectorClock joined = small;
    joined.join(big);
    EXPECT_EQ(joined.get(1), 7u);
    EXPECT_EQ(joined.get(9), 3u);
    EXPECT_TRUE(joined.usesHeap());

    EXPECT_TRUE(small.lessOrEqual(joined));
    EXPECT_TRUE(big.lessOrEqual(joined));
    EXPECT_FALSE(joined.lessOrEqual(small));

    // assign shrinks back to the source's logical size.
    joined.assign(small);
    EXPECT_EQ(joined.get(1), 7u);
    EXPECT_EQ(joined.get(9), 0u);
    EXPECT_EQ(joined.size(), small.size());
    EXPECT_TRUE(joined.lessOrEqual(small));

    // copy / move keep values on both storage kinds.
    VectorClock copy(big);
    EXPECT_EQ(copy.get(9), 3u);
    VectorClock moved(std::move(copy));
    EXPECT_EQ(moved.get(9), 3u);
    EXPECT_EQ(copy.get(9), 0u); // moved-from is reset
    VectorClock assigned;
    assigned = moved;
    EXPECT_EQ(assigned.get(9), 3u);
}

TEST(VectorClockSso, ToStringMatchesOldFormat)
{
    VectorClock vc;
    vc.set(0, 3);
    vc.set(1, 7);
    EXPECT_EQ(vc.toString(), "[t0:3 t1:7]");
}

// --- paged ProgramMap vs byte-map model ---

TEST(PagedProgramMap, PageBoundaryStraddles)
{
    ProgramMap pm;
    // 8-byte store straddling the 4 KiB page boundary at 0x2000.
    pm.writeMem(0x1ffc, 0x1122334455667788ull, 8);
    EXPECT_EQ(pm.readMem(0x1ffc, 8).value(), 0x1122334455667788ull);
    EXPECT_EQ(pm.readMem(0x2000, 4).value(), 0x11223344ull);

    // Invalidate one byte past the boundary: the straddling read dies,
    // the low half survives.
    pm.invalidateMem(0x2000, 1);
    EXPECT_FALSE(pm.readMem(0x1ffc, 8).has_value());
    EXPECT_TRUE(pm.readMem(0x1ffc, 4).has_value());

    // Blacklist across the boundary: writes there never land again.
    pm.blacklistMem(0x1ffe, 4);
    pm.writeMem(0x1ffc, 0xffffffffffffffffull, 8);
    EXPECT_FALSE(pm.readMem(0x1ffc, 4).has_value());
    EXPECT_TRUE(pm.readMem(0x2002, 2).has_value());
}

TEST(PagedProgramMap, EpochInvalidationDropsAvailabilityOnly)
{
    ProgramMap pm;
    pm.writeMem(0x5000, 0xabcdull, 2);
    ASSERT_TRUE(pm.readMem(0x5000, 2).has_value());
    const auto consumed_before = pm.consumedAddresses();
    EXPECT_EQ(consumed_before.size(), 2u);

    pm.invalidateMemory();
    EXPECT_FALSE(pm.readMem(0x5000, 2).has_value());
    // Consumed marks survive the epoch bump (they feed regeneration).
    EXPECT_EQ(pm.consumedAddresses(), consumed_before);

    // The page is reusable after the bump.
    pm.writeMem(0x5000, 0x99ull, 1);
    EXPECT_EQ(pm.readMem(0x5000, 1).value(), 0x99ull);
    EXPECT_EQ(pm.memStats().mem_invalidations, 1u);
    EXPECT_GE(pm.memStats().pages_allocated, 1u);
}

TEST(PagedProgramMap, RandomizedDifferentialAgainstByteMap)
{
    ProgramMap paged;
    ByteMapModel ref;
    const uint64_t seed = testutil::testSeed(20260806);
    PRORACE_SEED_TRACE(seed);
    Rng rng(seed);

    // Address pool clustered around page boundaries and spread across
    // distant pages, so straddles, sparse pages, and table growth all
    // happen.
    std::vector<uint64_t> bases;
    for (uint64_t page = 0; page < 24; ++page) {
        const uint64_t base = 0x10000 + page * 0x1000;
        bases.push_back(base);
        bases.push_back(base + 0xff8); // near the page end
        bases.push_back(base + 0xffc); // 4/8-byte straddle
    }
    bases.push_back(0xdeadbeef0000ull); // far page (table stress)

    const uint8_t widths[] = {1, 2, 4, 8};
    for (int op = 0; op < 60000; ++op) {
        const uint64_t addr = bases[rng.below(bases.size())] +
            rng.below(16);
        const uint8_t width =
            widths[rng.below(sizeof(widths) / sizeof(widths[0]))];
        switch (rng.below(16)) {
          case 0:
            paged.invalidateMemory();
            ref.invalidateMemory();
            break;
          case 1:
            paged.invalidateMem(addr, width);
            ref.invalidateMem(addr, width);
            break;
          case 2: {
            const uint64_t size = rng.range(1, 24);
            paged.blacklistMem(addr, size);
            ref.blacklistMem(addr, size);
            break;
          }
          case 3:
          case 4:
          case 5:
          case 6: {
            const auto a = paged.readMem(addr, width);
            const auto b = ref.readMem(addr, width);
            ASSERT_EQ(a.has_value(), b.has_value())
                << "read mismatch at 0x" << std::hex << addr
                << " width " << std::dec << unsigned(width)
                << " op " << op;
            if (a) {
                ASSERT_EQ(*a, *b);
            }
            break;
          }
          default: {
            const uint64_t value = rng.next();
            paged.writeMem(addr, value, width);
            ref.writeMem(addr, value, width);
          }
        }
    }

    EXPECT_EQ(paged.consumedAddresses(), ref.consumedAddresses());
}

TEST(PagedProgramMap, ReusedPassMatchesFreshMap)
{
    // One map serves many replay passes: after beginPass() it must read,
    // log and count exactly like a fresh map given the same operations,
    // while its blacklist (applied once) stays in force.
    const uint64_t seed = testutil::testSeed(20261020);
    PRORACE_SEED_TRACE(seed);
    Rng rng(seed);
    std::vector<uint64_t> bases;
    for (uint64_t page = 0; page < 12; ++page) {
        bases.push_back(0x40000 + page * 0x1000);
        bases.push_back(0x40000 + page * 0x1000 + 0xffc);
    }
    const uint8_t widths[] = {1, 2, 4, 8};

    for (const bool with_blacklist : {false, true}) {
        ProgramMap reused;
        if (with_blacklist) {
            reused.blacklistMem(0x40ff8, 16); // straddles a page
            reused.blacklistMem(0x43010, 8);
        }
        for (int pass = 0; pass < 6; ++pass) {
            ProgramMap fresh;
            if (with_blacklist) {
                fresh.blacklistMem(0x40ff8, 16);
                fresh.blacklistMem(0x43010, 8);
                fresh.consumedLog().clear();
            }
            const replay::ProgramMapStats before = fresh.memStats();
            reused.beginPass();
            reused.consumedLog().clear();
            EXPECT_EQ(reused.availableRegCount(), 0u);
            for (int op = 0; op < 4000; ++op) {
                const uint64_t addr = bases[rng.below(bases.size())] +
                    rng.below(16);
                const uint8_t width =
                    widths[rng.below(sizeof(widths) / sizeof(widths[0]))];
                switch (rng.below(10)) {
                  case 0:
                    fresh.invalidateMemory();
                    reused.invalidateMemory();
                    break;
                  case 1:
                    fresh.invalidateMem(addr, width);
                    reused.invalidateMem(addr, width);
                    break;
                  case 2:
                  case 3:
                  case 4: {
                    const auto a = fresh.readMem(addr, width);
                    const auto b = reused.readMem(addr, width);
                    ASSERT_EQ(a.has_value(), b.has_value())
                        << "pass " << pass << " op " << op;
                    if (a) {
                        ASSERT_EQ(*a, *b);
                    }
                    break;
                  }
                  default: {
                    const uint64_t value = rng.next();
                    fresh.writeMem(addr, value, width);
                    reused.writeMem(addr, value, width);
                  }
                }
            }
            EXPECT_EQ(fresh.consumedLog(), reused.consumedLog());
            const replay::ProgramMapStats &a = fresh.memStats();
            const replay::ProgramMapStats &b = reused.memStats();
            EXPECT_EQ(a.mem_invalidations - before.mem_invalidations,
                      b.mem_invalidations);
            if (!with_blacklist) {
                // A fresh map pays its blacklist's lookups and pages
                // every pass; the reused map paid them once.
                EXPECT_EQ(a.pages_allocated, b.pages_allocated);
                EXPECT_EQ(a.page_lookups, b.page_lookups);
                EXPECT_EQ(a.cache_hits, b.cache_hits);
            }
        }
    }
}

TEST(PagedProgramMap, WidthAndOverflowAsserts)
{
    ProgramMap pm;
    EXPECT_THROW(pm.writeMem(0x1000, 0, 3), std::logic_error);
    EXPECT_THROW(pm.writeMem(0x1000, 0, 0), std::logic_error);
    EXPECT_THROW(pm.writeMem(0x1000, 0, 16), std::logic_error);
    EXPECT_THROW(pm.readMem(0x1000, 5), std::logic_error);
    EXPECT_THROW(pm.invalidateMem(0x1000, 7), std::logic_error);
    // addr + width must not wrap the address space.
    EXPECT_THROW(pm.readMem(~uint64_t{0} - 3, 8), std::logic_error);
    EXPECT_THROW(pm.writeMem(~uint64_t{0}, 0, 1), std::logic_error);
    // The top of the address space minus a full span is fine.
    EXPECT_NO_THROW(pm.writeMem(~uint64_t{0} - 8, 0x42, 8));
    EXPECT_EQ(pm.readMem(~uint64_t{0} - 8, 8).value(), 0x42ull);
}

// --- FastTrack vs the reference detector ---

/** One recorded detector event, replayable into either detector. */
struct DetectorEvent {
    enum Kind : uint8_t {
        kAccess, kAcquire, kRelease, kBarrierEnter, kBarrierExit,
        kFork, kJoinEv, kExit, kAlloc, kFree,
    };
    Kind kind = kAccess;
    MemAccess ma;
    uint32_t tid = 0;
    uint64_t object = 0;
    uint64_t aux = 0;
};

template <typename Detector>
void
replayEvents(Detector &ft, const std::vector<DetectorEvent> &events)
{
    for (const DetectorEvent &ev : events) {
        switch (ev.kind) {
          case DetectorEvent::kAccess:       ft.access(ev.ma); break;
          case DetectorEvent::kAcquire:      ft.acquire(ev.tid, ev.object); break;
          case DetectorEvent::kRelease:      ft.release(ev.tid, ev.object); break;
          case DetectorEvent::kBarrierEnter: ft.barrierEnter(ev.tid, ev.object); break;
          case DetectorEvent::kBarrierExit:  ft.barrierExit(ev.tid, ev.object); break;
          case DetectorEvent::kFork:         ft.fork(ev.tid, static_cast<uint32_t>(ev.aux)); break;
          case DetectorEvent::kJoinEv:       ft.join(ev.tid, static_cast<uint32_t>(ev.aux)); break;
          case DetectorEvent::kExit:         ft.threadExit(ev.tid); break;
          case DetectorEvent::kAlloc:        ft.allocate(ev.tid, ev.object, ev.aux); break;
          case DetectorEvent::kFree:         ft.deallocate(ev.tid, ev.object); break;
        }
    }
}

/** Full-report equality: same races, same order, same fields. */
void
expectIdenticalReports(const FastTrack &ft, const RefFastTrack &ref)
{
    const auto &a = ft.report().races();
    const auto &b = ref.report().races();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].addr, b[i].addr) << "race " << i;
        EXPECT_EQ(a[i].prior.tid, b[i].prior.tid) << "race " << i;
        EXPECT_EQ(a[i].prior.insn_index, b[i].prior.insn_index);
        EXPECT_EQ(a[i].prior.is_write, b[i].prior.is_write);
        EXPECT_EQ(a[i].prior.tsc, b[i].prior.tsc);
        EXPECT_EQ(a[i].current.tid, b[i].current.tid) << "race " << i;
        EXPECT_EQ(a[i].current.insn_index, b[i].current.insn_index);
        EXPECT_EQ(a[i].current.is_write, b[i].current.is_write);
        EXPECT_EQ(a[i].current.tsc, b[i].current.tsc);
    }
    EXPECT_EQ(ft.report().format(), ref.report().format());

    const auto fs = ft.stats();
    const auto &rs = ref.stats();
    EXPECT_EQ(fs.reads, rs.reads);
    EXPECT_EQ(fs.writes, rs.writes);
    EXPECT_EQ(fs.sync_ops, rs.sync_ops);
    EXPECT_EQ(fs.epoch_fast_path, rs.epoch_fast_path);
    EXPECT_EQ(fs.read_shares, rs.read_shares);
}

TEST(FastTrackDifferential, RandomizedEventStreams)
{
    for (uint64_t seed :
         testutil::testSeeds({1ull, 7ull, 123ull, 20260806ull})) {
        PRORACE_SEED_TRACE(seed);
        Rng rng(seed);
        std::vector<DetectorEvent> events;
        constexpr uint32_t kThreads = 6;
        uint64_t tsc = 0;
        for (int i = 0; i < 40000; ++i) {
            DetectorEvent ev;
            const uint32_t tid = static_cast<uint32_t>(
                rng.below(kThreads));
            ++tsc;
            if (rng.chance(0.08)) {
                // Sync traffic over a few objects.
                const uint64_t obj = 0x9000 + 0x40 * rng.below(4);
                static const DetectorEvent::Kind kSyncKinds[] = {
                    DetectorEvent::kAcquire, DetectorEvent::kRelease,
                    DetectorEvent::kBarrierEnter,
                    DetectorEvent::kBarrierExit,
                };
                ev.kind = kSyncKinds[rng.below(4)];
                ev.tid = tid;
                ev.object = obj;
            } else if (rng.chance(0.02)) {
                // malloc/free lifetime churn over a fixed block, the
                // allocate/deallocate range-erase path.
                ev.kind = rng.chance(0.5) ? DetectorEvent::kAlloc
                                          : DetectorEvent::kFree;
                ev.tid = tid;
                ev.object = 0x20000 + 0x100 * rng.below(4);
                ev.aux = 64 + 8 * rng.below(8);
            } else {
                ev.kind = DetectorEvent::kAccess;
                ev.ma.tid = tid;
                // Clustered addresses maximize granule contention, with
                // occasional granule-straddling widths.
                ev.ma.addr = 0x10000 + 8 * rng.below(256) + rng.below(4);
                ev.ma.width = rng.chance(0.1) ? 8 : 4;
                ev.ma.is_write = rng.chance(0.35);
                ev.ma.is_atomic = rng.chance(0.1);
                ev.ma.insn_index = static_cast<uint32_t>(rng.below(400));
                ev.ma.tsc = tsc;
            }
            events.push_back(ev);
        }

        FastTrack ft;
        RefFastTrack ref;
        replayEvents(ft, events);
        replayEvents(ref, events);
        expectIdenticalReports(ft, ref);
    }
}

TEST(FastTrackDifferential, OrderingSensitiveScenarios)
{
    // Hand-built streams whose reports depend on state-machine order:
    // read-share inflation then collapse, fork/join edges, lifetime
    // recycling at one address. A structure swap that perturbed any
    // ordering-sensitive path would diverge here.
    std::vector<DetectorEvent> events;
    auto access = [&](uint32_t tid, uint64_t addr, bool write,
                      uint32_t insn, uint64_t tsc) {
        DetectorEvent ev;
        ev.kind = DetectorEvent::kAccess;
        ev.ma.tid = tid;
        ev.ma.addr = addr;
        ev.ma.is_write = write;
        ev.ma.insn_index = insn;
        ev.ma.tsc = tsc;
        events.push_back(ev);
    };
    auto sync = [&](DetectorEvent::Kind kind, uint32_t tid, uint64_t obj,
                    uint64_t aux = 0) {
        DetectorEvent ev;
        ev.kind = kind;
        ev.tid = tid;
        ev.object = obj;
        ev.aux = aux;
        events.push_back(ev);
    };

    // Thread 0 forks 1..5; 0..4 read x concurrently (inflation to a
    // read VC that spills past 4 inline components), then thread 5
    // writes -> read-write race against the shared read clock.
    for (uint32_t c = 1; c <= 5; ++c)
        sync(DetectorEvent::kFork, 0, 0, c);
    access(0, 0x1000, false, 1, 10);
    for (uint32_t c = 1; c <= 4; ++c)
        access(c, 0x1000, false, 2 + c, 11 + c);
    access(5, 0x1000, true, 20, 30);

    // Lock-ordered handoff on y: no race.
    sync(DetectorEvent::kAcquire, 1, 0x9000);
    access(1, 0x2000, true, 30, 40);
    sync(DetectorEvent::kRelease, 1, 0x9000);
    sync(DetectorEvent::kAcquire, 2, 0x9000);
    access(2, 0x2000, true, 31, 41);
    sync(DetectorEvent::kRelease, 2, 0x9000);

    // Same address, two lifetimes: write in lifetime A, free,
    // re-malloc, write in lifetime B by another thread — must NOT race.
    sync(DetectorEvent::kAlloc, 1, 0x3000, 64);
    access(1, 0x3008, true, 40, 50);
    sync(DetectorEvent::kFree, 1, 0x3000);
    sync(DetectorEvent::kAlloc, 2, 0x3000, 64);
    access(2, 0x3008, true, 41, 51);

    // Join edges order the final accesses: no race after joins.
    for (uint32_t c = 1; c <= 5; ++c)
        sync(DetectorEvent::kExit, c, 0);
    for (uint32_t c = 1; c <= 5; ++c)
        sync(DetectorEvent::kJoinEv, 0, 0, c);
    access(0, 0x1000, true, 50, 60);

    FastTrack ft;
    RefFastTrack ref;
    replayEvents(ft, events);
    replayEvents(ref, events);
    expectIdenticalReports(ft, ref);

    // The scenario above must actually exercise the structures it
    // targets: one read-share inflation, one race.
    EXPECT_GE(ft.stats().read_shares, 1u);
    EXPECT_GE(ft.stats().vc_spills, 1u);
    EXPECT_EQ(ft.report().size(), 1u);
}

TEST(FastTrackLimits, TidBeyondEpochFieldIsFatal)
{
    FastTrack ft;
    // The largest representable tid works...
    MemAccess ma;
    ma.tid = Epoch::kMaxThreads - 1;
    ma.addr = 0x1000;
    EXPECT_NO_THROW(ft.access(ma));
    // ...one past it would alias tid 0's epochs: checked fatal error.
    MemAccess bad = ma;
    bad.tid = Epoch::kMaxThreads;
    EXPECT_THROW(ft.access(bad), std::runtime_error);
    EXPECT_THROW(ft.acquire(Epoch::kMaxThreads + 5, 0x9000),
                 std::runtime_error);
    EXPECT_THROW(ft.fork(0, Epoch::kMaxThreads), std::runtime_error);
}

} // namespace
