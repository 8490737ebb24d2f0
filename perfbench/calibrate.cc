/**
 * @file
 * The calibration kernel: a fixed run of a tiny register-machine
 * interpreter whose loads and stores land at random in a 16 MB arena.
 * It is independent of the analyzer but has the same make-up as its
 * replay loop (dispatch on random opcodes, arithmetic, scattered memory
 * traffic), so its time tracks how fast the host runs such code at the
 * moment. A shared host's speed swings by a factor of two within
 * minutes, as neighbours contend for its cores, caches and memory; the
 * benchmark uses the kernel to report every timing at one reference
 * speed (see atReferenceSpeed()).
 */

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench.hh"
#include "support/timer.hh"

namespace perfbench {

namespace {

/**
 * Arena words: 16 MB, far larger than a core's L2, allocated (and
 * zeroed, so resident) once.
 */
constexpr uint64_t kArenaWords = uint64_t{1} << 21;
/** Interpreted instructions per slice (about 10 ms on the reference host). */
constexpr uint32_t kSliceSteps = 4000000;

struct Op {
    uint8_t kind, a, b, c;
};

uint64_t
xorshift(uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

} // namespace

double
calibrationResidentMb()
{
    return static_cast<double>(kArenaWords * sizeof(uint64_t)) /
        (1024.0 * 1024.0);
}

double
calibrationSlice()
{
    static std::vector<uint64_t> arena(kArenaWords);
    static const std::vector<Op> program = [] {
        std::vector<Op> p(4096);
        uint64_t x = 0x2545f4914f6cdd1dull;
        for (Op &op : p) {
            const uint64_t r = xorshift(x);
            op = {static_cast<uint8_t>(r % 7),
                  static_cast<uint8_t>((r >> 8) & 15),
                  static_cast<uint8_t>((r >> 12) & 15),
                  static_cast<uint8_t>((r >> 16) & 15)};
        }
        return p;
    }();

    // Relaxed atomics (plain moves on x86): pairedSlice() runs two
    // slices on the arena at once.
    const auto word = [](uint64_t i) {
        return std::atomic_ref<uint64_t>(arena[i]);
    };
    Stopwatch timer;
    uint64_t reg[16];
    for (uint64_t i = 0; i < 16; ++i)
        reg[i] = 0x9e3779b97f4a7c15ull * (i + 1);
    const uint64_t mask = kArenaWords - 1;
    size_t pc = 0;
    for (uint32_t step = 0; step < kSliceSteps; ++step) {
        const Op op = program[pc];
        pc = (pc + 1) & (program.size() - 1);
        uint64_t &d = reg[op.a];
        const uint64_t b = reg[op.b], c = reg[op.c];
        switch (op.kind) {
          case 0: d = b + c; break;
          case 1: d = b ^ (c >> 3); break;
          case 2: d = b * 0x100000001b3ull + op.c; break;
          case 3: d = word((b * 0x9e3779b97f4a7c15ull >> 20) & mask).load(
                      std::memory_order_relaxed);
            break;
          case 4: word((b * 0x9e3779b97f4a7c15ull >> 20) & mask).store(
                      d, std::memory_order_relaxed);
            break;
          case 5:
            if (d & 1)
                pc = (b >> 7) & (program.size() - 1);
            break;
          default: d = (b << (op.c & 31)) | (c >> 7); break;
        }
    }
    thread_local uint64_t sink = 0;
    sink += reg[3] + reg[7];
    return timer.seconds();
}

double
pairedSlice()
{
    double other = 0;
    std::thread helper([&other] { other = calibrationSlice(); });
    const double mine = calibrationSlice();
    helper.join();
    return 0.5 * (mine + other);
}

} // namespace perfbench
