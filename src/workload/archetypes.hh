/**
 * @file
 * Concurrency archetypes built on the rich sync vocabulary: a lock-free
 * MPMC ticket queue (acquire/release atomics), an RCU-style
 * reader/writer table (rwlock, read-shared clocks at scale), and an
 * event-loop server (semaphore job signaling + spinlock queue) under
 * simulated load, and a pointer-dispatch server (runtime handler table,
 * private heap buffers) exercising the points-to consumers. All are
 * race-free by construction except the "-racy" MPMC variant, whose
 * broken publication carries exact ground truth.
 */

#ifndef PRORACE_WORKLOAD_ARCHETYPES_HH
#define PRORACE_WORKLOAD_ARCHETYPES_HH

#include <string>
#include <vector>

#include "workload/workload.hh"

namespace prorace::workload {

/**
 * Lock-free multi-producer/multi-consumer queue: threads/2 producers
 * claim tickets with an acq_rel fetch-add on head, plain-store the slot,
 * and raise the slot's flag with a store-release; threads/2 consumers
 * claim tickets from tail and spin on a load-acquire of the flag before
 * plain-loading the slot. Producer and consumer roles are disjoint so
 * the per-cell flag is the ONLY producer->consumer edge. With
 * @p racy_publish the flag traffic is plain loads/stores — the classic
 * broken publication, racy in every schedule, reported with exact truth
 * (slot store vs slot load, flag store vs flag load).
 * @p items is per producer; @p threads must be even.
 */
Workload makeMpmcQueue(unsigned threads, uint32_t items,
                       bool racy_publish, double scale = 1.0);

/**
 * RCU-style shared table: thread 0 updates cells and an epoch counter
 * under the write lock; every other thread sweeps the table under the
 * read lock. Long concurrent-reader phases keep granules in the
 * read-shared representation, punctuated by writer joins of the
 * accumulated read clock.
 */
Workload makeRcuTable(unsigned threads, uint32_t items,
                      double scale = 1.0);

/**
 * Event-loop server: main dispatches jobs by pushing onto a
 * spinlock-protected ring and posting a counting semaphore; workers
 * wait on the semaphore, pop under the spinlock, and process. Jobs
 * flow dispatcher -> worker entirely through semaphore + spinlock
 * edges.
 */
Workload makeEventLoop(unsigned threads, uint32_t items,
                       double scale = 1.0);

/**
 * Pointer-dispatch server: main installs a handler table at runtime
 * (movLabel + store) and each worker calls through it indirectly.
 * Handlers are read-only on shared state; every worker fills and reads
 * a private malloc'd buffer that never escapes its thread. Exercises
 * points-to constant recovery (coeff reached through the coeffp
 * second-level pointer) and the address-taken lint (the two callind
 * sites reach only handler-table targets). Race-free by construction.
 */
Workload makePtrDispatch(unsigned threads, uint32_t items,
                         double scale = 1.0);

/** Registry names of all archetypes. */
std::vector<std::string> archetypeNames();

/** Build an archetype by registry name (nullopt handled by caller). */
bool isArchetypeName(const std::string &name);

/** Build an archetype by registry name; name must be from the list. */
Workload makeArchetype(const std::string &name, double scale = 1.0);

} // namespace prorace::workload

#endif // PRORACE_WORKLOAD_ARCHETYPES_HH
