/**
 * @file
 * The former name of the offline analyzer, kept because the benchmark
 * program under perfbench/ still spells it; OfflineAnalyzer runs the
 * parallel pipeline whenever OfflineOptions::num_threads > 0.
 */

#ifndef PRORACE_CORE_PARALLEL_OFFLINE_HH
#define PRORACE_CORE_PARALLEL_OFFLINE_HH

#include "core/offline.hh"

namespace prorace::core {

using ParallelOfflineAnalyzer = OfflineAnalyzer;

} // namespace prorace::core

#endif // PRORACE_CORE_PARALLEL_OFFLINE_HH
