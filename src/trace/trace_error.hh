/**
 * @file
 * Error and loss reporting for fault-tolerant trace ingestion.
 *
 * Production traces arrive damaged: aux-buffer segments dropped under
 * load, files clipped at collection shutdown, bytes flipped in
 * transit. The reader's contract is that damage inside the file
 * degrades the analysis (recorded in SegmentLoss) while only damage
 * that makes the file uninterpretable — unreadable path, foreign
 * magic, unsupported version, no readable meta segment — is an error
 * (TraceError). Callers get both through Result<LoadedTrace,
 * TraceError> instead of a fatal abort.
 */

#ifndef PRORACE_TRACE_TRACE_ERROR_HH
#define PRORACE_TRACE_TRACE_ERROR_HH

#include <cstdint>
#include <sstream>
#include <string>

namespace prorace::trace {

/** Why a trace could not be ingested at all. */
enum class TraceErrorKind : uint8_t {
    kIo,          ///< file unreadable (open/short read)
    kBadMagic,    ///< not a ProRace trace file
    kBadVersion,  ///< produced by an incompatible format version
    kCorruptMeta, ///< the meta segment is damaged or missing
};

/** A trace that could not be ingested, with enough context to act on. */
struct TraceError {
    TraceErrorKind kind = TraceErrorKind::kIo;
    std::string message;
    uint64_t offset = 0;  ///< byte offset the failure was detected at
    std::string path;     ///< file path or "<memory>" for buffers

    /** One-line human-readable rendering. */
    std::string
    format() const
    {
        std::ostringstream os;
        os << path << ": " << message << " (at byte " << offset << ")";
        return os.str();
    }
};

/**
 * What the reader had to discard to produce a usable trace. All-zero
 * (hasLoss() false) for an intact file; the analysis layer surfaces
 * these so degraded results are never silently mistaken for complete
 * ones.
 */
struct SegmentLoss {
    uint64_t segments_seen = 0;     ///< segment headers parsed
    uint64_t segments_dropped = 0;  ///< segments discarded (CRC/parse)
    uint64_t bytes_skipped = 0;     ///< bytes scanned over to resync
    uint64_t pebs_dropped = 0;      ///< PEBS records lost vs meta count
    uint64_t sync_dropped = 0;      ///< sync records lost vs meta count
    uint64_t pt_streams_dropped = 0; ///< per-core PT streams lost
    uint64_t pt_streams_damaged = 0; ///< PT streams salvaged despite CRC
    bool truncated = false;          ///< file ended before the end marker

    bool
    hasLoss() const
    {
        return segments_dropped || bytes_skipped || pebs_dropped ||
               sync_dropped || pt_streams_dropped || pt_streams_damaged ||
               truncated;
    }

    /** Sum @p o into this rollup (truncated: either stream was). */
    void
    merge(const SegmentLoss &o)
    {
        segments_seen += o.segments_seen;
        segments_dropped += o.segments_dropped;
        bytes_skipped += o.bytes_skipped;
        pebs_dropped += o.pebs_dropped;
        sync_dropped += o.sync_dropped;
        pt_streams_dropped += o.pt_streams_dropped;
        pt_streams_damaged += o.pt_streams_damaged;
        truncated = truncated || o.truncated;
    }

    /** One-line summary for logs and CLI output. */
    std::string
    summary() const
    {
        std::ostringstream os;
        os << segments_dropped << "/" << segments_seen
           << " segments dropped, " << bytes_skipped << " bytes skipped, "
           << pebs_dropped << " samples lost, " << sync_dropped
           << " sync events lost, " << pt_streams_dropped
           << " PT streams lost, " << pt_streams_damaged
           << " PT streams damaged"
           << (truncated ? ", file truncated" : "");
        return os.str();
    }
};

} // namespace prorace::trace

#endif // PRORACE_TRACE_TRACE_ERROR_HH
