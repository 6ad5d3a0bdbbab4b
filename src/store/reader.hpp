// dgtrace reader: validated random access to packed traces.
//
// The reader opens a ByteSource (mmap when the platform allows it, with
// a buffered-stream fallback, or an in-memory buffer in tests), validates
// the header/trailer/footer framing once, and then serves:
//   - info()      -- geometry and layout, O(1);
//   - readAll()   -- full decode to an in-memory trace::Trace;
//   - verify()    -- decode + CRC-check every region, counting records;
//   - decodeChunk -- one chunk into a reusable workspace, which is what
//     PackedConditionSource uses to feed ConditionTimeline cursors with
//     memory bounded by a single chunk.
// On an mmap source every chunk payload is a zero-copy view of the file;
// only the decoded records are materialized.
//
// All failures are StoreError with a distinct kind (see format.hpp); the
// reader never returns partially-decoded data.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "store/format.hpp"
#include "telemetry/metrics.hpp"
#include "trace/condition_timeline.hpp"
#include "trace/stream.hpp"
#include "trace/trace.hpp"

namespace dg::store {

/// Read access to a contiguous byte container. view() returns a span of
/// [offset, offset+length); mmap and buffer sources are zero-copy, the
/// stream fallback copies into an internal scratch buffer (the returned
/// span dies at the next view() call).
class ByteSource {
 public:
  virtual ~ByteSource() = default;
  virtual std::uint64_t size() const = 0;
  virtual std::span<const std::byte> view(std::uint64_t offset,
                                          std::size_t length) = 0;
};

/// Memory-mapped file (POSIX). Throws StoreError{Io} if the platform or
/// file refuses the mapping.
std::unique_ptr<ByteSource> openMmapSource(const std::string& path);

/// Buffered ifstream fallback; works everywhere a file does.
std::unique_ptr<ByteSource> openStreamSource(const std::string& path);

/// Owning in-memory source, for tests and corruption fixtures.
std::unique_ptr<ByteSource> makeBufferSource(std::vector<std::byte> bytes);

/// mmap with stream fallback; StoreError{Io} if the file cannot be read.
std::unique_ptr<ByteSource> openByteSource(const std::string& path);

struct PackedTraceInfo {
  std::uint32_t version = 0;
  util::SimTime intervalLength = 0;
  std::uint64_t intervalCount = 0;
  std::uint32_t edgeCount = 0;
  std::uint32_t chunkIntervals = 0;
  std::uint64_t chunkCount = 0;
  std::uint64_t recordCount = 0;  ///< total deviation records (from index)
  std::uint64_t fileBytes = 0;
};

class PackedTraceReader {
 public:
  /// Validates header, trailer, footer index and baseline block (each
  /// CRC-checked) before returning. `metrics`, when non-null, receives
  /// dg_store_bytes_read_total, dg_store_chunks_decoded_total,
  /// dg_store_chunks_verified_total and
  /// dg_store_checksum_failures_total.
  explicit PackedTraceReader(std::unique_ptr<ByteSource> source,
                             telemetry::MetricsRegistry* metrics = nullptr);

  /// Opens `path` via openByteSource.
  static PackedTraceReader open(const std::string& path,
                                telemetry::MetricsRegistry* metrics = nullptr);

  const PackedTraceInfo& info() const { return info_; }
  std::span<const trace::LinkConditions> baseline() const {
    return baseline_;
  }

  /// Decoded records of one chunk: edge-sorted deviations concatenated in
  /// interval order, plus a per-interval prefix index (local to the
  /// chunk: `offsets[i]..offsets[i+1]` are the deviations of interval
  /// `firstInterval + i`).
  struct ChunkData {
    std::uint64_t firstInterval = 0;
    std::size_t intervalsInChunk = 0;
    std::vector<trace::Deviation> records;
    std::vector<std::uint32_t> offsets;  ///< size intervalsInChunk + 1
    std::vector<double> dictionary;      ///< decode workspace
  };

  std::uint64_t chunkForInterval(std::uint64_t interval) const {
    return interval / info_.chunkIntervals;
  }

  /// Geometry of one chunk, O(1) from the footer index (no decode).
  struct ChunkGeometry {
    std::uint64_t firstInterval = 0;
    std::uint32_t intervals = 0;     ///< intervals covered (tail may be short)
    std::uint32_t recordCount = 0;   ///< deviation records in the chunk
    std::uint32_t payloadBytes = 0;  ///< compressed payload size
    std::uint64_t offset = 0;        ///< file offset of the chunk frame
  };
  ChunkGeometry chunkGeometry(std::uint64_t index) const;

  /// Container identity for cache keying (the decision-memo sidecar):
  /// CRC-32s folded over the header bytes, the baseline frame's stored
  /// CRC, and every chunk's stored CRC / payload size / record count,
  /// packed into 64 bits. Reads only O(chunkCount) frame headers -- no
  /// payload decode -- yet changes whenever any payload byte changes,
  /// because each frame's CRC covers its payload. Not an integrity check
  /// (decode paths verify CRCs themselves); two files with equal
  /// fingerprints are the same recorded trace for caching purposes.
  std::uint64_t contentFingerprint();

  /// Decodes chunk `index` into `out` (reusing its capacity). CRC is
  /// verified before decode.
  void decodeChunk(std::uint64_t index, ChunkData& out);

  /// Full decode to an in-memory Trace (bit-identical to what was
  /// streamed into the writer).
  trace::Trace readAll();

  struct VerifyReport {
    std::uint64_t chunksVerified = 0;
    std::uint64_t recordsDecoded = 0;
    std::uint64_t bytesRead = 0;
  };

  /// Decodes and CRC-checks every chunk; throws the first StoreError
  /// found. A clean return means every byte of the file was validated.
  VerifyReport verify();

 private:
  std::span<const std::byte> viewChecked(std::uint64_t offset,
                                         std::uint64_t length,
                                         const char* what);
  /// Reads a payloadBytes/CRC-framed region starting at `offset`,
  /// verifying the checksum.
  std::span<const std::byte> readFramed(std::uint64_t offset,
                                        const char* what,
                                        std::uint32_t* payloadBytes = nullptr);
  void parseContainer();
  void parseBaseline(std::uint64_t offset);

  std::unique_ptr<ByteSource> source_;
  telemetry::Counter* bytesCounter_ = nullptr;
  telemetry::Counter* chunksDecodedCounter_ = nullptr;
  telemetry::Counter* chunksVerifiedCounter_ = nullptr;
  telemetry::Counter* checksumFailuresCounter_ = nullptr;
  PackedTraceInfo info_;
  std::uint64_t dataOffset_ = 0;  ///< first chunk's file offset
  std::vector<trace::LinkConditions> baseline_;
  struct IndexEntry {
    std::uint64_t offset = 0;
    std::uint32_t payloadBytes = 0;
    std::uint32_t recordCount = 0;
  };
  std::vector<IndexEntry> index_;
};

/// ConditionSource over a packed trace: feeds ConditionTimeline cursors
/// chunk by chunk, so a cursor pass over a packed trace never holds more
/// than one decoded chunk. The reader must outlive the source.
class PackedConditionSource final : public trace::ConditionSource {
 public:
  explicit PackedConditionSource(PackedTraceReader& reader);

  std::size_t intervalCount() const override;
  std::size_t edgeCount() const override;
  std::span<const trace::LinkConditions> baseline() const override;
  std::span<const std::pair<graph::EdgeId, trace::LinkConditions>>
  deviationsAt(std::size_t interval) override;

 private:
  PackedTraceReader* reader_;
  std::uint64_t chunkIndex_;  ///< currently decoded chunk (or none)
  bool loaded_ = false;
  PackedTraceReader::ChunkData chunk_;
};

/// True if `path` starts with the dgtrace magic (missing/short files are
/// simply "not packed"; open errors surface later from the real reader).
bool isPackedTraceFile(const std::string& path);

/// Loads a packed trace file to an in-memory Trace.
trace::Trace loadPackedTrace(const std::string& path,
                             telemetry::MetricsRegistry* metrics = nullptr);

/// Loads a trace in either format, sniffing the magic: packed dgtrace
/// via the store reader, anything else via the text parser.
trace::Trace loadAnyTrace(const std::string& path,
                          telemetry::MetricsRegistry* metrics = nullptr);

}  // namespace dg::store
