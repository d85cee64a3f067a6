#ifndef STEDB_STORE_MODEL_CODEC_H_
#define STEDB_STORE_MODEL_CODEC_H_

#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/store/format.h"
#include "src/store/stored_model.h"

namespace stedb::store {

/// Method-agnostic snapshot container (format version 2).
///
/// Layout (all integers little-endian, doubles raw IEEE-754):
///
///   [0..8)    magic "STEDBSNP"
///   [8..12)   u32 container version (currently 2)
///   [12..16)  u32 method tag       fourcc of the codec that wrote the file
///   [16..20)  u32 codec version    method-specific payload version
///   [20..24)  u32 section count
///   [24..32)  u64 embedding dimension
///   [32..40)  i64 embedded relation (-1 when not applicable)
///   sections, each:
///     u32 tag          fourcc section name
///     u32 crc32        of the payload bytes
///     u64 payload_size
///     payload          (payload_size bytes)
///     zero padding to the next 8-byte file offset
///
/// The 40-byte header and 16-byte section headers keep every payload on an
/// 8-byte file offset, so a reader may mmap the file and point at double
/// payloads in place. Which sections appear (beyond the mandatory 'PHI ')
/// and what their payloads mean is the writing codec's business; the
/// container layer verifies structure and CRCs for *all* of them, so a
/// reader that only understands the standard sections still proves the
/// whole file intact.
///
/// Standard sections every codec participates in:
///  * 'PHI ' (mandatory) — the serving payload: u64 #facts, then per fact
///    (i64 fact_id, dim doubles), strictly ascending by fact id. This is
///    what MmapSnapshot / api::ServingSession read, which is why *any*
///    method's store directory can be served without knowing its codec.
///  * 'PSI ' (optional)  — u64 #matrices, then per matrix dim*dim doubles
///    (row-major). FoRWaRD's learned inner-product matrices; exposed
///    zero-copy by MmapSnapshot for a future serving-side φᵀψφ scorer.
///
/// Format version 1 (PR 3's FoRWaRD-only layout) is not readable by this
/// parser: it predates the method tag, and silently assuming FoRWaRD would
/// defeat the tag's purpose. Opening a v1 file yields a clear Status error
/// telling the operator to re-create the store, not a CRC failure.

constexpr uint32_t kSnapshotContainerVersion = 2;
constexpr size_t kSnapshotHeaderSize = 40;

constexpr uint32_t FourCc(char a, char b, char c, char d) {
  return static_cast<uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(d)) << 24;
}

constexpr uint32_t kPhiSectionTag = FourCc('P', 'H', 'I', ' ');
constexpr uint32_t kPsiSectionTag = FourCc('P', 'S', 'I', ' ');
constexpr uint32_t kMetaSectionTag = FourCc('M', 'E', 'T', 'A');
/// Optional persisted ANN index (src/ann/hnsw.h payload), written by the
/// store layer behind StoreOptions::build_ann_index — codecs neither
/// write nor read it, which is what keeps it method-agnostic.
constexpr uint32_t kAnnSectionTag = FourCc('A', 'N', 'N', ' ');

/// Renders a fourcc tag as printable text ("FWD ") for error messages.
std::string FourCcToString(uint32_t tag);

struct SnapshotHeader {
  uint32_t method_tag = 0;
  uint32_t codec_version = 0;
  uint32_t section_count = 0;
  uint64_t dim = 0;
  int64_t relation = -1;
};

/// One CRC-verified section of a parsed container; `data` points into the
/// caller's buffer (or mapping) and stays valid as long as it does.
struct SnapshotSection {
  uint32_t tag = 0;
  const char* data = nullptr;
  size_t size = 0;

  ByteReader reader() const { return ByteReader(data, size); }
};

struct ParsedSnapshot {
  SnapshotHeader header;
  std::vector<SnapshotSection> sections;

  /// First section with `tag`, or nullptr.
  const SnapshotSection* Find(uint32_t tag) const;
};

/// Verifies magic, container version, header sanity and every section's
/// CRC. Returns views into `data` — zero-copy, usable over an mmap.
/// Old (v1) and future (>2) format versions fail with a Status that names
/// the version mismatch, never a checksum error. `verify_crcs = false`
/// skips the CRCs only, for bytes the caller has just encoded itself.
Result<ParsedSnapshot> ParseSnapshotContainer(const char* data, size_t size,
                                              bool verify_crcs = true);

/// Reads a snapshot file section by section instead of whole: Open()
/// reads the header and the section table, seeking past every payload
/// (the structural checks of ParseSnapshotContainer, without the CRCs);
/// then only the payloads asked for are read, each checked against its
/// CRC. Compact reads the index and the PHI records of the snapshot it
/// replaces this way, so the old file never sits in memory beside the
/// new one.
class SnapshotFileReader {
 public:
  /// IOError when `path` cannot be read, InvalidArgument when its header
  /// or section table is malformed.
  static Result<SnapshotFileReader> Open(const std::string& path);

  const SnapshotHeader& header() const { return header_; }

  /// The payload of the first section tagged `tag`, CRC-checked, as
  /// 8-byte words — so it sits 8-aligned, as ann::HnswView::Open needs —
  /// with its byte length in `*size`. NotFound when there is none.
  Status ReadSection(uint32_t tag, std::vector<uint64_t>* words,
                     size_t* size);

  /// Streams the 'PHI ' records — PhiRecordBytes(dim) each, 8-aligned —
  /// to `fn(records, count)` in chunks of at most `chunk_records`, then
  /// checks the section's CRC. `fn` sees the bytes before the CRC does:
  /// act on what it gathered only when this returns OK. A non-OK status
  /// from `fn` stops the stream and is returned.
  Status StreamPhiRecords(
      size_t chunk_records,
      const std::function<Status(const char* records, size_t count)>& fn);

 private:
  struct Entry {
    uint32_t tag = 0;
    uint32_t crc = 0;
    uint64_t offset = 0;  ///< payload's file offset
    uint64_t size = 0;
  };
  const Entry* Find(uint32_t tag) const;
  /// Reads `n` bytes at the file's current position; IOError when short.
  Status Read(char* out, size_t n);

  std::string path_;
  std::ifstream in_;
  SnapshotHeader header_;
  std::vector<Entry> sections_;
};

/// Serializes a v2 container: header up front, AddSection per section,
/// Finish() patches the section count and returns the bytes.
class SnapshotBuilder {
 public:
  SnapshotBuilder(uint32_t method_tag, uint32_t codec_version, size_t dim,
                  db::RelationId relation);

  void AddSection(uint32_t tag, const std::string& payload);
  std::string Finish() &&;

 private:
  std::string out_;
  uint32_t section_count_ = 0;
};

/// Appends one section to an already-Finish()ed container in place (same
/// bytes AddSection would have produced) and patches the header's section
/// count. This is how the store layer adds the 'ANN ' index section on
/// top of whatever the method's codec encoded, without codecs having to
/// know about it. InvalidArgument when `container` is not a v2 container.
Status AppendSnapshotSection(std::string* container, uint32_t tag,
                             const std::string& payload);

/// Byte size of one 'PHI ' record: the i64 fact id, then dim doubles.
constexpr size_t PhiRecordBytes(size_t dim) { return 8 + 8 * dim; }

/// Encodes the standard 'PHI ' payload from a model (ascending fact id).
std::string EncodePhiPayload(const StoredModel& model);

/// Decodes a standard 'PHI ' payload into `into` via set_phi. Validates
/// the record count against the payload size and the strict fact-id
/// ordering.
Status DecodePhiPayload(const SnapshotSection& section, size_t dim,
                        StoredModel* into);

// ---- Codecs --------------------------------------------------------------

/// Converts between a method's in-memory model (behind StoredModel) and
/// its snapshot bytes. There is one codec per embedding method; its
/// `method_tag()` is persisted in every snapshot header, so
/// EmbeddingStore::Open can resolve the right codec from the file alone.
class ModelCodec {
 public:
  virtual ~ModelCodec() = default;

  /// The name of the method this codec persists ("forward", "node2vec").
  virtual std::string method() const = 0;
  /// The fourcc written to (and matched against) the snapshot header.
  virtual uint32_t method_tag() const = 0;
  /// Version of the codec's method-specific payload.
  virtual uint32_t codec_version() const = 0;

  /// Full snapshot bytes for `model`. Deterministic: equal models produce
  /// byte-identical buffers. InvalidArgument when `model` is not the
  /// concrete StoredModel type this codec owns.
  virtual Result<std::string> Encode(const StoredModel& model) const = 0;

  /// Rebuilds the model from a parsed container whose method tag matched
  /// this codec.
  virtual Result<std::unique_ptr<StoredModel>> Decode(
      const ParsedSnapshot& snapshot) const = 0;
};

/// The codec for a snapshot method tag: FoRWaRD's ('FWD ') or Node2Vec's
/// ('N2V '). NotFound, naming the tag and both methods, for any other.
/// The codecs are static; the pointer is valid for the whole process.
Result<const ModelCodec*> CodecByTag(uint32_t method_tag);

}  // namespace stedb::store

#endif  // STEDB_STORE_MODEL_CODEC_H_
