#include "src/store/model_codec.h"

#include <algorithm>
#include <cctype>
#include <utility>

namespace stedb::store {
namespace {

constexpr char kMagic[8] = {'S', 'T', 'E', 'D', 'B', 'S', 'N', 'P'};

/// Generous structural ceiling: a corrupted section count must not turn
/// into an unbounded parse loop before any size check fires.
constexpr uint32_t kMaxSections = 1 << 10;

/// The 40-byte container header: magic, version, method tag, codec
/// version, section count, dimension and relation, with the sanity
/// checks every reader applies.
Result<SnapshotHeader> ParseHeader(ByteReader& in) {
  if (in.remaining() < sizeof(kMagic) ||
      std::memcmp(in.cursor(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("snapshot: bad magic");
  }
  in.Skip(sizeof(kMagic));
  uint32_t version = 0;
  if (!in.ReadU32(&version)) {
    return Status::InvalidArgument("snapshot: truncated header");
  }
  if (version != kSnapshotContainerVersion) {
    // A precise, actionable error — version skew must never surface as a
    // checksum failure.
    if (version < kSnapshotContainerVersion) {
      return Status::InvalidArgument(
          "snapshot: format version " + std::to_string(version) +
          " was written by an older binary and predates the method "
          "tag; re-create the store (this binary reads version " +
          std::to_string(kSnapshotContainerVersion) + ")");
    }
    return Status::InvalidArgument(
        "snapshot: format version " + std::to_string(version) +
        " was written by a newer binary (this binary reads version " +
        std::to_string(kSnapshotContainerVersion) + "); upgrade to open it");
  }

  SnapshotHeader header;
  int64_t relation = -1;
  if (!in.ReadU32(&header.method_tag) || !in.ReadU32(&header.codec_version) ||
      !in.ReadU32(&header.section_count) || !in.ReadU64(&header.dim) ||
      !in.ReadI64(&relation)) {
    return Status::InvalidArgument("snapshot: truncated header");
  }
  header.relation = relation;
  if (header.dim == 0 || header.dim > kMaxEmbeddingDim) {
    return Status::InvalidArgument("snapshot: implausible dimension");
  }
  if (header.section_count > kMaxSections) {
    return Status::InvalidArgument("snapshot: implausible section count");
  }
  return header;
}

Status CrcMismatch(uint32_t tag) {
  return Status::InvalidArgument("snapshot: section '" + FourCcToString(tag) +
                                 "' checksum mismatch");
}

}  // namespace

std::string FourCcToString(uint32_t tag) {
  std::string s;
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((tag >> (8 * i)) & 0xff);
    s += std::isprint(static_cast<unsigned char>(c)) ? c : '?';
  }
  return s;
}

const SnapshotSection* ParsedSnapshot::Find(uint32_t tag) const {
  for (const SnapshotSection& s : sections) {
    if (s.tag == tag) return &s;
  }
  return nullptr;
}

Result<ParsedSnapshot> ParseSnapshotContainer(const char* data, size_t size,
                                              bool verify_crcs) {
  ByteReader in(data, size);
  ParsedSnapshot snap;
  STEDB_ASSIGN_OR_RETURN(snap.header, ParseHeader(in));
  snap.sections.reserve(snap.header.section_count);
  for (uint32_t s = 0; s < snap.header.section_count; ++s) {
    uint32_t tag = 0, crc = 0;
    uint64_t payload_size = 0;
    if (!in.ReadU32(&tag) || !in.ReadU32(&crc) || !in.ReadU64(&payload_size)) {
      return Status::InvalidArgument("snapshot: truncated section header");
    }
    if (payload_size > in.remaining()) {
      return Status::InvalidArgument("snapshot: section overruns file");
    }
    const char* payload = in.cursor();
    if (verify_crcs && Crc32(payload, payload_size) != crc) {
      return CrcMismatch(tag);
    }
    in.Skip(static_cast<size_t>(payload_size));
    if (!in.SkipTo8()) {
      return Status::InvalidArgument("snapshot: missing section padding");
    }
    snap.sections.push_back(
        SnapshotSection{tag, payload, static_cast<size_t>(payload_size)});
  }
  if (in.remaining() != 0) {
    return Status::InvalidArgument("snapshot: trailing bytes after sections");
  }
  if (snap.Find(kPhiSectionTag) == nullptr) {
    return Status::InvalidArgument(
        "snapshot: missing mandatory PHI section");
  }
  return snap;
}

Result<SnapshotFileReader> SnapshotFileReader::Open(const std::string& path) {
  SnapshotFileReader reader;
  reader.path_ = path;
  reader.in_.open(path, std::ios::binary);
  if (!reader.in_) return Status::IOError("cannot read " + path);
  reader.in_.seekg(0, std::ios::end);
  const auto file_size = static_cast<uint64_t>(reader.in_.tellg());
  reader.in_.seekg(0, std::ios::beg);
  if (!reader.in_) return Status::IOError("cannot seek in " + path);

  char header[kSnapshotHeaderSize];
  if (file_size < sizeof(header)) {
    return Status::InvalidArgument("snapshot: truncated header");
  }
  STEDB_RETURN_IF_ERROR(reader.Read(header, sizeof(header)));
  ByteReader in(header, sizeof(header));
  STEDB_ASSIGN_OR_RETURN(reader.header_, ParseHeader(in));

  // The section table: each 16-byte section header, then a seek past its
  // payload and padding — the layout walk of ParseSnapshotContainer.
  uint64_t pos = sizeof(header);
  for (uint32_t s = 0; s < reader.header_.section_count; ++s) {
    char raw[16];
    if (file_size - pos < sizeof(raw)) {
      return Status::InvalidArgument("snapshot: truncated section header");
    }
    STEDB_RETURN_IF_ERROR(reader.Read(raw, sizeof(raw)));
    ByteReader entry_in(raw, sizeof(raw));
    Entry entry;
    entry_in.ReadU32(&entry.tag);
    entry_in.ReadU32(&entry.crc);
    entry_in.ReadU64(&entry.size);
    entry.offset = pos + sizeof(raw);
    if (entry.size > file_size - entry.offset) {
      return Status::InvalidArgument("snapshot: section overruns file");
    }
    pos = entry.offset + entry.size;
    if (pos % 8 != 0) {
      if (file_size - pos < 8 - pos % 8) {
        return Status::InvalidArgument("snapshot: missing section padding");
      }
      pos += 8 - pos % 8;
    }
    reader.sections_.push_back(entry);
    reader.in_.seekg(static_cast<std::streamoff>(pos), std::ios::beg);
  }
  if (pos != file_size) {
    return Status::InvalidArgument("snapshot: trailing bytes after sections");
  }
  if (reader.Find(kPhiSectionTag) == nullptr) {
    return Status::InvalidArgument(
        "snapshot: missing mandatory PHI section");
  }
  return reader;
}

const SnapshotFileReader::Entry* SnapshotFileReader::Find(uint32_t tag) const {
  for (const Entry& e : sections_) {
    if (e.tag == tag) return &e;
  }
  return nullptr;
}

Status SnapshotFileReader::Read(char* out, size_t n) {
  in_.read(out, static_cast<std::streamsize>(n));
  if (!in_ || static_cast<size_t>(in_.gcount()) != n) {
    return Status::IOError("short read from " + path_);
  }
  return Status::OK();
}

Status SnapshotFileReader::ReadSection(uint32_t tag,
                                       std::vector<uint64_t>* words,
                                       size_t* size) {
  const Entry* entry = Find(tag);
  if (entry == nullptr) {
    return Status::NotFound("snapshot: no '" + FourCcToString(tag) +
                            "' section in " + path_);
  }
  words->assign((entry->size + 7) / 8, 0);
  auto* bytes = reinterpret_cast<char*>(words->data());
  in_.seekg(static_cast<std::streamoff>(entry->offset), std::ios::beg);
  STEDB_RETURN_IF_ERROR(Read(bytes, entry->size));
  if (Crc32(bytes, entry->size) != entry->crc) return CrcMismatch(tag);
  *size = entry->size;
  return Status::OK();
}

Status SnapshotFileReader::StreamPhiRecords(
    size_t chunk_records,
    const std::function<Status(const char* records, size_t count)>& fn) {
  const Entry* entry = Find(kPhiSectionTag);
  const uint64_t record = PhiRecordBytes(header_.dim);
  char raw_count[8];
  in_.seekg(static_cast<std::streamoff>(entry->offset), std::ios::beg);
  if (entry->size < sizeof(raw_count)) {
    return Status::InvalidArgument("snapshot: PHI payload size mismatch");
  }
  STEDB_RETURN_IF_ERROR(Read(raw_count, sizeof(raw_count)));
  ByteReader count_in(raw_count, sizeof(raw_count));
  uint64_t n = 0;
  count_in.ReadU64(&n);
  const uint64_t body = entry->size - sizeof(raw_count);
  if (body % record != 0 || body / record != n) {
    return Status::InvalidArgument("snapshot: PHI payload size mismatch");
  }
  uint32_t crc = Crc32(raw_count, sizeof(raw_count));
  chunk_records = std::max<size_t>(chunk_records, 1);
  std::vector<uint64_t> chunk(
      std::min<uint64_t>(chunk_records, n) * record / 8);
  auto* bytes = reinterpret_cast<char*>(chunk.data());
  for (uint64_t done = 0; done < n;) {
    const auto count =
        static_cast<size_t>(std::min<uint64_t>(chunk_records, n - done));
    STEDB_RETURN_IF_ERROR(Read(bytes, count * record));
    crc = Crc32(bytes, count * record, crc);
    STEDB_RETURN_IF_ERROR(fn(bytes, count));
    done += count;
  }
  if (crc != entry->crc) return CrcMismatch(kPhiSectionTag);
  return Status::OK();
}

SnapshotBuilder::SnapshotBuilder(uint32_t method_tag, uint32_t codec_version,
                                 size_t dim, db::RelationId relation) {
  out_.append(kMagic, sizeof(kMagic));
  AppendU32(out_, kSnapshotContainerVersion);
  AppendU32(out_, method_tag);
  AppendU32(out_, codec_version);
  AppendU32(out_, 0);  // section count, patched by Finish()
  AppendU64(out_, dim);
  AppendI64(out_, static_cast<int64_t>(relation));
}

void SnapshotBuilder::AddSection(uint32_t tag, const std::string& payload) {
  AppendU32(out_, tag);
  AppendU32(out_, Crc32(payload.data(), payload.size()));
  AppendU64(out_, payload.size());
  out_ += payload;
  PadTo8(out_);
  ++section_count_;
}

std::string SnapshotBuilder::Finish() && {
  // Patch the section count in place (offset 20, little-endian u32).
  for (int i = 0; i < 4; ++i) {
    out_[20 + i] = static_cast<char>((section_count_ >> (8 * i)) & 0xff);
  }
  return std::move(out_);
}

Status AppendSnapshotSection(std::string* container, uint32_t tag,
                             const std::string& payload) {
  if (container->size() < kSnapshotHeaderSize ||
      std::memcmp(container->data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(
        "snapshot: cannot append a section to a non-container buffer");
  }
  // The builder keeps every section 8-aligned; a well-formed container
  // therefore ends on an 8-byte boundary and the new section header
  // lands aligned too.
  if (container->size() % 8 != 0) {
    return Status::InvalidArgument(
        "snapshot: container is not section-aligned");
  }
  AppendU32(*container, tag);
  AppendU32(*container, Crc32(payload.data(), payload.size()));
  AppendU64(*container, payload.size());
  *container += payload;
  PadTo8(*container);
  // Bump the section count in place (offset 20, little-endian u32).
  uint32_t count = 0;
  std::memcpy(&count, container->data() + 20, sizeof(count));
  ++count;
  for (int i = 0; i < 4; ++i) {
    (*container)[20 + i] = static_cast<char>((count >> (8 * i)) & 0xff);
  }
  return Status::OK();
}

std::string EncodePhiPayload(const StoredModel& model) {
  std::string phi;
  AppendU64(phi, model.num_embedded());
  model.ForEachPhi([&phi](db::FactId f, const la::Vector& v) {
    AppendI64(phi, f);
    for (double x : v) AppendDouble(phi, x);
  });
  return phi;
}

Status DecodePhiPayload(const SnapshotSection& section, size_t dim,
                        StoredModel* into) {
  ByteReader in = section.reader();
  uint64_t n = 0;
  const uint64_t record_size = 8 + static_cast<uint64_t>(dim) * 8;
  // Division-form size check: a crafted count cannot overflow the
  // multiplication into a passing comparison.
  if (!in.ReadU64(&n) || in.remaining() % record_size != 0 ||
      in.remaining() / record_size != n) {
    return Status::InvalidArgument("snapshot: PHI payload size mismatch");
  }
  db::FactId prev = db::kNoFact;
  bool have_prev = false;
  for (uint64_t i = 0; i < n; ++i) {
    int64_t fact = -1;
    in.ReadI64(&fact);  // cannot fail: size checked above
    if (have_prev && static_cast<db::FactId>(fact) <= prev) {
      return Status::InvalidArgument(
          "snapshot: PHI records not strictly ascending by fact id");
    }
    prev = static_cast<db::FactId>(fact);
    have_prev = true;
    la::Vector vec(dim);
    for (double& x : vec) in.ReadDouble(&x);
    into->set_phi(static_cast<db::FactId>(fact), std::move(vec));
  }
  return Status::OK();
}

}  // namespace stedb::store
