#include "src/store/model_codec.h"

#include <cctype>
#include <utility>

namespace stedb::store {
namespace {

constexpr char kMagic[8] = {'S', 'T', 'E', 'D', 'B', 'S', 'N', 'P'};

/// Generous structural ceiling: a corrupted section count must not turn
/// into an unbounded parse loop before any size check fires.
constexpr uint32_t kMaxSections = 1 << 10;

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

Result<ParsedSnapshot> ParseSnapshotContainer(const char* data, size_t size) {
  ByteReader in(data, size);
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

  ParsedSnapshot snap;
  int64_t relation = -1;
  if (!in.ReadU32(&snap.header.method_tag) ||
      !in.ReadU32(&snap.header.codec_version) ||
      !in.ReadU32(&snap.header.section_count) ||
      !in.ReadU64(&snap.header.dim) || !in.ReadI64(&relation)) {
    return Status::InvalidArgument("snapshot: truncated header");
  }
  snap.header.relation = relation;
  if (snap.header.dim == 0 || snap.header.dim > kMaxEmbeddingDim) {
    return Status::InvalidArgument("snapshot: implausible dimension");
  }
  if (snap.header.section_count > kMaxSections) {
    return Status::InvalidArgument("snapshot: implausible section count");
  }

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
    if (Crc32(payload, payload_size) != crc) {
      return Status::InvalidArgument("snapshot: section '" +
                                     FourCcToString(tag) +
                                     "' checksum mismatch");
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
