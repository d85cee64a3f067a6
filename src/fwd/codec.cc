#include "src/fwd/codec.h"

#include <algorithm>
#include <limits>
#include <vector>

namespace stedb::fwd {
namespace {

/// Hard ceilings shared with the PR 3 parser: a corrupted count field must
/// not turn into a multi-gigabyte allocation before any structural check
/// fires.
constexpr uint64_t kMaxSchemes = 1 << 20;
constexpr uint64_t kMaxSteps = 1 << 10;

std::string EncodeMetaPayload(const ForwardModel& model) {
  std::string meta;
  store::AppendI64(meta, model.relation());
  store::AppendU64(meta, model.dim());
  store::AppendU64(meta, model.schemes().size());
  for (const WalkScheme& s : model.schemes()) {
    store::AppendI64(meta, s.start);
    store::AppendU64(meta, s.steps.size());
    for (const WalkStep& st : s.steps) {
      store::AppendI64(meta, st.fk);
      store::AppendU64(meta, st.forward ? 1 : 0);
    }
  }
  store::AppendU64(meta, model.targets().size());
  for (const SchemeTarget& t : model.targets()) {
    store::AppendI64(meta, t.scheme_index);
    store::AppendI64(meta, t.attr);
  }
  return meta;
}

/// The standard 'PHI ' payload straight off a ForwardModel — same bytes
/// as store::EncodePhiPayload over a wrapped model, without paying a
/// full-model copy per snapshot write (Create and every Compact hit
/// this).
std::string EncodePhiFromForward(const ForwardModel& model) {
  std::string phi;
  store::AppendU64(phi, model.num_embedded());
  for (db::FactId f : model.SortedFacts()) {
    store::AppendI64(phi, f);
    for (double x : model.phi(f)) store::AppendDouble(phi, x);
  }
  return phi;
}

std::string EncodePsiPayload(const ForwardModel& model) {
  std::string psi;
  store::AppendU64(psi, model.targets().size());
  for (size_t t = 0; t < model.targets().size(); ++t) {
    const la::Matrix& m = model.psi(t);
    for (size_t i = 0; i < m.rows(); ++i) {
      for (size_t j = 0; j < m.cols(); ++j) store::AppendDouble(psi, m(i, j));
    }
  }
  return psi;
}

/// Parses META into an empty ForwardModel shell (schemes + targets, no
/// vectors yet), validating against the container header's dim/relation.
Result<ForwardModel> DecodeMeta(const store::SnapshotSection& section,
                                const store::SnapshotHeader& header) {
  store::ByteReader meta = section.reader();
  int64_t relation = -1;
  uint64_t dim = 0, n_schemes = 0;
  if (!meta.ReadI64(&relation) || !meta.ReadU64(&dim) ||
      !meta.ReadU64(&n_schemes)) {
    return Status::InvalidArgument("snapshot: truncated META");
  }
  if (dim == 0 || dim > store::kMaxEmbeddingDim) {
    return Status::InvalidArgument("snapshot: implausible dimension");
  }
  if (dim != header.dim || relation != header.relation) {
    return Status::InvalidArgument(
        "snapshot: META disagrees with container header");
  }
  if (n_schemes > kMaxSchemes || n_schemes * 16 > meta.remaining()) {
    return Status::InvalidArgument("snapshot: implausible scheme count");
  }
  std::vector<WalkScheme> schemes(static_cast<size_t>(n_schemes));
  for (WalkScheme& s : schemes) {
    int64_t start = 0;
    uint64_t nsteps = 0;
    if (!meta.ReadI64(&start) || !meta.ReadU64(&nsteps)) {
      return Status::InvalidArgument("snapshot: truncated scheme");
    }
    if (nsteps > kMaxSteps || nsteps * 16 > meta.remaining()) {
      return Status::InvalidArgument("snapshot: implausible step count");
    }
    s.start = static_cast<db::RelationId>(start);
    s.steps.resize(static_cast<size_t>(nsteps));
    for (WalkStep& st : s.steps) {
      int64_t fk = 0;
      uint64_t forward = 0;
      if (!meta.ReadI64(&fk) || !meta.ReadU64(&forward) || forward > 1) {
        return Status::InvalidArgument("snapshot: bad scheme step");
      }
      st.fk = static_cast<db::FkId>(fk);
      st.forward = forward == 1;
    }
  }
  uint64_t n_targets = 0;
  if (!meta.ReadU64(&n_targets) || n_targets > kMaxSchemes ||
      n_targets * 16 > meta.remaining()) {
    return Status::InvalidArgument("snapshot: implausible target count");
  }
  std::vector<SchemeTarget> targets(static_cast<size_t>(n_targets));
  for (SchemeTarget& t : targets) {
    int64_t scheme_index = 0, attr = 0;
    if (!meta.ReadI64(&scheme_index) || !meta.ReadI64(&attr)) {
      return Status::InvalidArgument("snapshot: truncated target");
    }
    if (scheme_index < 0 ||
        static_cast<uint64_t>(scheme_index) >= n_schemes) {
      return Status::OutOfRange("snapshot: target references unknown scheme");
    }
    t.scheme_index = static_cast<int>(scheme_index);
    t.attr = static_cast<db::AttrId>(attr);
  }
  if (meta.remaining() != 0) {
    return Status::InvalidArgument("snapshot: trailing bytes in META");
  }
  return ForwardModel(static_cast<db::RelationId>(relation),
                      static_cast<size_t>(dim), std::move(schemes),
                      std::move(targets));
}

Status DecodePsi(const store::SnapshotSection& section, ForwardModel* model) {
  store::ByteReader psi = section.reader();
  const uint64_t n_targets = model->targets().size();
  const uint64_t dim = model->dim();
  uint64_t psi_targets = 0;
  if (!psi.ReadU64(&psi_targets) || psi_targets != n_targets ||
      psi.remaining() != n_targets * dim * dim * 8) {
    return Status::InvalidArgument("snapshot: PSI payload size mismatch");
  }
  for (uint64_t t = 0; t < n_targets; ++t) {
    la::Matrix m(static_cast<size_t>(dim), static_cast<size_t>(dim));
    for (double& x : m.data()) psi.ReadDouble(&x);  // size checked above
    *model->mutable_psi(static_cast<size_t>(t)) = std::move(m);
  }
  return Status::OK();
}

}  // namespace

void ForwardStoredModel::ForEachPhi(
    const std::function<void(db::FactId, const la::Vector&)>& fn) const {
  for (db::FactId f : model_.SortedFacts()) fn(f, model_.phi(f));
}

const ForwardModel* AsForwardModel(const store::StoredModel& model) {
  const auto* fwd = dynamic_cast<const ForwardStoredModel*>(&model);
  return fwd == nullptr ? nullptr : &fwd->model();
}

double ModelMaxAbsDiff(const ForwardModel& a, const ForwardModel& b) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (a.relation() != b.relation() || a.dim() != b.dim() ||
      !(a.schemes() == b.schemes()) ||
      a.targets().size() != b.targets().size() ||
      a.num_embedded() != b.num_embedded()) {
    return kInf;
  }
  for (size_t t = 0; t < a.targets().size(); ++t) {
    if (a.targets()[t].scheme_index != b.targets()[t].scheme_index ||
        a.targets()[t].attr != b.targets()[t].attr) {
      return kInf;
    }
  }
  double worst = 0.0;
  for (size_t t = 0; t < a.targets().size(); ++t) {
    const la::Matrix& ma = a.psi(t);
    const la::Matrix& mb = b.psi(t);
    if (ma.rows() != mb.rows() || ma.cols() != mb.cols()) return kInf;
    for (size_t i = 0; i < ma.size(); ++i) {
      worst =
          std::max(worst, store::AbsDiffOrInf(ma.data()[i], mb.data()[i]));
    }
  }
  for (const auto& [f, va] : a.all_phi()) {
    if (!b.HasEmbedding(f)) return kInf;
    const la::Vector& vb = b.phi(f);
    if (va.size() != vb.size()) return kInf;
    for (size_t i = 0; i < va.size(); ++i) {
      worst = std::max(worst, store::AbsDiffOrInf(va[i], vb[i]));
    }
  }
  return worst;
}

double ModelMaxAbsDiff(const store::StoredModel& a, const ForwardModel& b) {
  const ForwardModel* fa = AsForwardModel(a);
  if (fa == nullptr) return std::numeric_limits<double>::infinity();
  return ModelMaxAbsDiff(*fa, b);
}

double ModelMaxAbsDiff(const store::StoredModel& a,
                       const store::StoredModel& b) {
  const ForwardModel* fb = AsForwardModel(b);
  if (fb == nullptr) return std::numeric_limits<double>::infinity();
  return ModelMaxAbsDiff(a, *fb);
}

std::string EncodeForwardSnapshot(const ForwardModel& model) {
  store::SnapshotBuilder builder(kForwardMethodTag, /*codec_version=*/1,
                                 model.dim(), model.relation());
  builder.AddSection(store::kMetaSectionTag, EncodeMetaPayload(model));
  builder.AddSection(store::kPsiSectionTag, EncodePsiPayload(model));
  builder.AddSection(store::kPhiSectionTag, EncodePhiFromForward(model));
  return std::move(builder).Finish();
}

Result<ForwardModel> DecodeForwardSnapshot(const std::string& bytes) {
  STEDB_ASSIGN_OR_RETURN(
      store::ParsedSnapshot snap,
      store::ParseSnapshotContainer(bytes.data(), bytes.size()));
  if (snap.header.method_tag != kForwardMethodTag) {
    return Status::InvalidArgument(
        "snapshot: method tag '" +
        store::FourCcToString(snap.header.method_tag) +
        "' is not a FoRWaRD snapshot");
  }
  ForwardModelCodec codec;
  STEDB_ASSIGN_OR_RETURN(std::unique_ptr<store::StoredModel> model,
                         codec.Decode(snap));
  return std::move(
      static_cast<ForwardStoredModel*>(model.get())->mutable_model());
}

Result<std::string> ForwardModelCodec::Encode(
    const store::StoredModel& model) const {
  const ForwardModel* fwd = AsForwardModel(model);
  if (fwd == nullptr) {
    return Status::InvalidArgument(
        "forward codec: stored model is not a ForwardStoredModel");
  }
  return EncodeForwardSnapshot(*fwd);
}

Result<std::unique_ptr<store::StoredModel>> ForwardModelCodec::Decode(
    const store::ParsedSnapshot& snapshot) const {
  if (snapshot.header.codec_version != codec_version()) {
    return Status::InvalidArgument(
        "snapshot: unsupported FoRWaRD codec version " +
        std::to_string(snapshot.header.codec_version));
  }
  const store::SnapshotSection* meta =
      snapshot.Find(store::kMetaSectionTag);
  const store::SnapshotSection* psi = snapshot.Find(store::kPsiSectionTag);
  const store::SnapshotSection* phi = snapshot.Find(store::kPhiSectionTag);
  if (meta == nullptr || psi == nullptr || phi == nullptr) {
    return Status::InvalidArgument(
        "snapshot: FoRWaRD codec needs META, PSI and PHI sections");
  }
  STEDB_ASSIGN_OR_RETURN(ForwardModel model,
                         DecodeMeta(*meta, snapshot.header));
  STEDB_RETURN_IF_ERROR(DecodePsi(*psi, &model));
  auto stored = std::make_unique<ForwardStoredModel>(std::move(model));
  STEDB_RETURN_IF_ERROR(
      store::DecodePhiPayload(*phi, stored->dim(), stored.get()));
  return std::unique_ptr<store::StoredModel>(std::move(stored));
}

Result<store::EmbeddingStore> CreateForwardStore(const std::string& dir,
                                                 const ForwardModel& model,
                                                 store::StoreOptions options) {
  return store::EmbeddingStore::Create(
      dir, kForwardMethodTag, std::make_unique<ForwardStoredModel>(model),
      options);
}

}  // namespace stedb::fwd
