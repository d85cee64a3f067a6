#ifndef STEDB_FWD_CODEC_H_
#define STEDB_FWD_CODEC_H_

#include <memory>
#include <string>
#include <utility>

#include "src/fwd/model.h"
#include "src/store/embedding_store.h"
#include "src/store/model_codec.h"
#include "src/store/stored_model.h"

namespace stedb::fwd {

/// Snapshot method tag of the FoRWaRD codec ("FWD " in the header).
inline constexpr uint32_t kForwardMethodTag =
    store::FourCc('F', 'W', 'D', ' ');

/// A full ForwardModel behind the store's method-agnostic StoredModel
/// interface. Owns the model; WAL replay lands in it via set_phi, and the
/// typed model stays reachable for FoRWaRD-specific consumers (ψ-aware
/// verification, the φᵀψφ scorer) through model() / AsForwardModel().
class ForwardStoredModel : public store::StoredModel {
 public:
  explicit ForwardStoredModel(ForwardModel model) : model_(std::move(model)) {}

  size_t dim() const override { return model_.dim(); }
  db::RelationId relation() const override { return model_.relation(); }
  size_t num_embedded() const override { return model_.num_embedded(); }
  bool HasEmbedding(db::FactId f) const override {
    return model_.HasEmbedding(f);
  }
  const la::Vector& phi(db::FactId f) const override { return model_.phi(f); }
  void set_phi(db::FactId f, la::Vector v) override {
    model_.set_phi(f, std::move(v));
  }
  void ForEachPhi(const std::function<void(db::FactId, const la::Vector&)>&
                      fn) const override;

  const ForwardModel& model() const { return model_; }
  ForwardModel& mutable_model() { return model_; }

 private:
  ForwardModel model_;
};

/// The ForwardModel behind a StoredModel, or nullptr when the stored model
/// is not FoRWaRD's (e.g. a Node2Vec store opened generically).
const ForwardModel* AsForwardModel(const store::StoredModel& model);

/// Largest absolute entry-wise deviation between two models' ψ matrices
/// and φ vectors; +inf on any structural mismatch (relation, dim, schemes,
/// targets, or embedded-fact sets differ). 0.0 means bit-exact agreement —
/// the recovery acceptance criterion. NaNs compare by representation: a
/// bit-identical NaN contributes 0, a NaN-valued difference reports +inf.
double ModelMaxAbsDiff(const ForwardModel& a, const ForwardModel& b);

/// Same, with one or both sides behind the store's generic model handle
/// (as EmbeddingStore::model() returns it). When every generic side is a
/// FoRWaRD stored model the full ψ-aware diff runs; models of any other
/// method are +inf by definition (structural mismatch — use
/// store::StoredModelMaxAbsDiff for the method-agnostic φ-only comparison).
double ModelMaxAbsDiff(const store::StoredModel& a, const ForwardModel& b);
double ModelMaxAbsDiff(const store::StoredModel& a,
                       const store::StoredModel& b);

/// The FoRWaRD model codec: sections META (relation, dim, walk schemes,
/// targets), PSI (the learned ψ matrices, standard layout) and PHI (the
/// standard embeddings payload). Extracted from the PR 3 fwd-only
/// snapshot; byte layout of the section payloads is unchanged, only the
/// container header moved to the method-agnostic v2 format.
class ForwardModelCodec : public store::ModelCodec {
 public:
  std::string method() const override { return "forward"; }
  uint32_t method_tag() const override { return kForwardMethodTag; }
  uint32_t codec_version() const override { return 1; }
  Result<std::string> Encode(const store::StoredModel& model) const override;
  Result<std::unique_ptr<store::StoredModel>> Decode(
      const store::ParsedSnapshot& snapshot) const override;
};

/// Typed encode/decode: the v2 snapshot bytes of a ForwardModel. Equal
/// models encode to byte-identical buffers; decoding verifies magic,
/// container version, method tag, structure and per-section CRCs. Files go
/// through store::AtomicWriteFile / store::ReadFileToString.
std::string EncodeForwardSnapshot(const ForwardModel& model);
Result<ForwardModel> DecodeForwardSnapshot(const std::string& bytes);

/// Convenience: persists a freshly trained FoRWaRD model as a new store
/// directory (snapshot + empty journal) via the FoRWaRD codec.
Result<store::EmbeddingStore> CreateForwardStore(
    const std::string& dir, const ForwardModel& model,
    store::StoreOptions options = store::StoreOptions());

}  // namespace stedb::fwd

#endif  // STEDB_FWD_CODEC_H_
