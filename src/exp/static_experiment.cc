#include "src/exp/static_experiment.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "src/common/parallel.h"
#include "src/common/timer.h"
#include "src/ml/metrics.h"

namespace stedb::exp {

fwd::AttrKeySet LabelExclusion(const data::GeneratedDataset& ds) {
  fwd::AttrKeySet excluded;
  excluded.insert({ds.pred_rel, ds.pred_attr});
  return excluded;
}

Result<ml::FeatureDataset> EmbeddingFeatures(
    const db::Database& database, db::AttrId pred_attr,
    const api::Embedder& method, const std::vector<db::FactId>& facts,
    ml::LabelEncoder& encoder) {
  // One batch read instead of a per-fact copy+return loop: the methods
  // gather all rows at once (parallelized for large fact sets).
  la::Matrix features(facts.size(), method.dim());
  STEDB_RETURN_IF_ERROR(method.EmbedBatch(facts, features));
  ml::FeatureDataset out;
  out.x.reserve(facts.size());
  out.y.reserve(facts.size());
  for (size_t i = 0; i < facts.size(); ++i) {
    out.Add(features.Row(i),
            encoder.Encode(database.value(facts[i], pred_attr).ToString()));
  }
  out.num_classes = encoder.num_classes();
  return out;
}

Result<ml::FeatureDataset> EmbeddingFeatures(
    const data::GeneratedDataset& ds, const api::Embedder& method,
    const std::vector<db::FactId>& facts, ml::LabelEncoder& encoder) {
  return EmbeddingFeatures(ds.database, ds.pred_attr, method, facts, encoder);
}

Result<StaticResult> RunStaticExperiment(const data::GeneratedDataset& ds,
                                         const std::string& method,
                                         const MethodConfig& mcfg,
                                         const StaticConfig& scfg) {
  const std::vector<db::FactId>& samples = ds.Samples();
  // CrossValidateWithBuilder re-checks both, but the per-fold fan-out
  // sizes buffers from scfg.folds and trains every fold embedding first —
  // reject bad configs before any training runs.
  if (scfg.folds < 2) {
    return Status::InvalidArgument("folds must be at least 2");
  }
  if (samples.size() < static_cast<size_t>(scfg.folds)) {
    return Status::InvalidArgument("fewer examples than folds");
  }
  ml::LabelEncoder encoder;
  std::vector<int> labels;
  labels.reserve(samples.size());
  for (db::FactId f : samples) labels.push_back(encoder.Encode(ds.LabelOf(f)));

  const fwd::AttrKeySet excluded = LabelExclusion(ds);
  double train_seconds = 0.0;

  // Resolve the method once up front: an unknown name fails here
  // with NotFound instead of inside the fold fan-out, and the instance
  // doubles as the shared embedding when embedding_per_fold is off.
  STEDB_ASSIGN_OR_RETURN(std::unique_ptr<api::Embedder> resolved,
                         api::CreateMethod(method, mcfg, scfg.seed));
  const std::string method_name = resolved->Name();

  // Either one embedding per fold (paper protocol) or a single shared one.
  // The per-fold embeddings — the dominant cost — are built up front, fanned
  // out over the pool; the folds are independent (disjoint seeds, shared
  // read-only database), and the result slots keep them in fold order.
  std::unique_ptr<api::Embedder> shared;
  std::vector<std::optional<Result<ml::FeatureDataset>>> fold_data;
  if (scfg.embedding_per_fold) {
    const int degree = ResolveThreadCount(scfg.threads);
    MethodConfig fold_cfg = mcfg;
    if (degree > 1) {
      // Split the degree between the fold fan-out and nested training:
      // with more threads than folds the surplus goes to each fold's
      // trainer, with more folds than threads nested training runs
      // inline — the fold fan-out already fills the pool, so a wider pin
      // would only chunk work for helpers that never come. Training
      // results are thread-count-invariant, so this changes nothing but
      // scheduling.
      const int inner = std::max(1, degree / scfg.folds);
      fold_cfg.forward.threads = inner;
      fold_cfg.node2vec.walk.threads = inner;
      fold_cfg.node2vec.sg.threads = inner;
    }
    const size_t folds = static_cast<size_t>(scfg.folds);
    fold_data.resize(folds);
    std::vector<double> fold_seconds(folds, 0.0);
    ParallelFor(scfg.threads, folds, [&](size_t fold) {
      auto made =
          api::CreateMethod(method, fold_cfg, scfg.seed + 7919 * fold);
      if (!made.ok()) {
        fold_data[fold].emplace(made.status());
        return;
      }
      std::unique_ptr<api::Embedder> m = std::move(made).value();
      Timer t;
      Status st = m->TrainStatic(&ds.database, ds.pred_rel, excluded);
      fold_seconds[fold] = t.ElapsedSeconds();
      if (!st.ok()) {
        fold_data[fold].emplace(std::move(st));
        return;
      }
      ml::LabelEncoder fold_encoder = encoder;  // same label ids every fold
      fold_data[fold].emplace(
          EmbeddingFeatures(ds, *m, samples, fold_encoder));
    });
    for (double s : fold_seconds) train_seconds += s;
  } else {
    shared = std::move(resolved);
    Timer t;
    STEDB_RETURN_IF_ERROR(
        shared->TrainStatic(&ds.database, ds.pred_rel, excluded));
    train_seconds += t.ElapsedSeconds();
  }

  auto build = [&](int fold) -> Result<ml::FeatureDataset> {
    if (scfg.embedding_per_fold) {
      return std::move(*fold_data[static_cast<size_t>(fold)]);
    }
    ml::LabelEncoder fold_encoder = encoder;  // same label ids every fold
    return EmbeddingFeatures(ds, *shared, samples, fold_encoder);
  };

  STEDB_ASSIGN_OR_RETURN(
      ml::CvResult cv,
      ml::CrossValidateWithBuilder(labels, scfg.folds, scfg.seed,
                                   scfg.classifier, build));

  ml::FeatureDataset tmp;
  tmp.y = labels;
  tmp.num_classes = encoder.num_classes();

  StaticResult result;
  result.dataset = ds.name;
  result.method = method_name;
  result.mean_accuracy = cv.mean;
  result.std_accuracy = cv.stddev;
  result.majority_baseline = tmp.MajorityFraction();
  result.embed_train_seconds = train_seconds;
  return result;
}

Result<StaticResult> RunFlatBaseline(const data::GeneratedDataset& ds,
                                     const StaticConfig& scfg) {
  const db::Schema& schema = ds.database.schema();
  const db::RelationSchema& rel = schema.relation(ds.pred_rel);
  const std::vector<db::FactId>& samples = ds.Samples();

  // Feature plan: skip keys, FK attributes and the label itself; one-hot
  // categoricals (capped vocabulary), raw numerics (the classifier's
  // scaler standardizes them).
  constexpr size_t kMaxVocab = 32;
  struct Column {
    db::AttrId attr;
    bool numeric;
    std::unordered_map<std::string, size_t> vocab;  // for categoricals
  };
  std::vector<Column> columns;
  for (size_t a = 0; a < rel.arity(); ++a) {
    const db::AttrId attr = static_cast<db::AttrId>(a);
    if (attr == ds.pred_attr) continue;
    if (rel.IsKeyAttr(attr)) continue;
    if (schema.AttrInAnyFk(ds.pred_rel, attr)) continue;
    Column col;
    col.attr = attr;
    col.numeric = rel.attrs[a].type != db::AttrType::kText;
    if (!col.numeric) {
      for (db::FactId f : samples) {
        const db::Value& v = ds.database.value(f, attr);
        if (v.is_null() || col.vocab.size() >= kMaxVocab) continue;
        col.vocab.emplace(v.as_text(), col.vocab.size());
      }
    }
    columns.push_back(std::move(col));
  }

  size_t dim = 0;
  for (const Column& c : columns) dim += c.numeric ? 1 : c.vocab.size();
  if (dim == 0) dim = 1;  // degenerate schema: constant feature

  ml::LabelEncoder encoder;
  ml::FeatureDataset dataset;
  for (db::FactId f : samples) {
    la::Vector x(dim, 0.0);
    size_t off = 0;
    for (const Column& c : columns) {
      const db::Value& v = ds.database.value(f, c.attr);
      if (c.numeric) {
        x[off++] = v.is_null() ? 0.0 : v.AsNumber();
      } else {
        if (!v.is_null()) {
          auto it = c.vocab.find(v.as_text());
          if (it != c.vocab.end()) x[off + it->second] = 1.0;
        }
        off += c.vocab.size();
      }
    }
    dataset.Add(std::move(x), encoder.Encode(ds.LabelOf(f)));
  }
  dataset.num_classes = encoder.num_classes();

  STEDB_ASSIGN_OR_RETURN(
      ml::CvResult cv,
      ml::CrossValidate(dataset, scfg.classifier, scfg.folds, scfg.seed));

  StaticResult result;
  result.dataset = ds.name;
  result.method = "FlatBaseline";
  result.mean_accuracy = cv.mean;
  result.std_accuracy = cv.stddev;
  result.majority_baseline = dataset.MajorityFraction();
  return result;
}

}  // namespace stedb::exp
