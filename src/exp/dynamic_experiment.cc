#include "src/exp/dynamic_experiment.h"

#include <algorithm>
#include <optional>

#include "src/common/parallel.h"
#include "src/common/timer.h"
#include "src/exp/partition.h"
#include "src/exp/static_experiment.h"
#include "src/ml/metrics.h"
#include "src/n2v/dynamic_node2vec.h"

namespace stedb::exp {
namespace {

/// Everything one run contributes to the aggregate result.
struct RunOutcome {
  double accuracy = 0.0;
  double baseline = 0.0;
  double extend_seconds = 0.0;
  size_t new_pred = 0;
  size_t new_facts = 0;
  double drift = 0.0;
  double journal_drift = 0.0;
  bool journaled = false;
};

/// One partition-train-replay-evaluate cycle. Self-contained: owns a
/// private copy of the database, so runs can execute concurrently.
Result<RunOutcome> RunOnce(const data::GeneratedDataset& ds,
                           const std::string& method,
                           const MethodConfig& mcfg,
                           const DynamicConfig& dcfg, int run) {
  RunOutcome out;
  const uint64_t run_seed = dcfg.seed + 1009 * static_cast<uint64_t>(run);
  Rng rng(run_seed);

  // (1) Copy + partition.
  db::Database database = ds.database;
  STEDB_ASSIGN_OR_RETURN(
      DynamicPartition part,
      PartitionDynamic(database, ds.pred_rel, ds.pred_attr, dcfg.new_ratio,
                       rng));
  if (part.batches.empty()) {
    return Status::FailedPrecondition("partition removed no tuples");
  }

  // (2) Static training on F_old.
  // All-at-once mode recomputes old walk distributions (FoRWaRD only).
  MethodConfig run_cfg = mcfg;
  run_cfg.forward.recompute_old_paths = !dcfg.one_by_one;
  STEDB_ASSIGN_OR_RETURN(std::unique_ptr<api::Embedder> embedder,
                         api::CreateMethod(method, run_cfg, run_seed));
  STEDB_RETURN_IF_ERROR(
      embedder->TrainStatic(&database, ds.pred_rel, LabelExclusion(ds)));

  ml::LabelEncoder encoder;
  // Register every label up front so train/test ids agree even when a
  // class is absent from F_old.
  for (const std::string& name : ds.class_names) encoder.Encode(name);
  STEDB_ASSIGN_OR_RETURN(
      ml::FeatureDataset train,
      EmbeddingFeatures(database, ds.pred_attr, *embedder,
                        part.old_pred_facts, encoder));
  train.num_classes = encoder.num_classes();

  std::unique_ptr<ml::Classifier> clf =
      ml::MakeClassifier(dcfg.classifier, run_seed + 17);
  STEDB_RETURN_IF_ERROR(clf->Fit(train));

  // Optional journaling: snapshot the trained model, then capture every
  // extension below in the WAL.
  if (!dcfg.journal_dir.empty()) {
    STEDB_RETURN_IF_ERROR(embedder->AttachJournal(
        dcfg.journal_dir + "/run" + std::to_string(run)));
    out.journaled = true;
  }

  // Snapshot old embeddings for the stability check (one batch read).
  n2v::EmbeddingSnapshot snapshot;
  if (dcfg.check_stability) {
    la::Matrix old_vecs(part.old_pred_facts.size(), embedder->dim());
    STEDB_RETURN_IF_ERROR(
        embedder->EmbedBatch(part.old_pred_facts, old_vecs));
    for (size_t i = 0; i < part.old_pred_facts.size(); ++i) {
      snapshot.Record(part.old_pred_facts[i], old_vecs.Row(i));
    }
  }

  // (3) Replay arrivals (inverse deletion order) and extend.
  std::vector<db::FactId> new_pred_facts;
  Timer extend_timer;
  if (dcfg.one_by_one) {
    for (size_t b = part.batches.size(); b > 0; --b) {
      STEDB_ASSIGN_OR_RETURN(
          std::vector<db::FactId> new_ids,
          ReplayBatch(database, part.batches[b - 1]));
      extend_timer.Reset();
      STEDB_RETURN_IF_ERROR(embedder->ExtendToFacts(new_ids));
      out.extend_seconds += extend_timer.ElapsedSeconds();
      for (db::FactId f : new_ids) {
        out.new_facts += 1;
        if (database.fact(f).rel == ds.pred_rel) {
          new_pred_facts.push_back(f);
        }
      }
    }
  } else {
    std::vector<db::FactId> all_new;
    for (size_t b = part.batches.size(); b > 0; --b) {
      STEDB_ASSIGN_OR_RETURN(
          std::vector<db::FactId> new_ids,
          ReplayBatch(database, part.batches[b - 1]));
      for (db::FactId f : new_ids) all_new.push_back(f);
    }
    extend_timer.Reset();
    STEDB_RETURN_IF_ERROR(embedder->ExtendToFacts(all_new));
    out.extend_seconds = extend_timer.ElapsedSeconds();
    for (db::FactId f : all_new) {
      out.new_facts += 1;
      if (database.fact(f).rel == ds.pred_rel) new_pred_facts.push_back(f);
    }
  }
  out.new_pred = new_pred_facts.size();

  // (3b) Journaling: the crash-recovery view must equal the live model.
  if (out.journaled) {
    STEDB_ASSIGN_OR_RETURN(out.journal_drift, embedder->VerifyJournal());
  }

  // (4) Stability: every old vector must be bit-identical.
  if (dcfg.check_stability) {
    out.drift = snapshot.MaxDrift([&](db::FactId f) {
      auto r = embedder->Embed(f);
      return r.ok() ? r.value() : la::Vector(snapshot.Get(f).size(), 1e18);
    });
  }

  // (5) Evaluate on the new prediction tuples only (one batch read).
  std::vector<int> truth, predicted;
  la::Matrix new_vecs(new_pred_facts.size(), embedder->dim());
  STEDB_RETURN_IF_ERROR(embedder->EmbedBatch(new_pred_facts, new_vecs));
  for (size_t i = 0; i < new_pred_facts.size(); ++i) {
    truth.push_back(encoder.Lookup(
        database.value(new_pred_facts[i], ds.pred_attr).ToString()));
    predicted.push_back(clf->Predict(new_vecs.Row(i)));
  }
  out.accuracy = ml::Accuracy(truth, predicted);

  // Majority baseline: predict F_old's most common class for everything.
  std::vector<size_t> counts = train.ClassCounts();
  const int majority = static_cast<int>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
  size_t hits = 0;
  for (int t : truth) {
    if (t == majority) ++hits;
  }
  out.baseline = truth.empty() ? 0.0
                               : static_cast<double>(hits) /
                                     static_cast<double>(truth.size());
  return out;
}

}  // namespace

Result<DynamicResult> RunDynamicExperiment(const data::GeneratedDataset& ds,
                                           const std::string& method,
                                           const MethodConfig& mcfg,
                                           const DynamicConfig& dcfg) {
  // Resolve the name once so an unknown method fails fast (and with
  // CreateMethod's NotFound message) instead of inside the run fan-out.
  STEDB_ASSIGN_OR_RETURN(std::unique_ptr<api::Embedder> probe,
                         api::CreateMethod(method, mcfg, dcfg.seed));
  DynamicResult result;
  result.dataset = ds.name;
  result.method = probe->Name();
  result.new_ratio = dcfg.new_ratio;
  result.one_by_one = dcfg.one_by_one;

  // Runs are independent (private database copies, disjoint seeds): fan
  // them out over the pool and aggregate in run order. The degree is
  // split between the run fan-out and nested training (surplus threads go
  // to each run's trainer; with at least as many runs as threads, nested
  // training runs inline) — training results are thread-count-invariant,
  // so this only avoids oversubscription.
  const int degree = ResolveThreadCount(dcfg.threads);
  MethodConfig run_mcfg = mcfg;
  if (degree > 1) {
    const int inner = std::max(1, degree / std::max(dcfg.runs, 1));
    run_mcfg.forward.threads = inner;
    run_mcfg.node2vec.walk.threads = inner;
    run_mcfg.node2vec.sg.threads = inner;
  }
  std::vector<std::optional<Result<RunOutcome>>> outcomes(
      static_cast<size_t>(std::max(dcfg.runs, 0)));
  ParallelFor(dcfg.threads, outcomes.size(), [&](size_t run) {
    outcomes[run].emplace(
        RunOnce(ds, method, run_mcfg, dcfg, static_cast<int>(run)));
  });

  std::vector<double> accuracies;
  std::vector<double> baselines;
  double total_extend_seconds = 0.0;
  size_t total_new_pred = 0;
  size_t total_new_facts = 0;
  double worst_drift = 0.0;
  for (const auto& outcome : outcomes) {
    if (!outcome->ok()) return outcome->status();
    const RunOutcome& out = outcome->value();
    accuracies.push_back(out.accuracy);
    baselines.push_back(out.baseline);
    total_extend_seconds += out.extend_seconds;
    total_new_pred += out.new_pred;
    total_new_facts += out.new_facts;
    worst_drift = std::max(worst_drift, out.drift);
    result.journaled = result.journaled || out.journaled;
    result.journal_drift = std::max(result.journal_drift, out.journal_drift);
  }

  result.mean_accuracy = ml::Mean(accuracies);
  result.std_accuracy = ml::StdDev(accuracies);
  result.majority_baseline = ml::Mean(baselines);
  result.seconds_per_new_tuple =
      total_new_pred > 0
          ? total_extend_seconds / static_cast<double>(total_new_pred)
          : 0.0;
  result.stability_drift = worst_drift;
  result.avg_new_facts =
      dcfg.runs > 0 ? total_new_facts / static_cast<size_t>(dcfg.runs) : 0;
  return result;
}

}  // namespace stedb::exp
