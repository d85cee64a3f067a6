#include "src/exp/timing.h"

#include "src/common/timer.h"
#include "src/exp/static_experiment.h"

namespace stedb::exp {

Result<StaticTiming> MeasureStaticTime(const data::GeneratedDataset& ds,
                                       const MethodConfig& mcfg,
                                       uint64_t seed) {
  StaticTiming timing;
  timing.dataset = ds.name;
  const fwd::AttrKeySet excluded = LabelExclusion(ds);

  {
    STEDB_ASSIGN_OR_RETURN(std::unique_ptr<api::Embedder> m,
                           api::CreateMethod("node2vec", mcfg, seed));
    Timer t;
    STEDB_RETURN_IF_ERROR(
        m->TrainStatic(&ds.database, ds.pred_rel, excluded));
    timing.node2vec_seconds = t.ElapsedSeconds();
  }
  {
    STEDB_ASSIGN_OR_RETURN(std::unique_ptr<api::Embedder> m,
                           api::CreateMethod("forward", mcfg, seed));
    Timer t;
    STEDB_RETURN_IF_ERROR(
        m->TrainStatic(&ds.database, ds.pred_rel, excluded));
    timing.forward_seconds = t.ElapsedSeconds();
  }
  return timing;
}

}  // namespace stedb::exp
