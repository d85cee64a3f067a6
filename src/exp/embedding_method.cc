#include "src/exp/embedding_method.h"

#include <cstdlib>

#include "src/common/logging.h"

namespace stedb::exp {

RunScale ScaleFromEnv() {
  const char* env = std::getenv("STEDB_SCALE");
  if (env == nullptr || *env == '\0') return RunScale::kDefault;
  const std::string s(env);
  if (s == "smoke") return RunScale::kSmoke;
  if (s == "default") return RunScale::kDefault;
  if (s == "paper") return RunScale::kPaper;
  // A typo must not silently run the wrong scale: every bench/CI consumer
  // assumes the scale it asked for.
  STEDB_LOG(kError) << "fatal: unknown STEDB_SCALE '" << s
                    << "' (expected smoke|default|paper)";
  std::exit(1);
}

MethodConfig MethodConfig::ForScale(RunScale scale) {
  MethodConfig cfg;
  switch (scale) {
    case RunScale::kSmoke:
      cfg.data_scale = 0.06;
      cfg.forward.dim = 12;
      cfg.forward.max_walk_len = 2;
      cfg.forward.nsamples = 16;
      cfg.forward.epochs = 8;
      cfg.forward.lr = 0.01;
      cfg.forward.new_samples = 40;
      cfg.node2vec.sg.dim = 12;
      cfg.node2vec.sg.epochs = 3;
      cfg.node2vec.sg.negatives = 6;
      cfg.node2vec.walk.walks_per_node = 8;
      cfg.node2vec.walk.walk_length = 10;
      cfg.node2vec.dynamic_epochs = 3;
      break;
    case RunScale::kDefault:
      cfg.data_scale = 0.2;
      cfg.forward.dim = 32;
      cfg.forward.max_walk_len = 2;
      cfg.forward.nsamples = 32;
      cfg.forward.epochs = 14;
      cfg.forward.lr = 0.01;
      cfg.forward.new_samples = 120;
      cfg.node2vec.sg.dim = 32;
      cfg.node2vec.sg.epochs = 4;
      cfg.node2vec.sg.negatives = 8;
      cfg.node2vec.walk.walks_per_node = 12;
      cfg.node2vec.walk.walk_length = 12;
      cfg.node2vec.dynamic_epochs = 5;
      break;
    case RunScale::kPaper:
      // Paper Table II values (dimension 100, 40x30 walks, 20 negatives,
      // nsamples 5000). Dataset at full Table I scale.
      cfg.data_scale = 1.0;
      cfg.forward.dim = 100;
      cfg.forward.max_walk_len = 3;
      cfg.forward.nsamples = 128;  // exact-KD targets need far fewer than 5000
      cfg.forward.epochs = 10;
      cfg.forward.lr = 0.01;
      cfg.forward.new_samples = 2500;
      cfg.node2vec.sg.dim = 100;
      cfg.node2vec.sg.epochs = 10;
      cfg.node2vec.sg.negatives = 20;
      cfg.node2vec.walk.walks_per_node = 40;
      cfg.node2vec.walk.walk_length = 30;
      cfg.node2vec.dynamic_epochs = 5;
      break;
  }
  return cfg;
}

}  // namespace stedb::exp
