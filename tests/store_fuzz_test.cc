// Randomized robustness tests of the binary store parsers, next to the
// database-mutation fuzz in batch_fuzz_test.cc: arbitrary truncations,
// byte flips and pure-noise buffers must come back as clean Status errors
// (or, for WAL tails, clean torn-tail prefixes) — never a crash, hang,
// over-allocation or silently corrupted model.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>

#include "src/ann/hnsw.h"
#include "src/common/rng.h"
#include "src/fwd/codec.h"
#include "src/fwd/trainer.h"
#include "src/n2v/codec.h"
#include "src/store/embedding_store.h"
#include "src/store/format.h"
#include "src/store/model_codec.h"
#include "src/store/stored_model.h"
#include "src/store/wal.h"
#include "tests/test_util.h"

namespace stedb::store {
namespace {

fwd::ForwardModel TrainSmall() {
  static db::Database database = stedb::testing::MovieDatabase();
  auto kernels = fwd::KernelRegistry::Defaults(database);
  fwd::ForwardConfig cfg;
  cfg.dim = 5;
  cfg.max_walk_len = 2;
  cfg.nsamples = 6;
  cfg.epochs = 2;
  cfg.seed = 21;
  fwd::ForwardTrainer trainer(&database, &kernels, cfg);
  return std::move(trainer.Train(database.schema().RelationIndex("ACTORS"), {}))
      .value();
}

std::string ValidWalBytes(size_t dim, int records) {
  const std::string path = ::testing::TempDir() + "/stedb_fuzz_wal.bin";
  std::remove(path.c_str());
  auto writer = WalWriter::Open(path, dim);
  EXPECT_TRUE(writer.ok());
  for (int i = 0; i < records; ++i) {
    la::Vector v(dim, 0.5 * i);
    EXPECT_TRUE(writer.value().Append(i, v).ok());
  }
  EXPECT_TRUE(writer.value().Close().ok());
  std::string bytes;
  EXPECT_TRUE(ReadFileToString(path, &bytes).ok());
  return bytes;
}

class StoreFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(StoreFuzzTest, SnapshotSurvivesTruncationAndFlips) {
  const fwd::ForwardModel model = TrainSmall();
  const std::string good = fwd::EncodeForwardSnapshot(model);
  Rng rng(static_cast<uint64_t>(GetParam()) * 6151);

  for (int trial = 0; trial < 60; ++trial) {
    std::string bad = good;
    // Truncate somewhere, flip a few bytes, or both.
    if (rng.NextBool(0.5)) {
      bad.resize(rng.NextIndex(bad.size() + 1));
    }
    const size_t flips = rng.NextIndex(4);
    for (size_t k = 0; k < flips && !bad.empty(); ++k) {
      const size_t at = rng.NextIndex(bad.size());
      bad[at] = static_cast<char>(
          static_cast<unsigned char>(bad[at]) ^
          (1u << rng.NextIndex(8)));
    }
    auto parsed = fwd::DecodeForwardSnapshot(bad);
    if (parsed.ok()) {
      // Only padding flips may survive, and they must change nothing.
      EXPECT_EQ(fwd::ModelMaxAbsDiff(parsed.value(), model), 0.0);
    } else {
      EXPECT_FALSE(parsed.status().message().empty());
    }
  }
}

TEST_P(StoreFuzzTest, SnapshotSurvivesPureNoise) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7243);
  for (int trial = 0; trial < 40; ++trial) {
    std::string noise(rng.NextIndex(512), '\0');
    for (char& c : noise) {
      c = static_cast<char>(rng.NextIndex(256));
    }
    // Half the trials get a valid magic prefix so the deeper header and
    // section parsing gets exercised too.
    if (rng.NextBool(0.5) && noise.size() >= 8) {
      noise.replace(0, 8, "STEDBSNP");
    }
    EXPECT_FALSE(fwd::DecodeForwardSnapshot(noise).ok());
  }
}

TEST_P(StoreFuzzTest, WalReplayNeverCrashesAndPrefixStaysValid) {
  const size_t dim = 5;
  const std::string good = ValidWalBytes(dim, 6);
  Rng rng(static_cast<uint64_t>(GetParam()) * 9311);

  for (int trial = 0; trial < 60; ++trial) {
    std::string bad = good;
    if (rng.NextBool(0.5)) {
      bad.resize(rng.NextIndex(bad.size() + 1));
    }
    const size_t flips = rng.NextIndex(4);
    for (size_t k = 0; k < flips && !bad.empty(); ++k) {
      const size_t at = rng.NextIndex(bad.size());
      bad[at] = static_cast<char>(
          static_cast<unsigned char>(bad[at]) ^
          (1u << rng.NextIndex(8)));
    }
    auto replay = ReplayWalBytes(bad, static_cast<int>(dim));
    if (!replay.ok()) continue;  // header was hit — clean error
    // Whatever survived must be a structurally valid prefix.
    EXPECT_LE(replay.value().valid_bytes, bad.size());
    EXPECT_LE(replay.value().records.size(), 6u);
    for (const WalRecord& rec : replay.value().records) {
      EXPECT_EQ(rec.phi.size(), dim);
    }
  }
}

TEST_P(StoreFuzzTest, ContainerHeaderSurvivesFieldMutations) {
  // The v2 header (magic, container version, method tag, codec version,
  // section count, dim, relation — bytes [0, 40)) is the new parse path:
  // every single-byte mutation must come back as a clean Status error or
  // parse to the identical model (relation is model metadata the PHI walk
  // never dereferences, but a flip there still fails the META cross-check
  // for FoRWaRD snapshots). Never a crash or an over-allocation.
  const fwd::ForwardModel model = TrainSmall();
  const std::string good = fwd::EncodeForwardSnapshot(model);
  ASSERT_GE(good.size(), 40u);
  Rng rng(static_cast<uint64_t>(GetParam()) * 8089);

  for (size_t at = 0; at < 40; ++at) {
    for (int trial = 0; trial < 4; ++trial) {
      std::string bad = good;
      bad[at] = static_cast<char>(rng.NextIndex(256));
      auto parsed = fwd::DecodeForwardSnapshot(bad);
      if (parsed.ok()) {
        EXPECT_EQ(fwd::ModelMaxAbsDiff(parsed.value(), model), 0.0)
            << "undetected header corruption at byte " << at;
      } else {
        EXPECT_FALSE(parsed.status().message().empty());
      }
      // The generic container walk must agree with the typed parser on
      // acceptability (it is the parse MmapSnapshot and Open() run).
      auto container = ParseSnapshotContainer(bad.data(), bad.size());
      if (!container.ok()) {
        EXPECT_FALSE(parsed.ok());
      }
    }
  }

  // Version-skew bytes get the dedicated, actionable message.
  std::string v1 = good;
  v1[8] = 1;
  auto old_err = fwd::DecodeForwardSnapshot(v1);
  ASSERT_FALSE(old_err.ok());
  EXPECT_NE(old_err.status().message().find("version 1"), std::string::npos);
}

TEST_P(StoreFuzzTest, AnnSectionSurvivesTruncationAndFlips) {
  // ANN-bearing snapshots: the 'ANN ' section rides the container's CRC
  // like every other section, so corruption must surface as a clean
  // container reject — and on the rare CRC-passing mutation (padding
  // bytes), whatever section survives must still open structurally via
  // HnswView (the validation the serving path runs). Compact reads the
  // same damaged file section by section to extend its index; whatever
  // the damage, it must fall back to a rebuild, which with nothing
  // journaled writes the pristine bytes again.
  const size_t dim = 6, n = 40;
  auto model = std::make_unique<VectorSetModel>(dim, -1);
  Rng fill(99);
  for (size_t i = 0; i < n; ++i) {
    la::Vector v(dim);
    for (double& x : v) x = fill.NextDouble(-1.0, 1.0);
    model->set_phi(static_cast<db::FactId>(i), std::move(v));
  }
  const std::string dir = ::testing::TempDir() + "/stedb_fuzz_ann";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  StoreOptions options;
  options.build_ann_index = true;
  auto created =
      EmbeddingStore::Create(dir, n2v::kNode2VecMethodTag, std::move(model),
                             options);
  ASSERT_TRUE(created.ok()) << created.status();
  std::string good;
  ASSERT_TRUE(
      ReadFileToString(EmbeddingStore::SnapshotPath(dir), &good).ok());

  // Pristine sanity: the section is present, aligned and opens.
  {
    std::vector<uint64_t> buf((good.size() + 7) / 8);
    std::memcpy(buf.data(), good.data(), good.size());
    const char* base = reinterpret_cast<const char*>(buf.data());
    auto parsed = ParseSnapshotContainer(base, good.size());
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const SnapshotSection* ann = parsed.value().Find(kAnnSectionTag);
    ASSERT_NE(ann, nullptr);
    ASSERT_TRUE(ann::HnswView::Open(ann->data, ann->size, n, dim).ok());
  }

  Rng rng(static_cast<uint64_t>(GetParam()) * 3571);
  for (int trial = 0; trial < 60; ++trial) {
    std::string bad = good;
    if (rng.NextBool(0.3)) {
      bad.resize(rng.NextIndex(bad.size() + 1));
    }
    const size_t flips = 1 + rng.NextIndex(3);
    for (size_t k = 0; k < flips && !bad.empty(); ++k) {
      const size_t at = rng.NextIndex(bad.size());
      bad[at] = static_cast<char>(static_cast<unsigned char>(bad[at]) ^
                                  (1u << rng.NextIndex(8)));
    }
    const std::string path = EmbeddingStore::SnapshotPath(dir);
    ASSERT_TRUE(AtomicWriteFile(path, bad).ok());
    ASSERT_TRUE(created.value().Compact().ok());
    std::string rewritten;
    ASSERT_TRUE(ReadFileToString(path, &rewritten).ok());
    EXPECT_EQ(rewritten, good) << "trial " << trial;

    std::vector<uint64_t> buf(bad.size() / 8 + 1);
    std::memcpy(buf.data(), bad.data(), bad.size());
    const char* base = reinterpret_cast<const char*>(buf.data());
    auto parsed = ParseSnapshotContainer(base, bad.size());
    if (!parsed.ok()) {
      EXPECT_FALSE(parsed.status().message().empty());
      continue;
    }
    const SnapshotSection* ann = parsed.value().Find(kAnnSectionTag);
    if (ann == nullptr) continue;  // mutation dropped the section cleanly
    auto view = ann::HnswView::Open(ann->data, ann->size, n, dim);
    if (!view.ok()) {
      EXPECT_FALSE(view.status().message().empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreFuzzTest, ::testing::Range(1, 6));

/// Same corruption seed, same outcome: the parsers are deterministic, so
/// a fuzz failure is always reproducible from its seed.
TEST(StoreFuzzDeterminismTest, SameSeedSameVerdicts) {
  const fwd::ForwardModel model = TrainSmall();
  const std::string good = fwd::EncodeForwardSnapshot(model);
  for (uint64_t seed : {11u, 12u}) {
    std::vector<bool> verdict1, verdict2;
    for (std::vector<bool>* out : {&verdict1, &verdict2}) {
      Rng rng(seed);
      for (int trial = 0; trial < 20; ++trial) {
        std::string bad = good;
        bad.resize(rng.NextIndex(bad.size() + 1));
        out->push_back(fwd::DecodeForwardSnapshot(bad).ok());
      }
    }
    EXPECT_EQ(verdict1, verdict2);
  }
}

}  // namespace
}  // namespace stedb::store
