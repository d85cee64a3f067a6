#ifndef STEDB_TESTS_TEST_UTIL_H_
#define STEDB_TESTS_TEST_UTIL_H_

#include <memory>

#include "src/db/database.h"
#include "src/la/kernels.h"

namespace stedb::testing {

/// The paper's running-example movie schema (Figure 2).
std::shared_ptr<const db::Schema> MovieSchema();

/// The full Figure 2 instance (3 studios, 6 movies, 5 actors,
/// 3 collaborations — c4 is NOT inserted, matching Example 3.1's D).
db::Database MovieDatabase();

/// Inserts c4 = COLLABORATIONS(a01, a04, m06) and returns its id.
db::FactId InsertC4(db::Database& database);

/// Looks up a fact by relation name and key values rendered as text.
db::FactId FindFact(const db::Database& database, const std::string& rel,
                    const std::vector<std::string>& key);

/// The Adam update exactly as AdamOptimizer::Step's loop wrote it before
/// it became la::AdamStep: both bias-correction divisions always
/// performed. The byte-level reference the kernel must reproduce on every
/// path, including the variants that skip a division by 1.0.
void ReferenceAdamStep(const la::AdamCoeffs& c, double* p, double* m,
                       double* v, const double* g, size_t n);

/// x^T M y for a rows x cols row-major m, summed as Σᵢ xᵢ (row i · y): the
/// row dots by la::MatVec, then one std::fma per row with xᵢ ≠ 0, rows in
/// order. Bit-identical on every SIMD path (kernels_test pins MatVec's
/// order); the reference the projection scorers are checked against.
double ReferenceBilinearForm(const double* x, const double* m,
                             const double* y, size_t rows, size_t cols);

/// True when this binary AND this machine can execute the AVX2 kernel path.
bool HasAvx2();

/// Restores the SIMD dispatch decision active at construction, so a test
/// that forces a path does not leak the override into later tests of the
/// process.
class SimdPathGuard {
 public:
  SimdPathGuard() : saved_(la::ActiveSimdPath()) {}
  ~SimdPathGuard() { la::internal::ForceSimdPathForTest(saved_); }
  SimdPathGuard(const SimdPathGuard&) = delete;
  SimdPathGuard& operator=(const SimdPathGuard&) = delete;

 private:
  la::SimdPath saved_;
};

}  // namespace stedb::testing

#endif  // STEDB_TESTS_TEST_UTIL_H_
