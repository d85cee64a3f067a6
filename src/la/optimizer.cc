#include "src/la/optimizer.h"

#include <cmath>

#include "src/la/kernels.h"

namespace stedb::la {

void SgdOptimizer::Step(size_t /*block*/, double* params, const double* grad,
                        size_t n) {
  Axpy(-(lr_ * scale_), grad, params, n);
}

void AdamOptimizer::Reserve(size_t num_blocks) {
  if (num_blocks > states_.size()) states_.resize(num_blocks);
}

void AdamOptimizer::Step(size_t block, double* params, const double* grad,
                         size_t n) {
  if (block >= states_.size()) states_.resize(block + 1);
  State& st = states_[block];
  if (st.m.size() != n) {
    st.m.assign(n, 0.0);
    st.v.assign(n, 0.0);
    st.t = 0;
  }
  ++st.t;
  const double lr = lr_ * scale_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(st.t));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(st.t));
  AdamStep({lr, beta1_, beta2_, eps_, bc1, bc2}, params, st.m.data(),
           st.v.data(), grad, n);
}

}  // namespace stedb::la
