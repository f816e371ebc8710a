#include "place/cg_solver.hpp"

#include <cassert>
#include <cmath>

namespace m3d {

void CgSystem::multiply(const std::vector<double>& x, std::vector<double>& y) const {
  for (int i = 0; i < n_; ++i) {
    y[static_cast<std::size_t>(i)] = diag_[static_cast<std::size_t>(i)] * x[static_cast<std::size_t>(i)];
  }
  for (const Edge& e : edges_) {
    y[static_cast<std::size_t>(e.i)] -= e.w * x[static_cast<std::size_t>(e.j)];
    y[static_cast<std::size_t>(e.j)] -= e.w * x[static_cast<std::size_t>(e.i)];
  }
}

// The residual set-up, and the x/r update with the preconditioner, r·z and
// the next ‖r‖², each run as one sweep over the index range. Each sum keeps
// its own accumulator and adds its terms in index order, exactly as one pass
// per quantity would, so the iterates and the iteration count are bitwise
// those of the unfused loop.
int CgSystem::solve(std::vector<double>& x, int maxIters, double tol) const {
  assert(static_cast<int>(x.size()) == n_);
  if (n_ == 0) return 0;
  const std::size_t n = static_cast<std::size_t>(n_);

  std::vector<double> r(n);
  std::vector<double> z(n);
  std::vector<double> p(n);
  std::vector<double> ap(n);

  // Jacobi preconditioner; rows without a diagonal pass through.
  auto precond = [this](std::size_t i, double ri) {
    const double d = diag_[i];
    return d > 0.0 ? ri / d : ri;
  };

  multiply(x, r);
  double rhsNorm2 = 0.0;
  double rz = 0.0;
  double rNorm2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double ri = rhs_[i] - r[i];
    r[i] = ri;
    rhsNorm2 += rhs_[i] * rhs_[i];
    const double zi = precond(i, ri);
    p[i] = zi;
    rz += ri * zi;
    rNorm2 += ri * ri;
  }
  const double threshold = tol * tol * std::max(rhsNorm2, 1e-30);

  int iter = 0;
  for (; iter < maxIters; ++iter) {
    if (rNorm2 <= threshold) break;

    multiply(p, ap);
    double pap = 0.0;
    for (std::size_t i = 0; i < n; ++i) pap += p[i] * ap[i];
    if (pap <= 0.0) break;  // numerical safety
    const double alpha = rz / pap;
    double rzNew = 0.0;
    rNorm2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      const double ri = r[i] - alpha * ap[i];
      r[i] = ri;
      const double zi = precond(i, ri);
      z[i] = zi;
      rzNew += ri * zi;
      rNorm2 += ri * ri;
    }
    const double beta = rzNew / std::max(rz, 1e-30);
    rz = rzNew;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  return iter;
}

}  // namespace m3d
