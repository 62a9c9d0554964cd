#include "est/p2_quantile.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace askel {

P2Quantile::P2Quantile(double q) : q_(q) {
  if (!(q > 0.0 && q < 1.0))
    throw std::invalid_argument("P2Quantile: q must be in (0,1)");
}

double P2Quantile::value() const {
  if (count_ == 0) return 0.0;  // out-of-contract call: degrade like Ewma
  if (count_ >= 5) return h_[2];
  // Exact phase: linearly interpolated quantile of the sorted prefix.
  std::vector<double> s(initial_.begin(), initial_.begin() + count_);
  std::sort(s.begin(), s.end());
  if (s.size() == 1) return s[0];
  const double pos = q_ * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (pos - static_cast<double>(lo)) * (s[hi] - s[lo]);
}

void P2Quantile::ingest(double x) {
  if (count_ < 5) {
    initial_[static_cast<std::size_t>(count_++)] = x;
    if (count_ == 5) {
      std::sort(initial_.begin(), initial_.end());
      for (int k = 0; k < 5; ++k) {
        h_[k] = initial_[static_cast<std::size_t>(k)];
        n_[k] = k + 1;
      }
      np_[0] = 1.0;
      np_[1] = 1.0 + 2.0 * q_;
      np_[2] = 1.0 + 4.0 * q_;
      np_[3] = 3.0 + 2.0 * q_;
      np_[4] = 5.0;
      dn_[0] = 0.0;
      dn_[1] = q_ / 2.0;
      dn_[2] = q_;
      dn_[3] = (1.0 + q_) / 2.0;
      dn_[4] = 1.0;
    }
    return;
  }
  // Find the cell the new sample falls into, stretching the extremes.
  int cell;
  if (x < h_[0]) {
    h_[0] = x;
    cell = 0;
  } else if (x >= h_[4]) {
    h_[4] = x;
    cell = 3;
  } else {
    cell = 0;
    while (cell < 3 && x >= h_[cell + 1]) ++cell;
  }
  for (int k = cell + 1; k < 5; ++k) ++n_[k];
  for (int k = 0; k < 5; ++k) np_[k] += dn_[k];
  // Nudge the three interior markers toward their desired positions.
  for (int k = 1; k <= 3; ++k) {
    const double d = np_[k] - static_cast<double>(n_[k]);
    if ((d >= 1.0 && n_[k + 1] - n_[k] > 1) ||
        (d <= -1.0 && n_[k - 1] - n_[k] < -1)) {
      const int sign = d >= 0.0 ? 1 : -1;
      const double cand = parabolic(k, sign);
      if (h_[k - 1] < cand && cand < h_[k + 1]) {
        h_[k] = cand;
      } else {
        h_[k] = linear(k, sign);
      }
      n_[k] += sign;
    }
  }
}

double P2Quantile::parabolic(int k, int sign) const {
  const double d = static_cast<double>(sign);
  const double nk = static_cast<double>(n_[k]);
  const double nl = static_cast<double>(n_[k - 1]);
  const double nr = static_cast<double>(n_[k + 1]);
  return h_[k] + d / (nr - nl) *
                     ((nk - nl + d) * (h_[k + 1] - h_[k]) / (nr - nk) +
                      (nr - nk - d) * (h_[k] - h_[k - 1]) / (nk - nl));
}

double P2Quantile::linear(int k, int sign) const {
  return h_[k] + static_cast<double>(sign) * (h_[k + sign] - h_[k]) /
                     static_cast<double>(n_[k + sign] - n_[k]);
}

}  // namespace askel
