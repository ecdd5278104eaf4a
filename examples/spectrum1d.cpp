// 1D spectrum analysis — exercises the real-to-complex transform and the
// double-buffered large-1D engine on a signal-processing workload.
//
// A long real signal (three tones + deterministic noise) is analysed two
// ways: RealFft1d on the raw samples (half-spectrum peak picking), and
// the double-buffer engine's four-step passes on the complexified signal
// (the engine for transforms larger than the cache buffer). Both must
// find the same tones.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <random>

#include "common/aligned.h"
#include "common/timer.h"
#include "fft/engine.h"
#include "fft1d/real.h"

using namespace bwfft;

int main() {
  const idx_t n = 1 << 20;
  const idx_t tones[3] = {4321, 65537, 262144 + 17};
  const double amps[3] = {1.0, 0.6, 0.3};

  dvec signal(static_cast<std::size_t>(n));
  std::mt19937_64 gen(42);
  std::uniform_real_distribution<double> noise(-0.05, 0.05);
  for (idx_t j = 0; j < n; ++j) {
    double v = noise(gen);
    for (int t = 0; t < 3; ++t) {
      v += amps[t] * std::cos(2.0 * std::numbers::pi_v<double> *
                              static_cast<double>(tones[t] * j) / n);
    }
    signal[static_cast<std::size_t>(j)] = v;
  }

  // Path 1: real-to-complex transform (half spectrum).
  RealFft1d rplan(n);
  cvec half(static_cast<std::size_t>(rplan.spectrum_size()));
  Timer t1;
  rplan.forward(signal.data(), half.data());
  const double secs_real = t1.seconds();

  // Peak picking: the three largest non-DC bins.
  std::vector<std::pair<double, idx_t>> mags;
  for (idx_t k = 1; k < rplan.spectrum_size() - 1; ++k) {
    mags.push_back({std::abs(half[static_cast<std::size_t>(k)]), k});
  }
  std::partial_sort(mags.begin(), mags.begin() + 3, mags.end(),
                    [](auto& a, auto& b) { return a.first > b.first; });

  // Path 2: complex transform through the double-buffered 1D engine.
  cvec cx(static_cast<std::size_t>(n));
  for (idx_t j = 0; j < n; ++j) cx[static_cast<std::size_t>(j)] = cplx(signal[static_cast<std::size_t>(j)], 0.0);
  cvec spec(static_cast<std::size_t>(n));
  auto cplan = make_engine({n}, Direction::Forward, {});
  Timer t2;
  cplan->execute(cx.data(), spec.data());
  const double secs_cplx = t2.seconds();

  std::printf("Spectrum analysis of 2^20 real samples\n");
  std::printf("  real-to-complex transform: %.2f ms;  complex (%s): "
              "%.2f ms\n",
              secs_real * 1e3, cplan->name(), secs_cplx * 1e3);

  bool ok = true;
  std::printf("  detected tones (bin: amplitude, cross-check):\n");
  for (int t = 0; t < 3; ++t) {
    const idx_t bin = mags[static_cast<std::size_t>(t)].second;
    const double amp = 2.0 * mags[static_cast<std::size_t>(t)].first / n;
    const double amp2 = 2.0 * std::abs(spec[static_cast<std::size_t>(bin)]) / n;
    const bool hit =
        std::find(std::begin(tones), std::end(tones), bin) != std::end(tones);
    std::printf("    bin %7lld: %.3f (real path), %.3f (complex path) %s\n",
                static_cast<long long>(bin), amp, amp2,
                hit ? "[expected tone]" : "[UNEXPECTED]");
    ok = ok && hit && std::abs(amp - amp2) < 1e-9;
  }
  return ok ? 0 : 1;
}
