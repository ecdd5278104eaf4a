// 1D spectrum analysis — the double-buffered large-1D engine on a
// signal-processing workload.
//
// A long real signal (three tones + deterministic noise) is complexified
// and transformed through make_engine({n}), which runs the double-buffer
// engine's four-step passes (the engine for transforms larger than the
// cache buffer). A real signal's spectrum is Hermitian, so bins 1..n/2
// carry it: the three largest must be the tones, at their amplitudes.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <random>

#include "common/aligned.h"
#include "common/timer.h"
#include "fft/engine.h"

using namespace bwfft;

int main() {
  const idx_t n = 1 << 20;
  const idx_t tones[3] = {4321, 65537, 262144 + 17};
  const double amps[3] = {1.0, 0.6, 0.3};

  cvec signal(static_cast<std::size_t>(n));
  std::mt19937_64 gen(42);
  std::uniform_real_distribution<double> noise(-0.05, 0.05);
  for (idx_t j = 0; j < n; ++j) {
    double v = noise(gen);
    for (int t = 0; t < 3; ++t) {
      v += amps[t] * std::cos(2.0 * std::numbers::pi_v<double> *
                              static_cast<double>(tones[t] * j) / n);
    }
    signal[static_cast<std::size_t>(j)] = cplx(v, 0.0);
  }

  cvec spec(static_cast<std::size_t>(n));
  auto plan = make_engine({n}, Direction::Forward, {});
  Timer timer;
  plan->execute(signal.data(), spec.data());
  const double secs = timer.seconds();

  // Peak picking: the three largest bins of 1..n/2.
  std::vector<std::pair<double, idx_t>> mags;
  for (idx_t k = 1; k <= n / 2; ++k) {
    mags.push_back({std::abs(spec[static_cast<std::size_t>(k)]), k});
  }
  std::partial_sort(mags.begin(), mags.begin() + 3, mags.end(),
                    [](auto& a, auto& b) { return a.first > b.first; });

  std::printf("Spectrum analysis of 2^20 real samples\n");
  std::printf("  complex transform (%s): %.2f ms\n", plan->name(),
              secs * 1e3);

  bool ok = true;
  std::printf("  detected tones (bin: amplitude, expected):\n");
  for (int t = 0; t < 3; ++t) {
    const idx_t bin = mags[static_cast<std::size_t>(t)].second;
    const double amp = 2.0 * mags[static_cast<std::size_t>(t)].first / n;
    const idx_t* tone = std::find(std::begin(tones), std::end(tones), bin);
    const bool hit = tone != std::end(tones);
    const double want = hit ? amps[tone - std::begin(tones)] : 0.0;
    std::printf("    bin %7lld: %.3f, %.3f %s\n", static_cast<long long>(bin),
                amp, want, hit ? "[expected tone]" : "[UNEXPECTED]");
    ok = ok && hit && std::abs(amp - want) < 1e-2;
  }
  return ok ? 0 : 1;
}
