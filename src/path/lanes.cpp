#include "path/lanes.h"

#include <algorithm>
#include <cstdint>

#include "base/require.h"
#include "digital/fir.h"
#include "dsp/oscillator.h"
#include "obs/registry.h"
#include "obs/span.h"

namespace msts::path {

namespace {

constexpr std::size_t K = kLanes;
// Deviates drawn per lane at a time. fill_normal over consecutive blocks
// returns exactly what one call over the whole record would.
constexpr std::size_t kBlock = 1024;

// One stage of a batch: the devices, their streams and the interleaved
// record the stage transforms in place. Until the first stage has run, the
// stage input is the shared stimulus rather than the record.
struct Batch {
  std::span<const PathGraph* const> devices;
  std::span<stats::Rng* const> rngs;
  const double* rf;
  bool shared_input;
  std::size_t n;
  double fs;
  LaneWorkspace& ws;

  // Clock spur of an LPF that feeds the ADC directly, left for the tail:
  // the ADC reads only every decimation-th sample, so only those need it.
  bool spur_pending = false;
  double spur_omega[K] = {}, spur_v[K] = {};

  std::size_t lanes() const { return devices.size(); }
  double* wave() { return ws.wave.data(); }
  // The interleaved deviate block, and the LO walk's interleaved block.
  double* noise() { return ws.block.data(); }
  double* lo_wave() { return ws.block.data() + K * kBlock; }
  // Draws the next m deviates of every lane in `mask` from *rngs_of[l]
  // into its slots of the interleaved block `dst`, the lanes' draw loops
  // side by side.
  void draw(unsigned mask, std::size_t m, stats::Rng* const* rngs_of, double* dst) {
    stats::Rng* rngs_in[K];
    double* outs[K];
    std::size_t count = 0;
    for (std::size_t l = 0; l < lanes(); ++l) {
      if (((mask >> l) & 1u) == 0) continue;
      rngs_in[count] = rngs_of[l];
      outs[count++] = dst + l;
    }
    stats::Rng::fill_normal_lanes({rngs_in, count}, {outs, count}, m, K);
  }
  // The stage input of samples [i0, ...): the shared stimulus or the
  // interleaved record.
  const double* in_at(std::size_t i0) const {
    return shared_input ? rf + i0 : ws.wave.data() + i0 * K;
  }
};

void require_one_structure(std::span<const PathGraph* const> devices) {
  const PathGraph& first = *devices[0];
  for (const PathGraph* d : devices) {
    bool same = d->size() == first.size() &&
                d->config().analog_fs == first.config().analog_fs &&
                d->config().adc_decimation() == first.config().adc_decimation();
    for (std::size_t i = 0; same && i < first.size(); ++i) {
      same = d->kind_at(i) == first.kind_at(i) &&
             (first.kind_at(i) != BlockKind::kLpf ||
              d->lpf_at(i).order() == first.lpf_at(i).order());
    }
    MSTS_REQUIRE(same, "lane devices must share one graph structure");
  }
}

// The memoryless stages draw every lane's noise a block at a time,
// interleaved, then run the block through the stage's lane kernel, which
// evaluates the one-device expression (base/chains.h) on every lane.
void run_amp(std::size_t stage, Batch& b) {
  simd::AmpLanes amp;
  for (std::size_t l = 0; l < b.lanes(); ++l) {
    const analog::Amplifier::Coeffs k = b.devices[l]->amp_at(stage).coeffs(b.fs);
    amp.a1[l] = k.a1;
    amp.c2[l] = k.c2;
    amp.c3[l] = k.c3;
    amp.vsat[l] = k.vsat;
    amp.noise_sigma[l] = k.noise_sigma;
    amp.dc_offset_v[l] = k.dc_offset_v;
  }
  amp.active = (1u << b.lanes()) - 1u;
  const simd::Kernels& kern = simd::kernels();
  for (std::size_t i0 = 0; i0 < b.n; i0 += kBlock) {
    const std::size_t m = std::min(kBlock, b.n - i0);
    b.draw(amp.active, m, b.rngs.data(), b.noise());
    kern.amp_lanes(amp, b.in_at(i0), b.shared_input, b.noise(), b.wave() + i0 * K, m);
  }
}

void run_mixer(std::size_t stage, Batch& b) {
  analog::Mixer::Coeffs k[K];
  simd::LoLanes lo;
  simd::MixerLanes mix;
  stats::Rng mixer_rng[K], mixer_start[K];
  stats::Rng* mixer_rngs[K] = {};
  for (std::size_t l = 0; l < b.lanes(); ++l) {
    const PathGraph::MixerStage& st = b.devices[l]->mixer_at(stage);
    k[l] = st.mixer.coeffs(b.fs);
    const double omega = st.lo.omega(b.fs);
    if (st.lo.actual_phase_noise_rad() == 0.0) {
      // A jitter-free LO draws nothing: its carrier is the add_cosine of
      // LocalOscillator::generate_into, and the mixer's noise follows on
      // the lane's stream. Such a lane mixes on its own.
      b.ws.record.assign(b.n, 0.0);
      dsp::add_cosine(b.ws.record.data(), b.n, omega, 0.0, st.lo.amplitude());
      const double* carrier = b.ws.record.data();
      const std::size_t stride = b.shared_input ? 1 : K;
      const double* in = b.shared_input ? b.rf : b.wave() + l;
      for (std::size_t i0 = 0; i0 < b.n; i0 += kBlock) {
        const std::size_t m = std::min(kBlock, b.n - i0);
        b.draw(1u << l, m, b.rngs.data(), b.noise());
        for (std::size_t j = 0; j < m; ++j) {
          const std::size_t i = i0 + j;
          b.wave()[i * K + l] =
              analog::Mixer::apply(k[l], in[i * stride], b.noise()[j * K + l], carrier[i]);
        }
      }
      continue;
    }
    lo.active |= 1u << l;
    lo.osc[l] = dsp::PhasorOscillator(omega, 0.0).state();
    lo.phase_noise[l] = st.lo.actual_phase_noise_rad();
    lo.amplitude[l] = st.lo.amplitude();
    mix.a1[l] = k[l].a1;
    mix.c3[l] = k[l].c3;
    mix.vsat[l] = k[l].vsat;
    mix.leak[l] = k[l].leak;
    mix.noise_sigma[l] = k[l].noise_sigma;
    mixer_rng[l] = *b.rngs[l];
    mixer_rngs[l] = &mixer_rng[l];
  }
  if (lo.active == 0) return;
  mix.active = lo.active;
  const auto jittered = [&](std::size_t l) { return ((lo.active >> l) & 1u) != 0; };
  // The mixer's noise follows the LO walk's n deviates on each stream.
  stats::Rng* skip[K];
  std::size_t skipped = 0;
  for (std::size_t l = 0; l < b.lanes(); ++l) {
    if (jittered(l)) skip[skipped++] = mixer_rngs[l];
  }
  stats::Rng::skip_normal_lanes({skip, skipped}, b.n);
  for (std::size_t l = 0; l < b.lanes(); ++l) mixer_start[l] = mixer_rng[l];

  // Jittered lanes, per block: every lane's LO walk deviates, drawn from
  // its stream straight into the LO block; the LO kernel turns them into
  // carrier samples in place; then every lane's mixer noise from its mixer
  // cursor, and the mixer kernel.
  double* lo_wave = b.lo_wave();
  std::fill(lo_wave, lo_wave + K * kBlock, 0.0);  // idle lanes stay finite
  const simd::Kernels& kern = simd::kernels();
  for (std::size_t i0 = 0; i0 < b.n; i0 += kBlock) {
    const std::size_t m = std::min(kBlock, b.n - i0);
    b.draw(lo.active, m, b.rngs.data(), lo_wave);
    kern.lo_lanes(lo, lo_wave, m);
    b.draw(lo.active, m, mixer_rngs, b.noise());
    kern.mixer_lanes(mix, b.in_at(i0), b.shared_input, b.noise(), lo_wave,
                     b.wave() + i0 * K, m);
  }
  for (std::size_t l = 0; l < b.lanes(); ++l) {
    if (!jittered(l)) continue;
    // The LO walk must have ended exactly where the skip started the mixer.
    MSTS_REQUIRE(*b.rngs[l] == mixer_start[l], "LO and mixer stream cursors diverged");
    *b.rngs[l] = mixer_rng[l];
  }
}

void run_lpf(std::size_t stage, Batch& b, bool feeds_adc) {
  simd::LpfCascade f[K];
  for (std::size_t l = 0; l < b.lanes(); ++l) {
    const analog::LowPassFilter& lpf = b.devices[l]->lpf_at(stage);
    const analog::LowPassFilter::Design d = lpf.design(b.fs);
    f[l] = d.cascade;
    b.spur_omega[l] = d.spur_omega;
    b.spur_v[l] = lpf.actual_clock_spur_v();
  }
  if (b.shared_input) {
    for (std::size_t i = 0; i < b.n; ++i) {
      for (std::size_t l = 0; l < b.lanes(); ++l) b.wave()[i * K + l] = b.rf[i];
    }
  }
  simd::kernels().lpf_lanes(f, b.wave(), b.n);
  // The clock spur, lane by lane: add_cosine runs on a contiguous record.
  if (feeds_adc) {
    b.spur_pending = true;
    return;
  }
  b.ws.record.resize(b.n);
  double* rec = b.ws.record.data();
  for (std::size_t l = 0; l < b.lanes(); ++l) {
    for (std::size_t i = 0; i < b.n; ++i) rec[i] = b.wave()[i * K + l];
    dsp::add_cosine(rec, b.n, b.spur_omega[l], 0.0, b.spur_v[l]);
    for (std::size_t i = 0; i < b.n; ++i) b.wave()[i * K + l] = rec[i];
  }
}

}  // namespace

void run_lanes(std::span<const PathGraph* const> devices, const analog::Signal& rf,
               std::span<stats::Rng* const> rngs, LaneWorkspace& ws) {
  MSTS_REQUIRE(!devices.empty() && devices.size() <= K,
               "a lane batch runs 1..kLanes devices");
  MSTS_REQUIRE(rngs.size() == devices.size(), "one noise stream per lane");
  require_one_structure(devices);
  const PathGraph& g = *devices[0];
  const PathGraphConfig& config = g.config();
  MSTS_REQUIRE(rf.fs == config.analog_fs, "RF input must use the analog rate");

  obs::Span span("path.run_lanes");
  span.note("lanes", static_cast<std::int64_t>(devices.size()));
  obs::counter_add("path.run.analog_samples", devices.size() * rf.size());

  const std::size_t n = rf.size();
  ws.wave.resize(K * n);
  ws.block.resize(2 * K * kBlock);
  if (devices.size() < K) {
    // Idle lanes ride along in the vector kernels: keep them finite.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t l = devices.size(); l < K; ++l) ws.wave[i * K + l] = 0.0;
    }
  }
  Batch b{devices, rngs, rf.samples.data(), true, n, rf.fs, ws};
  const std::size_t adc = config.first_index(BlockKind::kAdc);
  for (std::size_t s = 0; s < adc; ++s) {
    switch (g.kind_at(s)) {
      case BlockKind::kAmp: {
        obs::Span stage("path.lanes.amp");
        run_amp(s, b);
        break;
      }
      case BlockKind::kMixer: {
        obs::Span stage("path.lanes.mixer");
        run_mixer(s, b);
        break;
      }
      case BlockKind::kLpf: {
        obs::Span stage("path.lanes.lpf");
        run_lpf(s, b, s + 1 == adc);
        break;
      }
      default: break;
    }
    b.shared_input = false;
  }

  {
    obs::Span stage("path.lanes.adc");
    for (std::size_t l = 0; l < devices.size(); ++l) {
      PathGraph::Trace& t = ws.traces[l];
      t.analog_stages.clear();
      t.digital_fs = config.digital_fs();
      const PathGraph::AdcStage& a = devices[l]->adc_at(adc);
      if (b.shared_input) {
        a.adc.digitize_strided(rf.samples.data(), n, 1, a.decimation, t.adc_codes);
      } else if (b.spur_pending) {
        // The converted samples of the filter output, in place in a zeroed
        // record, then the spur over the whole record: each converted sample
        // is exactly the filter output plus the spur, as in the one-device
        // walk; the samples in between are never read.
        ws.record.assign(n, 0.0);
        for (std::size_t i = 0; i < n; i += a.decimation) ws.record[i] = ws.wave[i * K + l];
        dsp::add_cosine(ws.record.data(), n, b.spur_omega[l], 0.0, b.spur_v[l]);
        a.adc.digitize_strided(ws.record.data(), n, 1, a.decimation, t.adc_codes);
      } else {
        a.adc.digitize_strided(ws.wave.data() + l, n, K, a.decimation, t.adc_codes);
      }
    }
  }

  obs::Span stage("path.lanes.fir");
  for (std::size_t l = 0; l < devices.size(); ++l) {
    PathGraph::Trace& t = ws.traces[l];
    if (adc + 1 < devices[l]->size()) {
      const PathGraph::FirStage& fir = devices[l]->fir_at(adc + 1);
      digital::fir_block_into(fir.coeffs, fir.input_bits, t.adc_codes, t.filter_out);
    } else {
      t.filter_out.clear();
    }
  }
}

}  // namespace msts::path
