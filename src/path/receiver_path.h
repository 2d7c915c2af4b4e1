// The experimental signal path of the paper (Fig. 6):
//   Amp -> Mixer (with LO) -> switched-cap LPF -> ADC -> digital FIR filter.
//
// One manufactured receiver is the canonical PathGraph instance: a flat
// PathConfig converts to its graph, so PathGraph(config) builds it at
// nominal, PathGraph::sampled(config, rng) draws it, and amp() / mixer() /
// lo() / lpf() / adc() / fir() name its blocks. Transient runs go from the
// primary RF input to the digital filter output — the only two points a
// translated test may touch. The name survives for the Fig. 6 chain's
// callers.
#pragma once

#include "path/path_graph.h"

namespace msts::path {

using ReceiverPath = PathGraph;

}  // namespace msts::path
