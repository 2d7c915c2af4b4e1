// The layer probe of a traced run: each workload's op taken apart into the
// public calls of the layers it crosses, every call wrapped in an obs::Span
// named after the per-layer metric it feeds. It runs in every traced run on
// the same seeded inputs, so every per-layer metric is measured in every
// workload; the service metrics of synth_serve come from its own traffic
// instead (Workload::traced_metrics).
#pragma once

#include <cstdint>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {

/// Counts the probe derives besides its span durations.
struct ProbeFacts {
  double detected = 0.0;        ///< Faults of slice 0 the sec. 5 flow detects.
  double fault_patterns = 0.0;  ///< Fault x pattern evaluations simulated.
  double waveform_mb = 0.0;     ///< Largest capture: faults x record x 8 B.
  double record_samples = 0.0;  ///< Analog samples per path transient.
};

/// Runs the probe with collection on; the caller drains the spans.
ProbeFacts run_layer_probe(std::uint64_t seed);

/// The probe's per-layer metrics from the drained spans.
void probe_metrics(const SpanLog& log, const ProbeFacts& facts, std::vector<Metric>& out);

}  // namespace perfbench
