// Compatibility shim: the toolkit has no trace-event buffer; spans
// (obs/span.h) are the whole trace. perfbench/harness.cpp still includes
// this header and calls trace_take() when it drains a batch, so the call
// stays as a no-op until perfbench drops it.
#pragma once

namespace msts::obs {

inline void trace_take() {}

}  // namespace msts::obs
