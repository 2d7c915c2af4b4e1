// Executable production test program.
//
// The deliverable of the paper's flow: an ordered list of system-level test
// steps — composites first (path gain, LO frequency: the adaptive strategy's
// shared measurements), then the propagated parameter tests — each with
// guard-banded pass limits derived from the synthesis error budgets. Running
// the program against a device produces a production-style datalog and a
// pass/fail bin.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/translation.h"
#include "path/path_graph.h"
#include "stats/yield.h"

namespace msts::core {

/// Threshold placement policy for every step (the Table 2 columns).
enum class GuardBandPolicy {
  kAtTol,      ///< Thresholds at the specification limits.
  kMinusErr,   ///< Loosened by the error budget: zero yield loss.
  kPlusErr,    ///< Tightened by the error budget: zero test escapes.
};

std::string to_string(GuardBandPolicy policy);

/// Measurements shared across steps (the adaptive strategy's state).
struct TestContext {
  std::optional<double> path_gain_db;
  std::optional<double> lo_error_ppm;
};

/// One executable step.
struct TestStep {
  std::string name;
  std::string unit;
  stats::SpecLimits spec;        ///< True specification on the parameter.
  stats::SpecLimits limits;      ///< Guard-banded test limits actually applied.
  double error_budget_wc = 0.0;  ///< Worst-case computation error (unit).
  std::function<double(const path::PathGraph&, stats::Rng&, TestContext&)> measure;
};

/// Datalog entry for one executed step.
struct StepResult {
  std::string name;
  std::string unit;
  double measured = 0.0;
  bool pass = false;
  /// Distance from the measured value to the nearest applied limit
  /// (positive inside the window).
  double margin = 0.0;
};

/// Datalog for one device.
struct DeviceResult {
  std::vector<StepResult> steps;
  bool pass = true;
  std::string failed_at;  ///< First failing step (empty if passing).
};

/// An ordered, guard-banded system-level test program.
class TestProgram {
 public:
  /// Synthesizes the program for a path graph. The parameter steps test the
  /// first mixer, its LO, the first LPF and the ADC, as the translator does.
  TestProgram(const path::PathGraphConfig& graph, GuardBandPolicy policy,
              path::MeasureOptions opts = {});

  /// Runs all steps against a device. With `stop_on_fail` the program exits
  /// at the first failing step (production behaviour); the remaining steps
  /// are not logged.
  DeviceResult run(const path::PathGraph& device, stats::Rng& noise_rng,
                   bool stop_on_fail = false) const;

  const std::vector<TestStep>& steps() const { return steps_; }
  GuardBandPolicy policy() const { return policy_; }

 private:
  Translator translator_;
  GuardBandPolicy policy_;
  path::MeasureOptions opts_;
  std::vector<TestStep> steps_;
};

/// Renders a datalog as an aligned table.
std::string format_datalog(const DeviceResult& result);

}  // namespace msts::core
