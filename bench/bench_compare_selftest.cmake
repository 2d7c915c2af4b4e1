# End-to-end check of the bench_compare exit-code contract on synthetic
# schema-v1 reports. Invoked by the bench_compare_selftest CTest as
#   cmake -DCOMPARER=... -DOUT_DIR=... -P bench_compare_selftest.cmake
# Cases: identity must pass (0), a known regression pair must fail (1),
# mismatched bench names must be a usage error (2), the directional scalar
# gate must pass perf improvements while failing perf regressions, and a
# null (non-finite) candidate scalar must fail (1).
foreach(var COMPARER OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_compare_selftest.cmake: missing -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY "${OUT_DIR}")

set(baseline "${OUT_DIR}/baseline.json")
file(WRITE "${baseline}" [=[
{"bench": "selftest", "schema_version": 1, "threads": 2, "scale": 1.0,
 "phases": [{"name": "setup", "wall_s": 0.5}, {"name": "run", "wall_s": 2.0}],
 "total_wall_s": 2.5,
 "scalars": {"gain_db": 25.0, "coverage": 0.95}}
]=])

# Candidate with a scalar drifted far beyond 25% and a 2x-slower phase.
set(regressed "${OUT_DIR}/regressed.json")
file(WRITE "${regressed}" [=[
{"bench": "selftest", "schema_version": 1, "threads": 2, "scale": 1.0,
 "phases": [{"name": "setup", "wall_s": 0.5}, {"name": "run", "wall_s": 4.0}],
 "total_wall_s": 4.5,
 "scalars": {"gain_db": 12.0, "coverage": 0.95}}
]=])

set(other_bench "${OUT_DIR}/other_bench.json")
file(WRITE "${other_bench}" [=[
{"bench": "different", "schema_version": 1, "threads": 2, "scale": 1.0,
 "phases": [], "total_wall_s": 0.0, "scalars": {}}
]=])

execute_process(COMMAND "${COMPARER}" "${baseline}" "${baseline}"
                RESULT_VARIABLE identity_rc)
if(NOT identity_rc EQUAL 0)
  message(FATAL_ERROR "identity compare should pass, got status ${identity_rc}")
endif()

execute_process(COMMAND "${COMPARER}" "${baseline}" "${regressed}"
                RESULT_VARIABLE regress_rc)
if(NOT regress_rc EQUAL 1)
  message(FATAL_ERROR "regression pair should exit 1, got status ${regress_rc}")
endif()

# At a looser threshold the 52% scalar drift falls inside tolerance but the
# 2x wall-time slowdowns must still be flagged.
execute_process(COMMAND "${COMPARER}" --threshold 0.6 "${baseline}" "${regressed}"
                RESULT_VARIABLE loose_rc)
if(NOT loose_rc EQUAL 1)
  message(FATAL_ERROR "2x wall-time slowdown should still exit 1 at threshold 0.6, got ${loose_rc}")
endif()

execute_process(COMMAND "${COMPARER}" "${baseline}" "${other_bench}"
                RESULT_VARIABLE mismatch_rc)
if(NOT mismatch_rc EQUAL 2)
  message(FATAL_ERROR "bench-name mismatch should exit 2, got status ${mismatch_rc}")
endif()

# Directional scalars: latency-like keys ('latency', 'wait', *_ns,
# *_s_per_iter) only fail on increases; throughput-like keys ('per_sec',
# 'throughput') only fail on decreases. Symmetric keys still fail both ways.
set(perf_base "${OUT_DIR}/perf_base.json")
file(WRITE "${perf_base}" [=[
{"bench": "perf", "schema_version": 1, "threads": 2, "scale": 1.0,
 "phases": [], "total_wall_s": 1.0,
 "scalars": {"latency_p99_ns": 1000.0, "queue_wait_p99_ns": 400.0,
             "plans_per_sec": 50000.0, "coverage": 0.95}}
]=])

# Everything got faster: halved latencies, doubled throughput. Must pass.
set(perf_better "${OUT_DIR}/perf_better.json")
file(WRITE "${perf_better}" [=[
{"bench": "perf", "schema_version": 1, "threads": 2, "scale": 1.0,
 "phases": [], "total_wall_s": 1.0,
 "scalars": {"latency_p99_ns": 500.0, "queue_wait_p99_ns": 150.0,
             "plans_per_sec": 100000.0, "coverage": 0.95}}
]=])

execute_process(COMMAND "${COMPARER}" "${perf_base}" "${perf_better}"
                RESULT_VARIABLE better_rc)
if(NOT better_rc EQUAL 0)
  message(FATAL_ERROR "perf improvements should pass, got status ${better_rc}")
endif()

# Latency doubled: must fail even though every other scalar is unchanged.
set(perf_slow "${OUT_DIR}/perf_slow.json")
file(WRITE "${perf_slow}" [=[
{"bench": "perf", "schema_version": 1, "threads": 2, "scale": 1.0,
 "phases": [], "total_wall_s": 1.0,
 "scalars": {"latency_p99_ns": 2000.0, "queue_wait_p99_ns": 400.0,
             "plans_per_sec": 50000.0, "coverage": 0.95}}
]=])

execute_process(COMMAND "${COMPARER}" "${perf_base}" "${perf_slow}"
                RESULT_VARIABLE slow_rc)
if(NOT slow_rc EQUAL 1)
  message(FATAL_ERROR "latency regression should exit 1, got status ${slow_rc}")
endif()

# Throughput halved: must fail.
set(perf_throughput_drop "${OUT_DIR}/perf_throughput_drop.json")
file(WRITE "${perf_throughput_drop}" [=[
{"bench": "perf", "schema_version": 1, "threads": 2, "scale": 1.0,
 "phases": [], "total_wall_s": 1.0,
 "scalars": {"latency_p99_ns": 1000.0, "queue_wait_p99_ns": 400.0,
             "plans_per_sec": 25000.0, "coverage": 0.95}}
]=])

execute_process(COMMAND "${COMPARER}" "${perf_base}" "${perf_throughput_drop}"
                RESULT_VARIABLE tput_rc)
if(NOT tput_rc EQUAL 1)
  message(FATAL_ERROR "throughput drop should exit 1, got status ${tput_rc}")
endif()

# Added / removed scalars: benches legitimately grow (or retire) outputs, so
# a one-sided scalar must surface as an explicit note without failing.
set(grown "${OUT_DIR}/grown.json")
file(WRITE "${grown}" [=[
{"bench": "selftest", "schema_version": 1, "threads": 2, "scale": 1.0,
 "phases": [{"name": "setup", "wall_s": 0.5}, {"name": "run", "wall_s": 2.0}],
 "total_wall_s": 2.5,
 "scalars": {"gain_db": 25.0, "coverage": 0.95, "p99_latency_s": 0.004}}
]=])

execute_process(COMMAND "${COMPARER}" "${baseline}" "${grown}"
                RESULT_VARIABLE added_rc OUTPUT_VARIABLE added_out)
if(NOT added_rc EQUAL 0)
  message(FATAL_ERROR "added scalar should not fail, got status ${added_rc}")
endif()
if(NOT added_out MATCHES "new scalar 'p99_latency_s'")
  message(FATAL_ERROR "added scalar should be noted, got output: ${added_out}")
endif()

execute_process(COMMAND "${COMPARER}" "${grown}" "${baseline}"
                RESULT_VARIABLE removed_rc OUTPUT_VARIABLE removed_out)
if(NOT removed_rc EQUAL 0)
  message(FATAL_ERROR "removed scalar should not fail, got status ${removed_rc}")
endif()
if(NOT removed_out MATCHES "scalar 'p99_latency_s' missing from candidate")
  message(FATAL_ERROR "removed scalar should be noted, got output: ${removed_out}")
endif()

# A null candidate scalar is how the writer encodes NaN/Inf: the bench
# computed a non-finite headline number, so the compare must fail and name
# the key, not report it as missing.
set(perf_null "${OUT_DIR}/perf_null.json")
file(WRITE "${perf_null}" [=[
{"bench": "perf", "schema_version": 1, "threads": 2, "scale": 1.0,
 "phases": [], "total_wall_s": 1.0,
 "scalars": {"latency_p99_ns": 1000.0, "queue_wait_p99_ns": 400.0,
             "plans_per_sec": null, "coverage": 0.95}}
]=])

execute_process(COMMAND "${COMPARER}" "${perf_base}" "${perf_null}"
                RESULT_VARIABLE null_rc OUTPUT_VARIABLE null_out)
if(NOT null_rc EQUAL 1)
  message(FATAL_ERROR "null candidate scalar should exit 1, got status ${null_rc}")
endif()
if(NOT null_out MATCHES "scalar 'plans_per_sec' is null")
  message(FATAL_ERROR "null candidate scalar should be named, got output: ${null_out}")
endif()

message(STATUS "bench_compare selftest OK")
