# Runs one bench at reduced scale with metrics and span tracing on and a
# Perfetto export path set, then validates both outputs: the BENCH_<name>.json
# report (which must count recorded spans and carry at least one timer entry,
# the per-stage latency aggregate) and the exported Chrome trace-event file
# (bench_validate --trace checks slice shape and async begin/end balance).
# Invoked by the trace_smoke CTest test as
#   cmake -DBENCH_EXE=... -DVALIDATOR=... -DJSON_NAME=... -DOUT_DIR=...
#         -P run_trace_smoke.cmake
foreach(var BENCH_EXE VALIDATOR JSON_NAME OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_trace_smoke.cmake: missing -D${var}=...")
  endif()
endforeach()

if(NOT DEFINED ENV{MSTS_BENCH_SCALE})
  set(ENV{MSTS_BENCH_SCALE} "0.04")
endif()
if(NOT DEFINED ENV{MSTS_THREADS})
  set(ENV{MSTS_THREADS} "2")
endif()

file(MAKE_DIRECTORY "${OUT_DIR}")
set(ENV{MSTS_BENCH_JSON_DIR} "${OUT_DIR}")
set(ENV{MSTS_METRICS} "1")
set(ENV{MSTS_TRACE} "1")
set(ENV{MSTS_TRACE_PATH} "${OUT_DIR}/trace.json")

execute_process(COMMAND "${BENCH_EXE}" RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "traced bench exited with status ${bench_rc}")
endif()

execute_process(COMMAND "${VALIDATOR}" "${OUT_DIR}/${JSON_NAME}"
                RESULT_VARIABLE validate_rc)
if(NOT validate_rc EQUAL 0)
  message(FATAL_ERROR "bench report validation failed (status ${validate_rc})")
endif()

# The validator checks the span count and the metric entries when they are
# present; a traced, metered run must also have them: at least one span and
# at least one timer.
file(READ "${OUT_DIR}/${JSON_NAME}" report)
string(JSON span_count ERROR_VARIABLE spans_err GET "${report}" spans)
if(spans_err)
  message(FATAL_ERROR "traced report has no 'spans': ${spans_err}")
endif()
string(JSON metric_count ERROR_VARIABLE metrics_err LENGTH "${report}" metrics)
if(metrics_err)
  message(FATAL_ERROR "metered report has no 'metrics': ${metrics_err}")
endif()
set(timer_count 0)
if(metric_count GREATER 0)
  math(EXPR last "${metric_count} - 1")
  foreach(i RANGE ${last})
    string(JSON kind GET "${report}" metrics ${i} kind)
    if(kind STREQUAL "timer")
      math(EXPR timer_count "${timer_count} + 1")
    endif()
  endforeach()
endif()
if(span_count LESS_EQUAL 0 OR timer_count LESS_EQUAL 0)
  message(FATAL_ERROR "traced report recorded nothing: spans=${span_count}, "
                      "${timer_count} timer entries")
endif()

if(NOT EXISTS "${OUT_DIR}/trace.json")
  message(FATAL_ERROR "traced bench did not export ${OUT_DIR}/trace.json")
endif()
execute_process(COMMAND "${VALIDATOR}" --trace "${OUT_DIR}/trace.json"
                RESULT_VARIABLE trace_rc)
if(NOT trace_rc EQUAL 0)
  message(FATAL_ERROR "Perfetto trace validation failed (status ${trace_rc})")
endif()
