# Runs one bench at reduced scale with span tracing on and a Perfetto export
# path set, then validates both outputs: the BENCH_<name>.json report (which
# must carry a non-empty spans / span_stages section) and the exported Chrome
# trace-event file (bench_validate --trace checks slice shape and async
# begin/end balance). Invoked by the trace_smoke CTest test as
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

# The validator checks the span sections when they are present; a traced
# run must also have them, with at least one span recorded.
file(READ "${OUT_DIR}/${JSON_NAME}" report)
string(JSON span_count ERROR_VARIABLE spans_err GET "${report}" spans)
if(spans_err)
  message(FATAL_ERROR "traced report has no 'spans': ${spans_err}")
endif()
string(JSON stage_count ERROR_VARIABLE stages_err LENGTH "${report}" span_stages)
if(stages_err)
  message(FATAL_ERROR "traced report has no 'span_stages': ${stages_err}")
endif()
if(span_count LESS_EQUAL 0 OR stage_count LESS_EQUAL 0)
  message(FATAL_ERROR "traced report recorded nothing: spans=${span_count}, "
                      "span_stages has ${stage_count} entries")
endif()

if(NOT EXISTS "${OUT_DIR}/trace.json")
  message(FATAL_ERROR "traced bench did not export ${OUT_DIR}/trace.json")
endif()
execute_process(COMMAND "${VALIDATOR}" --trace "${OUT_DIR}/trace.json"
                RESULT_VARIABLE trace_rc)
if(NOT trace_rc EQUAL 0)
  message(FATAL_ERROR "Perfetto trace validation failed (status ${trace_rc})")
endif()
