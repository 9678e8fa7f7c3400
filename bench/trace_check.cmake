# Observability artifact check: run bench_serve_cluster with --trace-out /
# --metrics-out at --threads 1 and --threads 4, require the two runs'
# trace and metrics files to be byte-identical (the recorder's determinism
# contract), validate the trace structure with
# scripts/check_trace_json.py (required keys, per-track monotone
# timestamps, balanced B/E spans), and compare its per-name event counts
# against COUNTS_GOLDEN, so the trace cannot grow silently.
#
# Usage:
#   cmake -DBINARY=<exe> -DPYTHON=<python3> -DCHECKER=<check_trace_json.py>
#         -DWORKDIR=<dir> -DCOUNTS_GOLDEN=<file> [-DUPDATE=1]
#         -P trace_check.cmake
#
# UPDATE=1 rewrites COUNTS_GOLDEN instead of comparing (the
# `update-goldens` build target drives this).

foreach(var BINARY PYTHON CHECKER WORKDIR COUNTS_GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "trace_check.cmake needs -D${var}=...")
  endif()
endforeach()

foreach(threads 1 4)
  execute_process(
    COMMAND ${BINARY} --threads ${threads}
      --trace-out ${WORKDIR}/obs_trace_t${threads}.json
      --metrics-out ${WORKDIR}/obs_metrics_t${threads}.txt
    OUTPUT_QUIET
    ERROR_VARIABLE stderr_out
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "${BINARY} --threads ${threads} exited with ${rc}:\n${stderr_out}")
  endif()
endforeach()

foreach(kind trace_t1.json:trace_t4.json metrics_t1.txt:metrics_t4.txt)
  string(REPLACE ":" ";" pair ${kind})
  list(GET pair 0 a)
  list(GET pair 1 b)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
      ${WORKDIR}/obs_${a} ${WORKDIR}/obs_${b}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "obs_${a} and obs_${b} differ — the recorder broke the "
      "byte-identical-across-threads contract")
  endif()
endforeach()

execute_process(
  COMMAND ${PYTHON} ${CHECKER} ${WORKDIR}/obs_trace_t1.json
    --min-events 1000 --counts-out ${WORKDIR}/obs_trace_counts.txt
  OUTPUT_VARIABLE checker_out
  ERROR_VARIABLE checker_err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "check_trace_json.py failed:\n${checker_out}${checker_err}")
endif()
message(STATUS "${checker_out}")

file(READ ${WORKDIR}/obs_trace_counts.txt counts)
if(DEFINED UPDATE)
  file(WRITE ${COUNTS_GOLDEN} "${counts}")
  message(STATUS "updated ${COUNTS_GOLDEN}")
  return()
endif()
file(READ ${COUNTS_GOLDEN} expected)
if(NOT counts STREQUAL expected)
  message(FATAL_ERROR
    "per-name trace event counts differ from ${COUNTS_GOLDEN}:\n"
    "--- expected\n${expected}--- actual\n${counts}"
    "If the change is intended, run `cmake --build <dir> --target "
    "update-goldens` and commit the new counts.")
endif()
