# Benchmark-regression harness: run one fixed-seed bench binary and diff
# its stdout against the checked-in golden. Tables are byte-identical
# across thread counts by construction (SimContext collects sweep results
# in point order), so the same golden serves --threads 1 and --threads N.
#
# Usage:
#   cmake -DBINARY=<exe> -DGOLDEN=<file> [-DTHREADS=N] [-DUPDATE=1]
#         [-DMETRICS_OUT=<file>] -P golden_diff.cmake
#
# METRICS_OUT switches the diffed artifact from stdout to the metrics
# exposition: the bench runs with `--metrics-out <file>` and that file's
# contents are compared against (or written to) GOLDEN.
#
# UPDATE=1 rewrites the golden instead of diffing (the `update-goldens`
# build target drives this; see README "Benchmark goldens").

if(NOT DEFINED BINARY OR NOT DEFINED GOLDEN)
  message(FATAL_ERROR "golden_diff.cmake needs -DBINARY=... and -DGOLDEN=...")
endif()
if(NOT DEFINED THREADS)
  set(THREADS 1)
endif()

set(extra_args)
if(DEFINED METRICS_OUT)
  file(REMOVE ${METRICS_OUT})
  set(extra_args --metrics-out ${METRICS_OUT})
endif()

execute_process(
  COMMAND ${BINARY} --threads ${THREADS} ${extra_args}
  OUTPUT_VARIABLE actual
  ERROR_VARIABLE stderr_out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with ${rc}:\n${stderr_out}")
endif()
if(DEFINED METRICS_OUT)
  file(READ ${METRICS_OUT} actual)
endif()

if(DEFINED UPDATE)
  file(WRITE ${GOLDEN} "${actual}")
  message(STATUS "updated ${GOLDEN}")
  return()
endif()

if(NOT EXISTS ${GOLDEN})
  message(FATAL_ERROR
    "missing golden ${GOLDEN}; run `cmake --build <dir> --target "
    "update-goldens` and commit the result")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  file(WRITE ${GOLDEN}.actual "${actual}")
  message(FATAL_ERROR
    "benchmark output drifted from ${GOLDEN} (threads=${THREADS}).\n"
    "Inspect:  diff ${GOLDEN} ${GOLDEN}.actual\n"
    "If the change is intended, run `cmake --build <dir> --target "
    "update-goldens` and commit the refreshed goldens.")
endif()
