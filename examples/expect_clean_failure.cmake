# Clean-failure check: run one binary with a bad argument and require a
# one-line error on stderr and exit code 2 (never std::terminate's 134).
#
# Usage:
#   cmake -DBINARY=<exe> "-DARGS=--flag;value" -P expect_clean_failure.cmake

if(NOT DEFINED BINARY)
  message(FATAL_ERROR "expect_clean_failure.cmake needs -DBINARY=...")
endif()

execute_process(
  COMMAND ${BINARY} ${ARGS}
  OUTPUT_VARIABLE stdout_out
  ERROR_VARIABLE stderr_out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
    "${BINARY} ${ARGS} exited with `${rc}`, expected 2:\n${stderr_out}")
endif()
string(REGEX MATCHALL "\n" newlines "${stderr_out}")
list(LENGTH newlines lines)
if(NOT lines EQUAL 1 OR NOT stderr_out MATCHES ": error: ")
  message(FATAL_ERROR
    "expected exactly one `<binary>: error: ...` line on stderr, got:\n"
    "${stderr_out}")
endif()
