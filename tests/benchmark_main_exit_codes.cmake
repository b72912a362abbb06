# Runs a generated benchmark main (MAIN) from its package directory with
# arguments it must refuse, and checks each exit status: 1 when the replay
# fails after verification, 2 for a usage error.
#
#   cmake -DMAIN=<benchmark_main> -P benchmark_main_exit_codes.cmake

function(expect_exit code)
  execute_process(COMMAND "${MAIN}" ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${code}")
    message(FATAL_ERROR "benchmark_main ${ARGN}: exit ${rc}, expected ${code}\n${err}")
  endif()
endfunction()

expect_exit(1 NoSuchPlatform)
expect_exit(2 A100 0)
