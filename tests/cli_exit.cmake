# Runs a command-line tool and requires an exact exit code plus a stderr
# match, which plain add_test cannot express (PASS_REGULAR_EXPRESSION
# ignores the exit code). Usage:
#   cmake -DCMD=<binary> "-DARGS=<args>" -DEXIT=<code> "-DMATCH=<regex>"
#         -P cli_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CMD}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL EXIT)
  message(FATAL_ERROR "${CMD} ${ARGS}: exit ${rc}, expected ${EXIT}\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "${MATCH}")
  message(FATAL_ERROR "${CMD} ${ARGS}: stderr does not match '${MATCH}'\n"
                      "stderr: ${err}")
endif()
