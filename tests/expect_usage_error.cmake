# Runs `BIN ARGS...` and passes iff it exits with status 2 (a usage error)
# and its stderr matches the regex EXPECT. Invoked by ctest:
#   cmake -DBIN=<binary> "-DARGS=<space-separated arguments>" -DEXPECT=<regex>
#         -P <this file>
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "${BIN} ${ARGS}: exit status ${status}, expected 2\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "${BIN} ${ARGS}: stderr does not match \"${EXPECT}\":\n${err}")
endif()
