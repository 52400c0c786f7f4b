# ctest driver for ftnoc_fuzz command-line checks. Runs FUZZ with ARGS
# (space-separated; with REPRO set, LINE is first written to that file)
# and passes iff the tool exits with RC and its output matches EXPECT
# (PASS_REGULAR_EXPRESSION alone would ignore the exit status).
#   cmake -DFUZZ=<ftnoc_fuzz> -DARGS=<args> -DRC=<code> -DEXPECT=<regex>
#         [-DREPRO=<file> -DLINE=<key=value>] -P fuzz_cli.cmake
if(DEFINED REPRO)
  file(WRITE "${REPRO}" "${LINE}\n")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${FUZZ}" ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL RC)
  message(FATAL_ERROR "expected exit ${RC}, got ${rc}:\n${out}")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match '${EXPECT}':\n${out}")
endif()
