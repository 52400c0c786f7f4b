# ctest driver for the ftnoc_fuzz --replay input checks. Writes a one-line
# repro file holding LINE, replays it with FUZZ, and passes iff the tool
# exits 2 with output matching EXPECT (PASS_REGULAR_EXPRESSION alone would
# ignore the exit status).
#   cmake -DFUZZ=<ftnoc_fuzz> -DREPRO=<file> -DLINE=<key=value>
#         -DEXPECT=<regex> -P fuzz_replay_rejects.cmake
file(WRITE "${REPRO}" "${LINE}\n")
execute_process(COMMAND "${FUZZ}" --replay "${REPRO}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit 2, got ${rc}:\n${out}")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match '${EXPECT}':\n${out}")
endif()
