# Runs one command line and checks both its exit status and its output:
#
#   cmake -DEXPECT_EXIT=N -DEXPECT_OUTPUT=REGEX -DCOMMAND=PROG|ARG|... \
#         -P cli_expect.cmake
#
# COMMAND separates its words with '|' so that they survive add_test as one
# argument. stdout and stderr are matched together.
string(REPLACE "|" ";" cmd "${COMMAND}")
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "exit status ${rc}, expected ${EXPECT_EXIT}\n${out}")
endif()
if(NOT out MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "output does not match '${EXPECT_OUTPUT}'\n${out}")
endif()
