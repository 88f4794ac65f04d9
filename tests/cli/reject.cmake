# Refused-flag check, run by ctest as `cmake -P`:
#
#   cmake -DPROGRAM=<tool> -DARGS="<command and flags>"
#         -DMESSAGE=<regex> -P reject.cmake
#
# Runs `PROGRAM ARGS` and passes only when it exits with status 2 and
# its standard error matches MESSAGE.

get_filename_component(program "${PROGRAM}" NAME)
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE error)
if(NOT status EQUAL 2)
    message(FATAL_ERROR "`${program} ${ARGS}` exited with ${status}, "
                        "not 2")
endif()
if(NOT error MATCHES "${MESSAGE}")
    message(FATAL_ERROR "`${program} ${ARGS}` printed \"${error}\", "
                        "which does not match \"${MESSAGE}\"")
endif()
