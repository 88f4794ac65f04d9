# Golden output check, run by ctest as `cmake -P`. Two modes:
#
#   cmake -DPROGRAM=<siopmp-cli> -DARGS="<command and flags>"
#         -DGOLDEN=<committed .json> -DOUT=<fresh .json> -P compare.cmake
#
# runs `PROGRAM ARGS --stats-json OUT` and compares the stats dump;
#
#   cmake -DPROGRAM=<binary> -DARGS="<flags>" -DSTDOUT=ON
#         -DGOLDEN=<committed .txt> -DOUT=<fresh .txt> -P compare.cmake
#
# runs `PROGRAM ARGS` with its standard output in OUT. Either way every
# SIOPMP_* variable is removed from the environment first, so no knob
# can steer the run, and OUT must equal GOLDEN byte for byte.
#
# A golden is regenerated by running its command by hand, with SIOPMP_*
# unset, into tests/golden/ — and only when a change is meant to move
# the numbers. There is no update switch.

execute_process(COMMAND "${CMAKE_COMMAND}" -E environment
                OUTPUT_VARIABLE environment)
string(REGEX MATCHALL "(^|\n)SIOPMP_[A-Za-z0-9_]*=" knobs "${environment}")
foreach(knob IN LISTS knobs)
    string(REGEX REPLACE "^\n?(.*)=$" "\\1" knob "${knob}")
    unset(ENV{${knob}})
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
get_filename_component(out_dir "${OUT}" DIRECTORY)
file(MAKE_DIRECTORY "${out_dir}")
get_filename_component(program "${PROGRAM}" NAME)
string(STRIP "${program} ${ARGS}" command)
if(STDOUT)
    set(what "the standard output")
    execute_process(COMMAND "${PROGRAM}" ${args}
                    RESULT_VARIABLE status OUTPUT_FILE "${OUT}")
else()
    set(what "the stats dump")
    execute_process(COMMAND "${PROGRAM}" ${args} --stats-json "${OUT}"
                    RESULT_VARIABLE status OUTPUT_QUIET)
endif()
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${command} failed: ${status}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${OUT}" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${what} of `${command}` (${OUT}) "
                        "differs from ${GOLDEN}")
endif()
