# Own-stream check for the siopmp_fuzz campaign legs, run by ctest as
# `cmake -P`:
#
#   cmake -DPROGRAM=<siopmp_fuzz> -P fuzz_legs.cmake
#
# Runs a small default campaign with --verbose and passes only when it
# exits 0 and its six dense legs report six different op counts: each
# leg draws its own seed, so no two replay one op stream.

execute_process(COMMAND "${PROGRAM}" --cases 40 --wide-cases 0 --seed 1
                        --verbose
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_QUIET)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "siopmp_fuzz exited with ${status}:\n${out}")
endif()
string(REGEX MATCHALL "cases, [0-9]+ ops" counts "${out}")
list(LENGTH counts legs)
if(NOT legs EQUAL 6)
    message(FATAL_ERROR "expected 6 dense legs, read ${legs}:\n${out}")
endif()
list(REMOVE_DUPLICATES counts)
list(LENGTH counts distinct)
if(NOT distinct EQUAL 6)
    message(FATAL_ERROR "dense legs share op counts:\n${out}")
endif()
