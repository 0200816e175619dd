# Runs m3e_cli with flag values the schedule simulation cannot run and
# requires each to exit with the usage-error code 2 within a few
# seconds: --bw 0 used to never return, and --bw -5 / nan, --group 0 or
# --budget 0 printed inf or an empty result with exit 0. A valid run
# must still exit 0.
#
#   cmake -DCLI=path/to/m3e_cli -P cli_rejects_bad_flags.cmake

if(NOT CLI)
    message(FATAL_ERROR "pass -DCLI=<path to m3e_cli>")
endif()

set(small --method MAGMA --group 4 --budget 20)
function(expect_exit code)
    execute_process(COMMAND ${CLI} ${ARGN}
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET
                    TIMEOUT 10)
    if(NOT rc STREQUAL "${code}")
        message(SEND_ERROR "m3e_cli ${ARGN}: expected exit ${code}, "
                           "got '${rc}'")
    endif()
endfunction()

foreach(bad 0 -5 nan inf -inf 1e999 fast)
    expect_exit(2 ${small} --bw ${bad})
endforeach()
foreach(bad 0 -3 99999999999 x)
    expect_exit(2 ${small} --group ${bad})
endforeach()
foreach(bad 0 -1 x)
    expect_exit(2 --method MAGMA --group 4 --budget ${bad})
endforeach()
expect_exit(0 ${small} --bw 16)
