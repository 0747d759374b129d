# fbflysim --channels must only add the max-chan column: the offered,
# accepted, latency and hops columns have to equal a plain run's.
#
#   cmake -DFBFLYSIM=<path to fbflysim> -P fbflysim_channels.cmake
set(args --topo fbfly-8-2 --load 0.3 --warmup 500 --measure 1000
         --drain 5000)

function(result_columns out)
    execute_process(COMMAND ${FBFLYSIM} ${args} ${ARGN}
                    OUTPUT_VARIABLE text RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "fbflysim ${ARGN} exited with ${rc}")
    endif()
    # The result row: offered accepted latency hops ...
    string(REGEX MATCH "\n *(0\\.300) +([^ ]+) +([^ ]+) +([^ ]+)"
           row "${text}")
    if(NOT row)
        message(FATAL_ERROR "no result row in:\n${text}")
    endif()
    set(${out}
        "${CMAKE_MATCH_1} ${CMAKE_MATCH_2} ${CMAKE_MATCH_3} ${CMAKE_MATCH_4}"
        PARENT_SCOPE)
endfunction()

result_columns(plain)
result_columns(channels --channels)
if(NOT plain STREQUAL channels)
    message(FATAL_ERROR "--channels changed the results:\n"
                        "  plain:      ${plain}\n"
                        "  --channels: ${channels}")
endif()
message(STATUS "offered/accepted/latency/hops: ${plain}")
