# fbflysim must run loads above 0.5 without --burst: the on/off
# injection process only exists when --burst asks for it.
#
#   cmake -DFBFLYSIM=<path to fbflysim> -P fbflysim_high_load.cmake
execute_process(COMMAND ${FBFLYSIM} --topo fbfly-8-2 --load 0.9
                        --warmup 200 --measure 200 --drain 2000
                OUTPUT_VARIABLE text ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fbflysim --load 0.9 exited with ${rc}:\n"
                        "${text}${err}")
endif()
if(NOT text MATCHES "\n +0\\.900 +[0-9.]+ ")
    message(FATAL_ERROR "no 0.900 result row in:\n${text}")
endif()
message(STATUS "fbflysim --load 0.9 ran")
