# Runs one tool invocation and checks its exit code and its stderr:
#
#   cmake -DEXPECT_EXIT=N -DEXPECT_STDERR=REGEX -P expect_exit.cmake \
#         -- TOOL [ARG...]
#
# Registered by the root CMakeLists.txt as the tools_* tests, which drive
# each tool's flag parsing end to end.
set(command)
set(in_command FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(in_command)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(in_command TRUE)
  endif()
endforeach()
execute_process(COMMAND ${command}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR
          "${command}: exit code ${code}, expected ${EXPECT_EXIT}\n${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR
          "${command}: stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
