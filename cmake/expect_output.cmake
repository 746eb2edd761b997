# Runs a command and passes only if it exits 0 AND its combined
# stdout+stderr matches a regular expression.  ctest's own
# PASS_REGULAR_EXPRESSION ignores the exit code, so a crash or a
# sanitizer report printed after the matching line would still pass.
#
#   cmake -DEXPECT_REGEX=<regex> -P expect_output.cmake -- <command> [args...]
#
# The output is echoed either way, so a failing case shows what ran.
if(NOT DEFINED EXPECT_REGEX)
  message(FATAL_ERROR "expect_output: set -DEXPECT_REGEX=<regex>")
endif()

set(command "")
set(in_command FALSE)
foreach(i RANGE 1 ${CMAKE_ARGC})
  if(i EQUAL CMAKE_ARGC)
    break()
  endif()
  if(in_command)
    # A ';' inside one argument would split it into two list elements.
    string(REPLACE ";" "\\;" arg "${CMAKE_ARGV${i}}")
    list(APPEND command "${arg}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(in_command TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "expect_output: no command after --")
endif()

execute_process(COMMAND ${command}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
message("${output}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "expect_output: command exited with '${status}'")
endif()
if(NOT output MATCHES "${EXPECT_REGEX}")
  message(FATAL_ERROR "expect_output: output does not match '${EXPECT_REGEX}'")
endif()
