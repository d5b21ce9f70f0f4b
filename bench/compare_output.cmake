# Runs COMMAND (a ;-list) and compares its stdout byte for byte with the
# file REFERENCE; the output is kept in OUTPUT for inspection.
#
#   cmake -DCOMMAND=<program;args> -DREFERENCE=<file> -DOUTPUT=<file>
#         -P compare_output.cmake
#
# On a mismatch it names the first differing line of each side.
execute_process(COMMAND ${COMMAND} OUTPUT_FILE ${OUTPUT}
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${COMMAND} exited with ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${REFERENCE}
                        ${OUTPUT}
                RESULT_VARIABLE differ)
if(differ EQUAL 0)
  message(STATUS "output matches ${REFERENCE}")
  return()
endif()
file(READ ${REFERENCE} want)
file(READ ${OUTPUT} got)
string(LENGTH "${want}" want_length)
string(LENGTH "${got}" got_length)
set(line 1)
set(start 0)
set(index 0)
while(index LESS want_length AND index LESS got_length)
  string(SUBSTRING "${want}" ${index} 1 a)
  string(SUBSTRING "${got}" ${index} 1 b)
  if(NOT a STREQUAL b)
    break()
  endif()
  if(a STREQUAL "\n")
    math(EXPR line "${line} + 1")
    math(EXPR start "${index} + 1")
  endif()
  math(EXPR index "${index} + 1")
endwhile()
string(SUBSTRING "${want}" ${start} 200 want_line)
string(SUBSTRING "${got}" ${start} 200 got_line)
string(REGEX REPLACE "\n.*" "" want_line "${want_line}")
string(REGEX REPLACE "\n.*" "" got_line "${got_line}")
message(FATAL_ERROR "output differs from ${REFERENCE} at line ${line}:\n"
                    "  reference: ${want_line}\n"
                    "  output:    ${got_line}\n"
                    "full output in ${OUTPUT}")
