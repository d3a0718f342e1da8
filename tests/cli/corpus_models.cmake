# The malformed-model corpus through the built fmtree CLI: every
# tests/ft/corpus/*.fmt exits 3 under `check --json-errors`, except
# control_chars.fmt, which exits 0. Every lexical or syntax diagnostic (code
# L... or P...) points into the file: a line from 1 to one past the last, and
# a column at most one past that line's end (column 0 means "unknown").
# Invoked by ctest as
#
#   cmake -DFMTREE=<fmtree binary> -DSOURCE_DIR=<repo root> -P corpus_models.cmake
#
# The JSON is matched with regular expressions: string(JSON) needs CMake 3.19.
cmake_policy(SET CMP0007 NEW)  # a blank line stays a list element
foreach(var FMTREE SOURCE_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "corpus_models.cmake: ${var} is not set")
  endif()
endforeach()

file(GLOB models RELATIVE ${SOURCE_DIR} ${SOURCE_DIR}/tests/ft/corpus/*.fmt)
if(NOT models)
  message(FATAL_ERROR "no models under tests/ft/corpus")
endif()
set(failures "")
foreach(model ${models})
  execute_process(
    COMMAND ${FMTREE} check --json-errors ${model}
    WORKING_DIRECTORY ${SOURCE_DIR}
    OUTPUT_QUIET
    ERROR_VARIABLE json
    RESULT_VARIABLE status)
  set(expected 3)
  if(model MATCHES "/control_chars\\.fmt$")
    set(expected 0)
  endif()
  if(NOT status EQUAL expected)
    string(APPEND failures "${model}: expected exit ${expected}, got ${status}\n")
    continue()
  endif()
  if(expected EQUAL 0)
    continue()
  endif()

  # The file's lines as a list. ';', '[', ']' and '\' would split or escape
  # list elements, so each becomes one other byte first: lengths stay put.
  file(READ ${SOURCE_DIR}/${model} text)
  string(REGEX REPLACE "[];[\\]" "x" text "${text}")
  string(REPLACE "\n" ";" lines "${text}")
  list(LENGTH lines count)
  if(text MATCHES "\n$")
    math(EXPR count "${count} - 1")  # the file ends with a newline: no line follows it
  endif()

  string(REGEX MATCHALL "\"code\":\"[LP][0-9]+\",\"line\":[0-9]+,\"column\":[0-9]+"
         located "${json}")
  foreach(diagnostic ${located})
    string(REGEX MATCH "\"code\":\"([LP][0-9]+)\",\"line\":([0-9]+),\"column\":([0-9]+)"
           _ "${diagnostic}")
    set(code ${CMAKE_MATCH_1})
    set(line ${CMAKE_MATCH_2})
    set(column ${CMAKE_MATCH_3})
    set(length 0)
    if(line GREATER 0 AND NOT line GREATER count)
      math(EXPR index "${line} - 1")
      list(GET lines ${index} content)
      string(LENGTH "${content}" length)
    endif()
    math(EXPR last_line "${count} + 1")
    math(EXPR last_column "${length} + 1")
    if(line LESS 1 OR line GREATER last_line OR column GREATER last_column)
      string(APPEND failures "${model}: ${code} at ${line}:${column} is outside the file\n")
    endif()
  endforeach()
endforeach()
if(failures)
  message(FATAL_ERROR "${failures}")
endif()
list(LENGTH models count)
message(STATUS "all ${count} corpus models give the expected exit with located diagnostics")
