# The policy-script corpus through the built fmtree CLI:
#   * `lint-policy` exits 0 on every script of tests/lang/corpus/valid and of
#     examples/policies;
#   * every script of tests/lang/corpus/malformed exits 3 and prints at least
#     one located `<line>:<column>: error[L1xx]` diagnostic.
# Invoked by ctest as
#
#   cmake -DFMTREE=<fmtree binary> -DSOURCE_DIR=<repo root> -P corpus_policies.cmake
#
# The command runs in SOURCE_DIR, so scripts are named by paths relative to
# the repository root.
foreach(var FMTREE SOURCE_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "corpus_policies.cmake: ${var} is not set")
  endif()
endforeach()

foreach(dir tests/lang/corpus/valid examples/policies)
  file(GLOB scripts RELATIVE ${SOURCE_DIR} ${SOURCE_DIR}/${dir}/*.mpl)
  if(NOT scripts)
    message(FATAL_ERROR "no scripts under ${dir}")
  endif()
  execute_process(
    COMMAND ${FMTREE} lint-policy ${scripts}
    WORKING_DIRECTORY ${SOURCE_DIR}
    OUTPUT_VARIABLE output
    ERROR_VARIABLE errors
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "lint-policy of ${dir} exited with ${status}:\n${output}${errors}")
  endif()
endforeach()

file(GLOB malformed RELATIVE ${SOURCE_DIR} ${SOURCE_DIR}/tests/lang/corpus/malformed/*.mpl)
if(NOT malformed)
  message(FATAL_ERROR "no scripts under tests/lang/corpus/malformed")
endif()
foreach(script ${malformed})
  execute_process(
    COMMAND ${FMTREE} lint-policy ${script}
    WORKING_DIRECTORY ${SOURCE_DIR}
    OUTPUT_QUIET
    ERROR_VARIABLE errors
    RESULT_VARIABLE status)
  if(NOT status EQUAL 3)
    message(FATAL_ERROR "${script}: expected exit 3 (diagnostics), got ${status}:\n${errors}")
  endif()
  if(NOT errors MATCHES ":[0-9]+:[0-9]+: error\\[L1[0-9][0-9]\\]")
    message(FATAL_ERROR "${script}: no located L1xx error in the lint output:\n${errors}")
  endif()
endforeach()
list(LENGTH malformed count)
message(STATUS "the valid scripts lint clean; all ${count} malformed scripts fail with located diagnostics")
