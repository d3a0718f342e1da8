# Runs the built fmtree CLI and compares its standard output with a committed
# golden file, byte for byte. Invoked by ctest as
#
#   cmake -DFMTREE=<fmtree binary> -DSOURCE_DIR=<repo root> -DGOLDEN=<golden>
#         -DOUTPUT=<where to write the output> "-DARGS=<arg;arg;...>"
#         -P golden_diff.cmake
#
# The command runs in SOURCE_DIR, so ARGS name models and policies by the
# same relative paths as the CI steps that produced the goldens.
foreach(var FMTREE SOURCE_DIR GOLDEN OUTPUT ARGS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_diff.cmake: ${var} is not set")
  endif()
endforeach()

execute_process(
  COMMAND ${FMTREE} ${ARGS}
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_FILE ${OUTPUT}
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "fmtree ${ARGS} exited with ${status}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUTPUT}
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND ${DIFF} -u ${GOLDEN} ${OUTPUT})
  endif()
  message(FATAL_ERROR "${OUTPUT} differs from the golden ${GOLDEN}")
endif()
message(STATUS "${OUTPUT} matches ${GOLDEN}")
