# The streaming incident path round-trips: `fmtree fleet --generate-incidents`
# writes an incident database, `fmtree fleet --calibrate` streams it back,
# and
#   * the calibration's "incident scan: <N> records" equals the generation's
#     "generated <N> incident(s)", with N > 0;
#   * the "events" column of the per-mode rate table sums to N.
# Invoked by ctest as
#
#   cmake -DFMTREE=<fmtree binary> -DSOURCE_DIR=<repo root>
#         -DWORK_DIR=<work directory, emptied first>
#         "-DARGS=<arg;arg;...>" -P incident_roundtrip.cmake
#
# ARGS are the fleet arguments both runs share (model, --joints,
# --observe-years, --fleet-seed). The commands run in SOURCE_DIR, so ARGS
# name the model by its path relative to the repository root.
foreach(var FMTREE SOURCE_DIR WORK_DIR ARGS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "incident_roundtrip.cmake: ${var} is not set")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(csv ${WORK_DIR}/incidents.csv)

function(run_fmtree out_var)
  execute_process(
    COMMAND ${FMTREE} ${ARGS} ${ARGN}
    WORKING_DIRECTORY ${SOURCE_DIR}
    OUTPUT_VARIABLE output
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "fmtree ${ARGS} ${ARGN} exited with ${status}:\n${output}")
  endif()
  set(${out_var} "${output}" PARENT_SCOPE)
endfunction()

run_fmtree(generation --generate-incidents ${csv})
if(NOT generation MATCHES "generated ([0-9]+) incident\\(s\\)")
  message(FATAL_ERROR "the generation run reports no incident count:\n${generation}")
endif()
set(generated ${CMAKE_MATCH_1})
if(generated EQUAL 0)
  message(FATAL_ERROR "the generation run wrote no incident; the round trip checks nothing")
endif()

run_fmtree(calibration --calibrate ${csv})
if(NOT calibration MATCHES "incident scan: ([0-9]+) records")
  message(FATAL_ERROR "the calibration run reports no incident scan:\n${calibration}")
endif()
set(scanned ${CMAKE_MATCH_1})
if(NOT scanned EQUAL generated)
  message(FATAL_ERROR "the calibration scanned ${scanned} records of the ${generated} generated")
endif()

# Rows of the rate table: "| <mode> | <events> | <rate> | <CI> |".
string(REGEX MATCHALL "\n\\|[^|\n]+\\| *[0-9]+ *\\|" rows "${calibration}")
set(events 0)
foreach(row IN LISTS rows)
  string(REGEX MATCH "\\| *([0-9]+) *\\|$" cell "${row}")
  math(EXPR events "${events} + ${CMAKE_MATCH_1}")
endforeach()
if(NOT events EQUAL generated)
  message(FATAL_ERROR "the per-mode events sum to ${events}, not the ${generated} generated:\n${calibration}")
endif()
message(STATUS "${generated} generated incidents stream back as ${scanned} records and ${events} per-mode events")
