# The documents fmtree writes for other programs conform to the checked-in
# schemas (tools/validate_schema.py checks each one):
#   * the metrics and trace files of an EI-joint `analyze --progress`
#     (tools/telemetry_schema.json, "fmtree.metrics/v1" / "fmtree.trace/v1");
#   * the "fmtree.request/v1" documents `--emit-request` prints for three
#     sweeps (a frequency grid, the grid plus an inline policy script, a
#     script alone) and for the golden corridor (tools/request_schema.json).
# Invoked by ctest as
#
#   cmake -DFMTREE=<fmtree binary> -DPYTHON=<python3> -DSOURCE_DIR=<repo root>
#         -DWORK_DIR=<work directory, emptied first>
#         "-DFLEET_ARGS=<arg;arg;...>" -P schemas.cmake
#
# FLEET_ARGS is the fleet invocation whose request is checked. The commands
# run in SOURCE_DIR, so models and policies are named by their paths
# relative to the repository root.
foreach(var FMTREE PYTHON SOURCE_DIR WORK_DIR FLEET_ARGS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "schemas.cmake: ${var} is not set")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(
  COMMAND ${FMTREE} analyze models/ei_joint.fmt --horizon 20 --runs 20000 --seed 1
          --progress --metrics ${WORK_DIR}/metrics.json --trace ${WORK_DIR}/trace.json
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_QUIET
  ERROR_VARIABLE errors
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "fmtree analyze with telemetry exited with ${status}:\n${errors}")
endif()
foreach(kind metrics trace)
  execute_process(
    COMMAND ${PYTHON} tools/validate_schema.py ${kind} ${WORK_DIR}/${kind}.json
    WORKING_DIRECTORY ${SOURCE_DIR}
    OUTPUT_VARIABLE output
    ERROR_VARIABLE output
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "the ${kind} file fails its schema:\n${output}")
  endif()
  message(STATUS "${output}")
endforeach()

# Pipes the request document of `fmtree <ARGN> --emit-request` through the
# validator; both must exit 0.
function(validate_request)
  execute_process(
    COMMAND ${FMTREE} ${ARGN} --emit-request
    COMMAND ${PYTHON} tools/validate_schema.py request -
    WORKING_DIRECTORY ${SOURCE_DIR}
    OUTPUT_VARIABLE output
    ERROR_VARIABLE output
    RESULTS_VARIABLE statuses)
  list(JOIN ARGN " " command)
  if(NOT statuses STREQUAL "0;0")
    message(FATAL_ERROR
            "fmtree ${command} --emit-request | validate_schema.py request - exited with "
            "${statuses}:\n${output}")
  endif()
  message(STATUS "fmtree ${command}: ${output}")
endfunction()

set(sweep sweep models/ei_joint.fmt --horizon 20 --runs 20000 --seed 1
    --frequencies 0,2,6)
validate_request(${sweep})
validate_request(${sweep} --policy examples/policies/condition_based.mpl)
validate_request(sweep models/ei_joint.fmt --policy examples/policies/periodic.mpl)
validate_request(${FLEET_ARGS})
