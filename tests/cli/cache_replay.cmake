# Runs one fmtree command twice against a fresh result-cache directory and
# checks that the second run is a pure replay of the first:
#   * the first run reports "cache: 0 hits, <JOBS> misses", the second
#     "cache: <JOBS> hits, 0 misses";
#   * apart from that line the two renderings are identical;
#   * the second run's metrics count the hits as batch.cache.hits == <JOBS>
#     and every job in batch.jobs == <JOBS>, no serve.cache* or fleet.cache*
#     counter exists (one metric name per cache outcome), and every serve.*
#     counter is 0 (an in-process run starts no service).
# Invoked by ctest as
#
#   cmake -DFMTREE=<fmtree binary> -DSOURCE_DIR=<repo root>
#         -DWORK_DIR=<work directory, emptied first> -DJOBS=<job count>
#         "-DARGS=<arg;arg;...>" -P cache_replay.cmake
#
# The command runs in SOURCE_DIR, so ARGS name models and policies by paths
# relative to the repository root.
foreach(var FMTREE SOURCE_DIR WORK_DIR JOBS ARGS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cache_replay.cmake: ${var} is not set")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(cache ${WORK_DIR}/cache)
set(metrics ${WORK_DIR}/warm_metrics.json)

function(run_fmtree out_var)
  execute_process(
    COMMAND ${FMTREE} ${ARGS} --cache-dir ${cache} ${ARGN}
    WORKING_DIRECTORY ${SOURCE_DIR}
    OUTPUT_VARIABLE output
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "fmtree ${ARGS} --cache-dir ${cache} ${ARGN} exited with ${status}")
  endif()
  set(${out_var} "${output}" PARENT_SCOPE)
endfunction()

run_fmtree(first)
run_fmtree(second --metrics ${metrics})

foreach(check "first;cache: 0 hits, ${JOBS} misses" "second;cache: ${JOBS} hits, 0 misses")
  list(GET check 0 run)
  list(GET check 1 line)
  string(FIND "\n${${run}}" "\n${line} (" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "the ${run} run does not report '${line}':\n${${run}}")
  endif()
endforeach()

# The renderings without their "cache:" lines.
string(REGEX REPLACE "\ncache: [^\n]*" "" first_body "\n${first}")
string(REGEX REPLACE "\ncache: [^\n]*" "" second_body "\n${second}")
if(NOT first_body STREQUAL second_body)
  file(WRITE ${WORK_DIR}/first.txt "${first_body}")
  file(WRITE ${WORK_DIR}/second.txt "${second_body}")
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND ${DIFF} -u ${WORK_DIR}/first.txt ${WORK_DIR}/second.txt)
  endif()
  message(FATAL_ERROR "the replayed rendering differs from the first run's")
endif()

# The counters object of the metrics file, checked with regular expressions
# (its counters are flat "name": integer pairs).
file(READ ${metrics} json)
string(REGEX MATCH "\"counters\"[ \t\r\n]*:[ \t\r\n]*{[^}]*}" counters "${json}")
if(NOT counters)
  message(FATAL_ERROR "the replay's metrics file has no counters object:\n${json}")
endif()
foreach(counter batch.cache.hits batch.jobs)
  string(REPLACE "." "\\." pattern ${counter})
  set(value "")
  if(counters MATCHES "\"${pattern}\"[ \t\r\n]*:[ \t\r\n]*([0-9]+)")
    set(value ${CMAKE_MATCH_1})
  endif()
  if(NOT value STREQUAL JOBS)
    message(FATAL_ERROR "${counter} of the replay is '${value}', expected ${JOBS}")
  endif()
endforeach()
if(counters MATCHES "\"(serve\\.[^\"]*)\"[ \t\r\n]*:[ \t\r\n]*0*[1-9]")
  message(FATAL_ERROR "the in-process replay counts '${CMAKE_MATCH_1}'")
endif()
if(counters MATCHES "\"((serve|fleet)\\.cache[^\"]*)\"")
  message(FATAL_ERROR "the replay's metrics carry a stale counter '${CMAKE_MATCH_1}'")
endif()
message(STATUS "the second run is a pure cache replay of ${JOBS} jobs with an identical rendering")
