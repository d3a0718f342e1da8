# The cost-curve sweep heals under injected faults and its re-run recovers
# the corrupted cache. Three runs of one `fmtree sweep` command:
#   1. clean, with no cache;
#   2. faulted: the first pool task fails (sweep.task:error,nth=1) and each
#      cache write is corrupted with probability 1/2 (cache.write:corrupt),
#      with a fresh --cache-dir, --max-retries 3 and --metrics;
#   3. the same command again on that cache directory, with no faults.
# Checks:
#   * every run exits 0, and the three curves are equal once the status lines
#     (cache:, self-healing:, fmtree:), the source column and the table
#     layout are removed;
#   * the faulted run's metrics count at least one fault.injected and one
#     sweep.retries (every catalogue counter is present, so presence alone
#     would show nothing);
#   * the re-run reports "cache: 2 hits, 1 misses" and exactly one C101, and
#     the cache directory then holds the three result entries and a
#     quarantine/ directory with one file.
# Invoked by ctest as
#
#   cmake -DFMTREE=<fmtree binary> -DSOURCE_DIR=<repo root>
#         -DWORK_DIR=<work directory, emptied first>
#         "-DARGS=<arg;arg;...>" -P chaos_sweep.cmake
#
# The commands run in SOURCE_DIR, so ARGS name the model by its path relative
# to the repository root.
foreach(var FMTREE SOURCE_DIR WORK_DIR ARGS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "chaos_sweep.cmake: ${var} is not set")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(cache ${WORK_DIR}/cache)
set(metrics ${WORK_DIR}/chaos_metrics.json)

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

# The curve without status lines, source column and table layout.
function(normalize out_var text)
  string(REGEX REPLACE "\n[^\n]*(cache:|self-healing:|fmtree:)[^\n]*" "" body "\n${text}")
  string(REGEX REPLACE "simulated|cache" "" body "${body}")
  string(REGEX REPLACE "[ |-]" "" body "${body}")
  set(${out_var} "${body}" PARENT_SCOPE)
endfunction()

run_fmtree(clean)
run_fmtree(faulted
  --inject-fault sweep.task:error,nth=1
  --inject-fault cache.write:corrupt,p=0.5,seed=7
  --cache-dir ${cache} --max-retries 3 --metrics ${metrics})
run_fmtree(rerun --cache-dir ${cache})

normalize(clean_curve "${clean}")
foreach(run faulted rerun)
  normalize(curve "${${run}}")
  if(NOT curve STREQUAL clean_curve)
    message(FATAL_ERROR "the ${run} curve differs from the clean run's:\n"
                        "${${run}}\nclean run:\n${clean}")
  endif()
endforeach()

# The counters object of the metrics file, checked with regular expressions
# (its counters are flat "name": integer pairs).
file(READ ${metrics} json)
string(REGEX MATCH "\"counters\"[ \t\r\n]*:[ \t\r\n]*{[^}]*}" counters "${json}")
foreach(name fault.injected sweep.retries)
  string(REPLACE "." "\\." pattern "${name}")
  if(NOT counters MATCHES "\"${pattern}\"[ \t\r\n]*:[ \t\r\n]*[1-9][0-9]*")
    message(FATAL_ERROR "the faulted run's metrics count no ${name}:\n${json}")
  endif()
endforeach()

string(FIND "\n${rerun}" "\ncache: 2 hits, 1 misses (" at)
if(at EQUAL -1)
  message(FATAL_ERROR "the re-run does not report 'cache: 2 hits, 1 misses':\n${rerun}")
endif()
string(REGEX MATCHALL "C101" c101 "${rerun}")
list(LENGTH c101 c101_count)
if(NOT c101_count EQUAL 1)
  message(FATAL_ERROR "the re-run reports ${c101_count} C101 warnings, not 1:\n${rerun}")
endif()

# One record of finished work: the three result entries, and quarantine/.
file(GLOB entries RELATIVE ${cache} ${cache}/*)
list(REMOVE_ITEM entries quarantine)
list(LENGTH entries entry_count)
if(NOT entry_count EQUAL 3)
  message(FATAL_ERROR "beside quarantine/ the cache holds '${entries}', not 3 entries")
endif()
foreach(entry IN LISTS entries)
  if(NOT entry MATCHES "^[0-9a-f]+-[0-9a-f]+\\.json$")
    message(FATAL_ERROR "the cache holds '${entry}', which is no result entry")
  endif()
endforeach()
file(GLOB quarantined ${cache}/quarantine/*)
list(LENGTH quarantined quarantined_count)
if(NOT quarantined_count EQUAL 1)
  message(FATAL_ERROR "quarantine/ holds ${quarantined_count} files, not 1")
endif()
message(STATUS "the faulted sweep healed, its re-run quarantined 1 corrupt entry, "
               "and all three curves match the clean run")
