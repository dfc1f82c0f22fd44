# Observability e2e test. Invoked by ctest as
#   cmake -DIDS_VERIFY=<exe> -DWORKDIR=<dir> -P RunTrace.cmake
#
# Runs one benchmark with every observability surface enabled and checks:
#   * --trace-out writes well-formed, non-empty Chrome trace-event JSON
#     with at least one span per front-end phase, vcgen, pipeline stage
#     and driver layer;
#   * --stats-json writes the ids-stats-v1 snapshot, and every line of
#     the human --stats "cumulative metrics:" footer agrees with it
#     (the acceptance criterion: the two renderings can never diverge);
#   * a tiny --slow-query-ms threshold records parseable JSONL rows.

if(NOT DEFINED IDS_VERIFY OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "usage: cmake -DIDS_VERIFY=... -DWORKDIR=... -P RunTrace.cmake")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

execute_process(
  COMMAND "${IDS_VERIFY}" --benchmark singly-linked-list --stats
          --trace-out "${WORKDIR}/trace.json"
          --stats-json "${WORKDIR}/stats.json"
          --slow-query-ms 0.000001
          --slow-query-log "${WORKDIR}/slow.jsonl"
  OUTPUT_VARIABLE Out
  ERROR_VARIABLE Err
  RESULT_VARIABLE ExitCode)
if(NOT ExitCode EQUAL 0)
  message(FATAL_ERROR "traced run exited ${ExitCode}\n--- stdout ---\n${Out}"
          "\n--- stderr ---\n${Err}")
endif()

foreach(F trace.json stats.json slow.jsonl)
  if(NOT EXISTS "${WORKDIR}/${F}")
    message(FATAL_ERROR "traced run did not write ${F}")
  endif()
endforeach()

file(READ "${WORKDIR}/trace.json" Trace)
string(LENGTH "${Trace}" TraceLen)
if(TraceLen LESS 100)
  message(FATAL_ERROR "trace.json is empty or truncated (${TraceLen} bytes)")
endif()

# One span per stage per obligation: each stage name must appear, and the
# events must be complete ("ph":"X") with VC-hash attribution on solves.
foreach(Tag "\"traceEvents\":" "\"ph\":\"X\"" "pipeline.simplify"
        "pipeline.cache_probe" "pipeline.solve" "driver.proc"
        "driver.request" "\"lang.parse\"" "\"lang.typecheck\""
        "\"lang.checks\"" "\"vcgen\"")
  string(FIND "${Trace}" "${Tag}" P)
  if(P EQUAL -1)
    message(FATAL_ERROR "trace.json lacks ${Tag}")
  endif()
endforeach()
if(NOT Trace MATCHES "\"vc\":\"[0-9a-f][0-9a-f][0-9a-f][0-9a-f]")
  message(FATAL_ERROR "no VC-hash span args in trace.json")
endif()

# Structural validation: both documents must actually parse as JSON
# (string(JSON) needs CMake >= 3.19; older configure still runs the
# textual checks above).
file(READ "${WORKDIR}/stats.json" Stats)
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  foreach(Doc Trace Stats)
    string(JSON Kind ERROR_VARIABLE JsonErr TYPE "${${Doc}}")
    if(NOT JsonErr STREQUAL "NOTFOUND" OR NOT Kind STREQUAL "OBJECT")
      message(FATAL_ERROR "${Doc} is not a valid JSON object: ${JsonErr}")
    endif()
  endforeach()
endif()

foreach(Tag "\"schema\":\"ids-stats-v1\"" "\"counters\":{"
        "\"pipeline.obligations\":" "\"smt.check_sats\":"
        "\"driver.requests\":1" "\"pipeline.slow_queries\":")
  string(FIND "${Stats}" "${Tag}" P)
  if(P EQUAL -1)
    message(FATAL_ERROR "stats.json lacks ${Tag}")
  endif()
endforeach()

# --stats footer vs --stats-json: every `  name = value` line of the
# human rendering must appear as "name":value in the JSON snapshot.
string(REGEX MATCHALL "  [a-z_.0-9]+ = [0-9]+" FooterLines "${Out}")
list(LENGTH FooterLines NumFooter)
if(NumFooter LESS 10)
  message(FATAL_ERROR "--stats printed only ${NumFooter} cumulative metric "
          "lines:\n${Out}")
endif()
foreach(Line ${FooterLines})
  string(REGEX REPLACE "  ([a-z_.0-9]+) = ([0-9]+)" "\"\\1\":\\2" Pair
         "${Line}")
  string(FIND "${Stats}" "${Pair}" P)
  if(P EQUAL -1)
    message(FATAL_ERROR "--stats line '${Line}' disagrees with stats.json "
            "(expected ${Pair})")
  endif()
endforeach()
message(STATUS "${NumFooter} cumulative metrics match between --stats and "
        "stats.json")

# Slow-query log: the absurd threshold catches every solver query, each
# line carries the documented fields.
file(READ "${WORKDIR}/slow.jsonl" Slow)
foreach(Tag "\"vc\":\"" "\"proc\":\"" "\"verdict\":\"" "\"seconds\":"
        "\"atoms\":")
  string(FIND "${Slow}" "${Tag}" P)
  if(P EQUAL -1)
    message(FATAL_ERROR "slow.jsonl lacks ${Tag}:\n${Slow}")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
