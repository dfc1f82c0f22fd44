# Serve-mode smoke test. Invoked by ctest as
#   cmake -DIDS_VERIFY=<exe> -DWORKDIR=<dir> -P RunServe.cmake
#
# Spawns `ids-verify serve`, pipes it a session of requests — valid,
# malformed, valid, stats, a module nested 200,000 levels deep, valid —
# and checks that:
#   * the daemon answers every line and exits 0 (the malformed and the
#     deeply nested requests are answered with errors, they do not kill
#     the process, and the request after them is still answered);
#   * both valid answers report ok:true with all procedures verified;
#   * every ("name","status") pair in a serve answer matches the verdict
#     the one-shot CLI prints for the same benchmark (the acceptance
#     criterion: serve verdicts are the one-shot verdicts).

if(NOT DEFINED IDS_VERIFY OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "usage: cmake -DIDS_VERIFY=... -DWORKDIR=... -P RunServe.cmake")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

set(Requests "${WORKDIR}/requests.jsonl")
string(REPEAT "!" 200000 Bangs)
set(DeepModule "structure S { field next: Loc; ghost field prev: Loc; \
local l (x) { (x.next != nil ==> x.next.prev == x) } \
correlation (y) { y.prev == nil } impact next [l] { x, old(x.next) } \
impact prev [l] { x, old(x.prev) } } \
procedure p() returns (r: bool) { r := ${Bangs}true; }")
file(WRITE "${Requests}"
"{\"id\":1,\"benchmark\":\"singly-linked-list\"}
this line is not JSON
{\"id\":3,\"benchmark\":\"bst\"}
{\"id\":4,\"cmd\":\"stats\"}
{\"id\":5,\"source\":\"${DeepModule}\"}
{\"id\":6,\"benchmark\":\"singly-linked-list\"}
")

execute_process(
  COMMAND "${IDS_VERIFY}" serve
  INPUT_FILE "${Requests}"
  OUTPUT_VARIABLE Out
  ERROR_VARIABLE Err
  RESULT_VARIABLE ExitCode)

if(NOT ExitCode EQUAL 0)
  message(FATAL_ERROR "serve exited ${ExitCode} (a request must never kill "
          "the daemon)\n--- stdout ---\n${Out}\n--- stderr ---\n${Err}")
endif()

string(REGEX REPLACE "\n$" "" Trimmed "${Out}")
string(REPLACE "\n" ";" Lines "${Trimmed}")
list(LENGTH Lines NumLines)
if(NOT NumLines EQUAL 6)
  message(FATAL_ERROR "expected 6 response lines, got ${NumLines}\n${Out}")
endif()

list(GET Lines 0 Resp1)
list(GET Lines 1 Resp2)
list(GET Lines 2 Resp3)
list(GET Lines 3 Resp4)
list(GET Lines 4 Resp5)
list(GET Lines 5 Resp6)

# Every response — success or error — reports its wall clock.
foreach(Var Resp1 Resp2 Resp3 Resp4 Resp5 Resp6)
  string(FIND "${${Var}}" "\"elapsed_ms\":" P)
  if(P EQUAL -1)
    message(FATAL_ERROR "response lacks elapsed_ms: ${${Var}}")
  endif()
endforeach()

# The stats command answers the cumulative metrics snapshot — the same
# schema --stats-json writes — and after two verify requests the
# pipeline/smt/driver counter families must all be populated.
foreach(Tag "\"id\":4" "\"ok\":true" "\"schema\":\"ids-stats-v1\""
        "\"counters\":{" "\"driver.requests\":2" "\"pipeline.obligations\":"
        "\"smt.check_sats\":")
  string(FIND "${Resp4}" "${Tag}" P)
  if(P EQUAL -1)
    message(FATAL_ERROR "stats answer lacks ${Tag}: ${Resp4}")
  endif()
endforeach()

# Verify responses carry this request's cache traffic.
foreach(Var Resp1 Resp3)
  string(FIND "${${Var}}" "\"cache\":{\"query_hits\":" P)
  if(P EQUAL -1)
    message(FATAL_ERROR "verify response lacks per-request cache stats: "
            "${${Var}}")
  endif()
endforeach()

foreach(Pair "Resp1|\"id\":1" "Resp3|\"id\":3" "Resp6|\"id\":6")
  string(REPLACE "|" ";" Parts "${Pair}")
  list(GET Parts 0 Var)
  list(GET Parts 1 Tag)
  string(FIND "${${Var}}" "${Tag}" P)
  if(P EQUAL -1)
    message(FATAL_ERROR "response does not echo ${Tag}: ${${Var}}")
  endif()
  string(FIND "${${Var}}" "\"ok\":true" P)
  if(P EQUAL -1)
    message(FATAL_ERROR "valid request not answered ok:true: ${${Var}}")
  endif()
  string(FIND "${${Var}}" "\"all_verified\":true" P)
  if(P EQUAL -1)
    message(FATAL_ERROR "benchmark did not fully verify over serve: ${${Var}}")
  endif()
endforeach()

string(FIND "${Resp2}" "\"ok\":false" P)
if(P EQUAL -1)
  message(FATAL_ERROR "malformed request must answer ok:false: ${Resp2}")
endif()
string(FIND "${Resp2}" "\"error\":\"invalid request" P)
if(P EQUAL -1)
  message(FATAL_ERROR "malformed request must report a parse error: ${Resp2}")
endif()

# The deeply nested module is rejected by the parser's depth cap with
# an ordinary front-end error, not a crash of the daemon.
foreach(Tag "\"id\":5" "\"ok\":false" "nesting exceeds the maximum depth")
  string(FIND "${Resp5}" "${Tag}" P)
  if(P EQUAL -1)
    message(FATAL_ERROR "deep-nesting request not answered with ${Tag}: "
            "${Resp5}")
  endif()
endforeach()

# Each serve verdict must match the one-shot CLI's verdict for the same
# procedure: one-shot prints ` NAME ... STATUS` per procedure, serve
# answers pin "name" directly before "status" (a documented part of the
# protocol), so the pairs can be matched textually.
foreach(Case "singly-linked-list|Resp1" "bst|Resp3")
  string(REPLACE "|" ";" Parts "${Case}")
  list(GET Parts 0 Bench)
  list(GET Parts 1 Var)
  execute_process(
    COMMAND "${IDS_VERIFY}" --benchmark "${Bench}"
    OUTPUT_VARIABLE OneShot
    RESULT_VARIABLE OneShotExit)
  if(NOT OneShotExit EQUAL 0)
    message(FATAL_ERROR "one-shot --benchmark ${Bench} exited ${OneShotExit}")
  endif()
  string(REGEX MATCHALL "\"name\":\"[^\"]+\",\"status\":\"[a-z]+\""
         Pairs "${${Var}}")
  list(LENGTH Pairs NumProcs)
  if(NumProcs EQUAL 0)
    message(FATAL_ERROR "no procedure verdicts in serve answer: ${${Var}}")
  endif()
  foreach(P ${Pairs})
    string(REGEX REPLACE "\"name\":\"([^\"]+)\",\"status\":\"([a-z]+)\""
           "\\1;\\2" NameStatus "${P}")
    list(GET NameStatus 0 ProcName)
    list(GET NameStatus 1 ProcStatus)
    if(NOT OneShot MATCHES " ${ProcName} [^\n]* ${ProcStatus}")
      message(FATAL_ERROR "serve verdict ${ProcName}=${ProcStatus} does not "
              "match the one-shot output for ${Bench}:\n${OneShot}")
    endif()
  endforeach()
  message(STATUS "${Bench}: ${NumProcs} serve verdicts match one-shot")
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
