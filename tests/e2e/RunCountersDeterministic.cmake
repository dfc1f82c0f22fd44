# Cross-run determinism of the solver's search counters, and the suite
# counter baseline. Invoked by ctest as
#   cmake -DIDS_VERIFY=<exe> -DWORKDIR=<dir> -DBASELINE=<json>
#         -P RunCountersDeterministic.cmake
#
# Runs `--benchmark all --jobs 1 --stats-json` in two separate processes
# and requires identical decision, conflict, theory-check,
# theory-propagation and array-lemma counts. These counters are the
# regression signal for solver changes, so they must not depend on where
# the allocator places terms in memory (an address-ordered container in
# the search once made the decision count differ from run to run).
#
# The first run must also match every counter of the committed baseline
# (bench/BENCH_suite.baseline.json): a change that alters the search or
# the pipeline's query count says so by refreshing that file.

if(NOT DEFINED IDS_VERIFY OR NOT DEFINED WORKDIR OR NOT DEFINED BASELINE)
  message(FATAL_ERROR "usage: cmake -DIDS_VERIFY=... -DWORKDIR=... "
          "-DBASELINE=... -P RunCountersDeterministic.cmake")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

set(Counters smt.decisions smt.conflicts smt.theory_checks
             smt.theory_propagations smt.array_lemmas)

foreach(Run 1 2)
  set(Stats "${WORKDIR}/stats${Run}.json")
  execute_process(
    COMMAND "${IDS_VERIFY}" --benchmark all --jobs 1 --stats-json "${Stats}"
    OUTPUT_VARIABLE Out
    ERROR_VARIABLE Err
    RESULT_VARIABLE ExitCode)
  if(NOT ExitCode EQUAL 0)
    message(FATAL_ERROR "run ${Run}: --benchmark all exited '${ExitCode}'\n"
            "--- stderr ---\n${Err}")
  endif()
  file(READ "${Stats}" Json)
  set(Json_${Run} "${Json}")
  foreach(Name ${Counters})
    string(JSON Value ERROR_VARIABLE JsonErr GET "${Json}" counters "${Name}")
    if(JsonErr)
      message(FATAL_ERROR "run ${Run}: ${Name} missing from ${Stats}: "
              "${JsonErr}")
    endif()
    set(${Name}_${Run} "${Value}")
  endforeach()
endforeach()

foreach(Name ${Counters})
  if(NOT "${${Name}_1}" STREQUAL "${${Name}_2}")
    message(FATAL_ERROR "${Name} differs between two identical runs: "
            "${${Name}_1} vs ${${Name}_2}")
  endif()
  message(STATUS "${Name} = ${${Name}_1} in both runs")
endforeach()

file(READ "${BASELINE}" Baseline)
string(JSON NumBaseline LENGTH "${Baseline}" counters)
math(EXPR LastBaseline "${NumBaseline} - 1")
foreach(I RANGE ${LastBaseline})
  string(JSON Name MEMBER "${Baseline}" counters ${I})
  string(JSON Expected GET "${Baseline}" counters "${Name}")
  string(JSON Value ERROR_VARIABLE JsonErr GET "${Json_1}" counters "${Name}")
  if(JsonErr)
    message(FATAL_ERROR "${Name} missing from run 1's stats: ${JsonErr}")
  endif()
  if(NOT "${Value}" STREQUAL "${Expected}")
    message(FATAL_ERROR "${Name} = ${Value}, but ${BASELINE} records "
            "${Expected}. If the change is meant to alter it, refresh the "
            "file: run `ids-verify --benchmark all --jobs 1 --stats-json "
            "FILE` and copy each counter the baseline names from FILE's "
            "\"counters\" object.")
  endif()
  message(STATUS "${Name} = ${Value} matches the baseline")
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
