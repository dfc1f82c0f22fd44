# Verifies the golden-file suites cover every embedded Table 2 benchmark:
# each name printed by `ids-verify --list` must have a golden file in
# EVERY golden directory passed (GOLDEN_DIRS, separated by `|` or `;`,
# or the single GOLDEN_DIR), and each golden file must correspond to a
# listed benchmark — a newly registered benchmark without goldens in all
# four e2e modes (default, nopipe, noincr, notheoryprop) fails this test.
#   cmake -DIDS_VERIFY=<exe> "-DGOLDEN_DIRS=<dir>[|<dir>...]" -P CheckCoverage.cmake

if(NOT DEFINED GOLDEN_DIRS AND DEFINED GOLDEN_DIR)
  set(GOLDEN_DIRS "${GOLDEN_DIR}")
endif()
if(NOT DEFINED IDS_VERIFY OR NOT DEFINED GOLDEN_DIRS)
  message(FATAL_ERROR "usage: cmake -DIDS_VERIFY=... -DGOLDEN_DIRS=... -P CheckCoverage.cmake")
endif()
# `|` avoids the add_test/-D semicolon-escaping maze; accept both.
string(REPLACE "|" ";" GOLDEN_DIRS "${GOLDEN_DIRS}")
string(REPLACE "\\;" ";" GOLDEN_DIRS "${GOLDEN_DIRS}")

execute_process(
  COMMAND "${IDS_VERIFY}" --list
  OUTPUT_VARIABLE ListOut
  RESULT_VARIABLE ExitCode)
if(NOT ExitCode EQUAL 0)
  message(FATAL_ERROR "ids-verify --list failed with exit code ${ExitCode}")
endif()

# Benchmark lines lead with the registry key at column 0; the metadata
# lines below each entry are indented.
string(REGEX MATCHALL "[^\n]+" Lines "${ListOut}")
set(Listed "")
foreach(Line ${Lines})
  if(Line MATCHES "^[^ ]")
    string(REGEX MATCH "^[^ ]+" Name "${Line}")
    if(NOT Name STREQUAL "")
      list(APPEND Listed "${Name}")
    endif()
  endif()
endforeach()

if(Listed STREQUAL "")
  message(FATAL_ERROR "ids-verify --list printed no benchmarks")
endif()

foreach(Dir ${GOLDEN_DIRS})
  foreach(Name ${Listed})
    if(NOT EXISTS "${Dir}/${Name}.golden")
      message(SEND_ERROR "benchmark '${Name}' has no golden file "
              "(expected ${Dir}/${Name}.golden)")
    endif()
  endforeach()

  file(GLOB Goldens "${Dir}/*.golden")
  foreach(Golden ${Goldens})
    get_filename_component(Name "${Golden}" NAME_WE)
    list(FIND Listed "${Name}" Idx)
    if(Idx EQUAL -1)
      message(SEND_ERROR "stale golden file '${Golden}': no benchmark "
              "named '${Name}' in --list output")
    endif()
  endforeach()
endforeach()
