# Deep-nesting robustness of the front end. Invoked by ctest as
#   cmake -DIDS_VERIFY=<exe> -DWORKDIR=<dir> -P RunDeepNesting.cmake
#
# A procedure body assigning `!` applied 200,000 times used to overflow
# the recursive-descent parser's stack (SIGSEGV). The parser caps its
# nesting depth, so the CLI must reject the module with a parse
# diagnostic and the front-end exit code 2, not die on a signal.

if(NOT DEFINED IDS_VERIFY OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR
          "usage: cmake -DIDS_VERIFY=... -DWORKDIR=... -P RunDeepNesting.cmake")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

string(REPEAT "!" 200000 Bangs)
set(Module "${WORKDIR}/deep.ids")
file(WRITE "${Module}" "structure S {
  field next: Loc;
  ghost field prev: Loc;
  local l (x) { (x.next != nil ==> x.next.prev == x) }
  correlation (y) { y.prev == nil }
  impact next [l] { x, old(x.next) }
  impact prev [l] { x, old(x.prev) }
}
procedure p() returns (r: bool)
{
  r := ${Bangs}true;
}
")

execute_process(
  COMMAND "${IDS_VERIFY}" "${Module}"
  OUTPUT_VARIABLE Out
  ERROR_VARIABLE Err
  RESULT_VARIABLE ExitCode)

# A process killed by a signal reports a non-numeric result string.
if(NOT ExitCode STREQUAL "2")
  message(FATAL_ERROR "expected exit code 2 (front-end error), got "
          "'${ExitCode}'\n--- stderr ---\n${Err}")
endif()
string(FIND "${Err}" "nesting exceeds the maximum depth" P)
if(P EQUAL -1)
  message(FATAL_ERROR "no nesting-depth diagnostic on stderr:\n${Err}")
endif()
