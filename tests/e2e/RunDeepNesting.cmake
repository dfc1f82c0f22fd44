# Deep-nesting robustness of the front end. Invoked by ctest as
#   cmake -DIDS_VERIFY=<exe> -DWORKDIR=<dir> -P RunDeepNesting.cmake
#
# A procedure body assigning `!` applied 200,000 times used to overflow
# the recursive-descent parser's stack (SIGSEGV), and a left-associative
# chain of 200,000 `&&` or `+` operands, though parsed by a loop, built
# an AST deep enough to overflow the recursive walkers after it. The
# parser caps the AST depth, so the CLI must reject each module with a
# parse diagnostic and the front-end exit code 2, not die on a signal.

if(NOT DEFINED IDS_VERIFY OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR
          "usage: cmake -DIDS_VERIFY=... -DWORKDIR=... -P RunDeepNesting.cmake")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

string(REPEAT "!" 200000 Bangs)
string(REPEAT "true && " 199999 AndChain)
string(REPEAT "1 + " 199999 PlusChain)

# check_rejected(<name> <return type> <expression>)
function(check_rejected Name RetType Expr)
  set(Module "${WORKDIR}/${Name}.ids")
  file(WRITE "${Module}" "structure S {
  field next: Loc;
  ghost field prev: Loc;
  local l (x) { (x.next != nil ==> x.next.prev == x) }
  correlation (y) { y.prev == nil }
  impact next [l] { x, old(x.next) }
  impact prev [l] { x, old(x.prev) }
}
procedure p() returns (r: ${RetType})
{
  r := ${Expr};
}
")

  execute_process(
    COMMAND "${IDS_VERIFY}" "${Module}"
    OUTPUT_VARIABLE Out
    ERROR_VARIABLE Err
    RESULT_VARIABLE ExitCode)

  # A process killed by a signal reports a non-numeric result string.
  if(NOT ExitCode STREQUAL "2")
    message(FATAL_ERROR "${Name}: expected exit code 2 (front-end error), "
            "got '${ExitCode}'\n--- stderr ---\n${Err}")
  endif()
  string(FIND "${Err}" "nesting exceeds the maximum depth" P)
  if(P EQUAL -1)
    message(FATAL_ERROR "${Name}: no nesting-depth diagnostic on stderr:\n"
            "${Err}")
  endif()
endfunction()

check_rejected(deep_not bool "${Bangs}true")
check_rejected(and_chain bool "${AndChain}true")
check_rejected(plus_chain int "${PlusChain}1")
