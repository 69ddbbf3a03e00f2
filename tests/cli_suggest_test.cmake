# Misspelling ergonomics gate: a misspelled subcommand or flag must fail
# (nonzero exit) and suggest the nearest real one. Invoked by ctest with:
#   -DBIN=<dynbcast CLI, or a bench binary>
#   -DSUBCOMMAND=<the subcommand to type, possibly misspelled; omitted
#                 for a bench binary>
#   -DARGS=<optional flags to pass, space-separated, possibly misspelled>
#   -DEXPECT=<the subcommand or flag the CLI must suggest; optional>
#   -DEXPECT_RC=<the exact exit status required; optional>
#   -DNO_STDOUT=ON   (optional: a rejected run must print nothing to
#                    stdout, not even a header)
# A flag suggestion must reach stderr; a subcommand one may use either
# stream (usage goes to stderr too, after the suggestion).
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${BIN} ${SUBCOMMAND} ${args}
  RESULT_VARIABLE run_rc
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err)
if(run_rc EQUAL 0)
  message(FATAL_ERROR
    "'dynbcast ${SUBCOMMAND} ${ARGS}' exited 0 — misspellings must fail")
endif()
if(DEFINED EXPECT_RC AND NOT run_rc EQUAL EXPECT_RC)
  message(FATAL_ERROR
    "'dynbcast ${SUBCOMMAND} ${ARGS}' exited ${run_rc}, not ${EXPECT_RC}")
endif()
if(NO_STDOUT AND NOT run_out STREQUAL "")
  message(FATAL_ERROR
    "'dynbcast ${SUBCOMMAND} ${ARGS}' was rejected but printed to "
    "stdout:\n${run_out}")
endif()
if(NOT DEFINED EXPECT)
  return()
endif()
if(ARGS)
  set(searched "${run_err}")
else()
  string(CONCAT searched "${run_out}" "${run_err}")
endif()
if(NOT searched MATCHES "did you mean '${EXPECT}'")
  message(FATAL_ERROR
    "'dynbcast ${SUBCOMMAND} ${ARGS}' did not suggest '${EXPECT}'; "
    "output was:\n${run_out}${run_err}")
endif()
