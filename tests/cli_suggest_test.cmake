# Misspelling ergonomics gate: a misspelled subcommand or flag must fail
# (nonzero exit) and suggest the nearest real one. Invoked by ctest with:
#   -DBIN=<dynbcast CLI, or a bench binary>
#   -DSUBCOMMAND=<the subcommand to type, possibly misspelled; omitted
#                 for a bench binary>
#   -DARGS=<optional flags to pass, possibly misspelled>
#   -DEXPECT=<the subcommand or flag the CLI must suggest>
# A flag suggestion must reach stderr; a subcommand one may use either
# stream (usage goes to stderr too, after the suggestion).
execute_process(
  COMMAND ${BIN} ${SUBCOMMAND} ${ARGS}
  RESULT_VARIABLE run_rc
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err)
if(run_rc EQUAL 0)
  message(FATAL_ERROR
    "'dynbcast ${SUBCOMMAND} ${ARGS}' exited 0 — misspellings must fail")
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
