# CLI ergonomics gate: a misspelled subcommand or flag must fail
# (nonzero exit) and suggest the nearest real one; `--help` on a
# subcommand must print its usage and exit 0. Invoked by ctest with:
#   -DBIN=<dynbcast CLI, or a bench binary>
#   -DSUBCOMMAND=<the subcommand to type, possibly misspelled; omitted
#                 for a bench binary>
#   -DARGS=<optional flags to pass, space-separated, possibly misspelled>
#   -DEXPECT=<the subcommand or flag the CLI must suggest; optional>
#   -DEXPECT_RC=<the exact exit status required; optional — without it
#               any nonzero status passes and 0 fails>
#   -DEXPECT_STDOUT=<a regex stdout must match; optional>
#   -DEXPECT_STDERR=<a regex stderr must match; optional>
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
if(DEFINED EXPECT_RC)
  if(NOT run_rc EQUAL EXPECT_RC)
    message(FATAL_ERROR
      "'dynbcast ${SUBCOMMAND} ${ARGS}' exited ${run_rc}, not ${EXPECT_RC}")
  endif()
elseif(run_rc EQUAL 0)
  message(FATAL_ERROR
    "'dynbcast ${SUBCOMMAND} ${ARGS}' exited 0 — misspellings must fail")
endif()
if(DEFINED EXPECT_STDOUT AND NOT run_out MATCHES "${EXPECT_STDOUT}")
  message(FATAL_ERROR
    "'dynbcast ${SUBCOMMAND} ${ARGS}' stdout does not match "
    "'${EXPECT_STDOUT}'; it was:\n${run_out}${run_err}")
endif()
if(DEFINED EXPECT_STDERR AND NOT run_err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR
    "'dynbcast ${SUBCOMMAND} ${ARGS}' stderr does not match "
    "'${EXPECT_STDERR}'; it was:\n${run_err}")
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
