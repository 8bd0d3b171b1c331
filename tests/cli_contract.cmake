# Runs one bench/example binary against the run::guarded_main contract:
#
#   cmake -DBIN=<binary> -DMODE=bogus|stray|help -P cli_contract.cmake
#
# MODE=bogus: an unknown flag must exit 2 and print nothing to stdout (the
# workload never started). MODE=stray: so must a bare token that is not a
# flag (no binary takes positional arguments). MODE=help: --help must exit 0
# and print only the usage text.
if(MODE STREQUAL "bogus")
  set(flag --bogus)
  set(want_code 2)
elseif(MODE STREQUAL "stray")
  set(flag junk)
  set(want_code 2)
elseif(MODE STREQUAL "help")
  set(flag --help)
  set(want_code 0)
else()
  message(FATAL_ERROR "cli_contract: MODE must be bogus, stray or help")
endif()

execute_process(COMMAND "${BIN}" ${flag}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 30)
if(NOT code STREQUAL "${want_code}")
  message(FATAL_ERROR "${BIN} ${flag}: exit ${code}, want ${want_code}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT MODE STREQUAL "help" AND NOT out STREQUAL "")
  message(FATAL_ERROR "${BIN} ${flag} wrote to stdout (the workload ran):\n"
                      "${out}")
endif()
if(MODE STREQUAL "help" AND NOT out MATCHES "^usage: [^\n]*\n(shared run flags: [^\n]*\n)?$")
  message(FATAL_ERROR "${BIN} ${flag} printed more than the usage:\n${out}")
endif()
