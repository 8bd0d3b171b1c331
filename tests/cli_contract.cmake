# Runs one bench/example binary against the run::guarded_main contract:
#
#   cmake -DBIN=<binary> -DMODE=<mode> [-DARGS="..."] [-DOUT=<file>]
#         [-DWORK=<dir>] -P cli_contract.cmake
#
# MODE=bogus: an unknown flag must exit 2 and print nothing to stdout (the
# workload never started). MODE=stray: so must a bare token that is not a
# flag (no binary takes positional arguments), and MODE=help_stray: so must
# one after --help ("--help junk"). MODE=help: --help must exit 0 and print
# only the usage text. MODE=reject: the space-separated ARGS, an
# out-of-range value, must exit 2 with nothing on stdout. MODE=self_check (the
# scoreboard gates): "--check OUT" with the default --out, and "--check X
# --out X", must exit 2 before measuring and leave the baseline untouched;
# both run in the scratch directory WORK.
if(MODE STREQUAL "bogus")
  set(args --bogus)
elseif(MODE STREQUAL "stray")
  set(args junk)
elseif(MODE STREQUAL "help_stray")
  set(args --help junk)
elseif(MODE STREQUAL "help")
  set(args --help)
elseif(MODE STREQUAL "reject")
  separate_arguments(args UNIX_COMMAND "${ARGS}")
elseif(MODE STREQUAL "self_check")
  file(REMOVE_RECURSE "${WORK}")
  file(MAKE_DIRECTORY "${WORK}")
  set(baseline "{\n  \"serve_jobs_per_sec\": 1,\n  \"serial_md_pps\": 1\n}\n")
  foreach(args "--check;${OUT}" "--check;base.json;--out;./base.json")
    list(GET args 1 file)
    file(WRITE "${WORK}/${file}" "${baseline}")
    execute_process(COMMAND "${BIN}" ${args}
                    WORKING_DIRECTORY "${WORK}"
                    RESULT_VARIABLE code
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err
                    TIMEOUT 30)
    file(READ "${WORK}/${file}" after)
    if(NOT code STREQUAL "2" OR NOT out STREQUAL "" OR
       NOT after STREQUAL baseline)
      message(FATAL_ERROR "${BIN} ${args}: exit ${code}, want 2 with empty "
                          "stdout and ${file} untouched\nstdout:\n${out}\n"
                          "stderr:\n${err}\n${file} now:\n${after}")
    endif()
  endforeach()
  file(REMOVE_RECURSE "${WORK}")
  return()
else()
  message(FATAL_ERROR "cli_contract: unknown MODE '${MODE}'")
endif()
if(MODE STREQUAL "help")
  set(want_code 0)
else()
  set(want_code 2)
endif()

execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 30)
if(NOT code STREQUAL "${want_code}")
  message(FATAL_ERROR "${BIN} ${args}: exit ${code}, want ${want_code}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT MODE STREQUAL "help" AND NOT out STREQUAL "")
  message(FATAL_ERROR "${BIN} ${args} wrote to stdout (the workload ran):\n"
                      "${out}")
endif()
if(MODE STREQUAL "help" AND NOT out MATCHES "^usage: [^\n]*\n(shared run flags: [^\n]*\n)?$")
  message(FATAL_ERROR "${BIN} ${args} printed more than the usage:\n${out}")
endif()
