# Runs a binary with `--trace WORK/<base>` and checks the files it leaves:
#
#   cmake -DBIN=<binary> -DARGS="..." -DWORK=<dir> -DEXPECT="a b"
#         -DREJECT="c" -P trace_names.cmake
#
# Every name in EXPECT must exist under WORK and none in REJECT may: one
# naming rule, PATH.json + PATH.csv, for every traced run.
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
separate_arguments(expect UNIX_COMMAND "${EXPECT}")
separate_arguments(reject UNIX_COMMAND "${REJECT}")
execute_process(COMMAND "${BIN}" ${args}
                WORKING_DIRECTORY "${WORK}"
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err
                TIMEOUT 120)
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "${BIN} ${args}: exit ${code}\n${err}")
endif()
file(GLOB written RELATIVE "${WORK}" "${WORK}/*")
foreach(name IN LISTS expect)
  if(NOT EXISTS "${WORK}/${name}")
    message(FATAL_ERROR "${BIN} ${args} did not write ${name} "
                        "(wrote: ${written})")
  endif()
endforeach()
foreach(name IN LISTS reject)
  if(EXISTS "${WORK}/${name}")
    message(FATAL_ERROR "${BIN} ${args} wrote ${name} (wrote: ${written})")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK}")
