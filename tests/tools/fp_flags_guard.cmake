# Guard for the bitwise force contract (DESIGN.md "Performance
# architecture"): fails when a CMakeLists.txt or *.cmake file under ROOT adds
# a compiler flag that may change floating-point results or the target ISA.
# Comments are ignored. Each finding is printed as file:line: flag.
#
#   cmake -DROOT=<dir> [-DEXPECT=<n>] -P fp_flags_guard.cmake
#
# EXPECT (default 0) is the number of findings the tree must have; the
# seeded fixture under fixtures/fp_flags is checked with its own count.
if(NOT DEFINED ROOT OR NOT IS_DIRECTORY "${ROOT}")
  message(FATAL_ERROR "fp-flags: pass -DROOT=<directory> (got '${ROOT}')")
endif()
if(NOT DEFINED EXPECT)
  set(EXPECT 0)
endif()

set(forbidden -ffast-math -Ofast -ffp-contract=fast -funsafe-math-optimizations
              -fassociative-math -march= -mavx -mfma)
file(GLOB_RECURSE files "${ROOT}/CMakeLists.txt" "${ROOT}/*.cmake")
set(found 0)
foreach(file IN LISTS files)
  file(STRINGS "${file}" lines)
  set(number 0)
  foreach(line IN LISTS lines)
    math(EXPR number "${number} + 1")
    string(REGEX REPLACE "#.*$" "" code "${line}")
    foreach(flag IN LISTS forbidden)
      string(FIND "${code}" "${flag}" at)
      if(NOT at EQUAL -1)
        message("fp-flags: ${file}:${number}: ${flag}")
        math(EXPR found "${found} + 1")
      endif()
    endforeach()
  endforeach()
endforeach()

if(NOT found EQUAL EXPECT)
  message(FATAL_ERROR "fp-flags: ${found} value-changing floating-point "
                      "flag(s) under ${ROOT}, expected ${EXPECT}")
endif()
message("fp-flags: OK (${found} finding(s) under ${ROOT}, as expected)")
