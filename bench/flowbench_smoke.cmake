# Smoke run of one flowbench workload with the per-stage replay:
#   cmake -DFLOWBENCH=<binary> -DWORKLOAD=<name> -DWORKDIR=<dir> -P flowbench_smoke.cmake
# Fails on a non-zero exit, on any replay check that did not reproduce its
# checkpoint ("ok":false), or when no check ran at all.
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(
  COMMAND "${FLOWBENCH}" --workload ${WORKLOAD} --seed 1 --seconds 0 --threads 2
          --smoke --trace
  WORKING_DIRECTORY "${WORKDIR}"
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "flowbench ${WORKLOAD} exited with ${rc}:\n${out}")
endif()
string(REGEX MATCHALL "[^\n]*\"ok\":false[^\n]*" failed "${out}")
if(failed)
  string(REPLACE ";" "\n" failed "${failed}")
  message(FATAL_ERROR "flowbench ${WORKLOAD}: replay checks failed:\n${failed}")
endif()
string(REGEX MATCHALL "\"ok\":true" passed "${out}")
list(LENGTH passed checks)
if(checks EQUAL 0)
  message(FATAL_ERROR "flowbench ${WORKLOAD}: no replay check ran:\n${out}")
endif()
message(STATUS "flowbench ${WORKLOAD}: ${checks} replay checks reproduced")
