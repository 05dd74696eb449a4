# ctest script for the fuzz_smoke test: generate seeds, then give each
# harness a short deterministic burst (corpus replay + 2000 mutated runs).
# Sanity for the wiring; the >=60s-per-harness soak lives in check.sh's fuzz
# lane.

file(MAKE_DIRECTORY ${WORK})
execute_process(COMMAND ${SEEDS} ${WORK}/corpus RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "make_seeds failed (${rc})")
endif()

foreach(pair "${WAL};wal" "${PAGE};page" "${INDEX};index")
  list(GET pair 0 bin)
  list(GET pair 1 sub)
  execute_process(
    COMMAND ${bin} -runs=2000 -seed=1 ${WORK}/corpus/${sub}
    WORKING_DIRECTORY ${WORK}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bin} failed (${rc})")
  endif()
endforeach()
