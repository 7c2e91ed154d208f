# CTest script: exercises the semdrift CLI end to end.
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(
  COMMAND ${CLI} generate --scale 0.05 --seed 7
          --world ${WORK_DIR}/w.tsv --corpus ${WORK_DIR}/c.tsv
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate failed (${rc}): ${out} ${err}")
endif()
execute_process(
  COMMAND ${CLI} run --world ${WORK_DIR}/w.tsv --corpus ${WORK_DIR}/c.tsv
          --out ${WORK_DIR}/t.tsv
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run failed (${rc}): ${out} ${err}")
endif()
if(NOT out MATCHES "cleaned:")
  message(FATAL_ERROR "run output missing cleaning summary: ${out}")
endif()
file(READ ${WORK_DIR}/t.tsv taxonomy LIMIT 200)
if(NOT taxonomy MATCHES "concept\tinstance")
  message(FATAL_ERROR "taxonomy header missing")
endif()
execute_process(
  COMMAND ${CLI} parse --world ${WORK_DIR}/w.tsv
  INPUT_FILE /dev/null
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "parse failed (${rc})")
endif()
# Supervised run with seeded compute faults: must complete, print a health
# table, and still export a taxonomy.
execute_process(
  COMMAND ${CLI} run --world ${WORK_DIR}/w.tsv --corpus ${WORK_DIR}/c.tsv
          --out ${WORK_DIR}/ts.tsv --supervise --health-report
          --fault-rate 0.1 --fault-seed 7 --fault-kinds throw
          --max-retries 1 --stage-deadline-ms 5000
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "supervised run failed (${rc}): ${out} ${err}")
endif()
if(NOT out MATCHES "health:")
  message(FATAL_ERROR "supervised run output missing health summary: ${out}")
endif()
# Bad --quarantine value is a usage error, not a crash or a silent default.
execute_process(
  COMMAND ${CLI} run --world ${WORK_DIR}/w.tsv --corpus ${WORK_DIR}/c.tsv
          --supervise --quarantine maybe
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "bad --quarantine value should exit 2, got ${rc}")
endif()
# Integer flags are bounded by the option they feed: an epoch count past
# the int range is a usage error.
execute_process(
  COMMAND ${CLI} stream --world ${WORK_DIR}/w.tsv --corpus ${WORK_DIR}/c.tsv
          --epochs 4294967297
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "stream --epochs 4294967297 should exit 2, got ${rc}: ${out}")
endif()
