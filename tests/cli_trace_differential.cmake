# CTest script: tracing must be a pure observer. The same faulted supervised
# run executed twice — once with every observability flag on, once with all
# of them off — must produce byte-identical taxonomy, serving snapshot and
# checkpoints, and the same holds for a streamed run's publish directory.
# Any trace-conditional branch that leaks into pipeline state (an iteration
# order change, an extra rounding, a skipped retry) fails the compare_files
# below.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR}/traced ${WORK_DIR}/plain)

execute_process(
  COMMAND ${CLI} generate --scale 0.05 --seed 23
          --world ${WORK_DIR}/w.tsv --corpus ${WORK_DIR}/c.tsv
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate failed (${rc}): ${out} ${err}")
endif()

# Faulted supervised run so the trace contains health.*/stage.outcome spans
# (the interesting, mutation-adjacent code paths). throw+nan faults only:
# stall faults wait out the stage deadline and would slow the suite down.
set(run_args
  run --world ${WORK_DIR}/w.tsv --corpus ${WORK_DIR}/c.tsv
  --fault-rate 0.3 --fault-seed 7 --fault-kinds throw,nan
  --stage-deadline-ms 5000 --health-report)

execute_process(
  COMMAND ${CLI} ${run_args}
          --out ${WORK_DIR}/traced/t.tsv --snapshot-out ${WORK_DIR}/traced/s.bin
          --checkpoint-dir ${WORK_DIR}/traced/ckpt
          --trace-out ${WORK_DIR}/traced/trace.jsonl
          --trace-chrome ${WORK_DIR}/traced/trace.json
          --metrics-out ${WORK_DIR}/traced/metrics.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "traced run failed (${rc}): ${out} ${err}")
endif()
foreach(artifact trace.jsonl trace.json metrics.json)
  if(NOT EXISTS ${WORK_DIR}/traced/${artifact})
    message(FATAL_ERROR "traced run did not write ${artifact}")
  endif()
  file(SIZE ${WORK_DIR}/traced/${artifact} artifact_size)
  if(artifact_size EQUAL 0)
    message(FATAL_ERROR "traced run wrote an empty ${artifact}")
  endif()
endforeach()
# Spot-check shape: JSONL spans and a loadable Chrome trace envelope.
file(STRINGS ${WORK_DIR}/traced/trace.jsonl first_span LIMIT_COUNT 1)
if(NOT first_span MATCHES "\"name\":")
  message(FATAL_ERROR "trace.jsonl first line is not a span: ${first_span}")
endif()
file(READ ${WORK_DIR}/traced/trace.json chrome LIMIT 32)
if(NOT chrome MATCHES "^\\{\"traceEvents\":\\[")
  message(FATAL_ERROR "trace.json is not a Chrome trace_event file: ${chrome}")
endif()

execute_process(
  COMMAND ${CLI} ${run_args}
          --out ${WORK_DIR}/plain/t.tsv --snapshot-out ${WORK_DIR}/plain/s.bin
          --checkpoint-dir ${WORK_DIR}/plain/ckpt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "plain run failed (${rc}): ${out} ${err}")
endif()

foreach(artifact t.tsv s.bin)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/traced/${artifact} ${WORK_DIR}/plain/${artifact}
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR "tracing changed ${artifact}: runs are not byte-identical")
  endif()
endforeach()

# Directory `dir` (checkpoints, publishes) must hold the same non-empty file
# set with the same bytes in the traced and the plain run.
function(expect_same_dir dir)
  file(GLOB traced_files RELATIVE ${WORK_DIR}/traced/${dir} ${WORK_DIR}/traced/${dir}/*)
  file(GLOB plain_files RELATIVE ${WORK_DIR}/plain/${dir} ${WORK_DIR}/plain/${dir}/*)
  list(SORT traced_files)
  list(SORT plain_files)
  if(NOT traced_files STREQUAL plain_files)
    message(FATAL_ERROR "tracing changed the ${dir} file set:\n"
            "traced: ${traced_files}\nplain: ${plain_files}")
  endif()
  if(traced_files STREQUAL "")
    message(FATAL_ERROR "no ${dir} files were written; the differential is vacuous")
  endif()
  foreach(name IN LISTS traced_files)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              ${WORK_DIR}/traced/${dir}/${name} ${WORK_DIR}/plain/${dir}/${name}
      RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
      message(FATAL_ERROR "tracing changed ${dir}/${name}")
    endif()
  endforeach()
endfunction()

# Checkpoints too: same file set, same bytes.
expect_same_dir(ckpt)

# `stream` takes the same trace flags: a traced run must record its epochs
# (the trace is not empty) and publish exactly what an untraced run does.
set(stream_args
  stream --world ${WORK_DIR}/w.tsv --corpus ${WORK_DIR}/c.tsv --epochs 2)
execute_process(
  COMMAND ${CLI} ${stream_args} --publish-dir ${WORK_DIR}/traced/pub
          --trace-out ${WORK_DIR}/traced/stream.jsonl
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "traced stream failed (${rc}): ${out} ${err}")
endif()
file(READ ${WORK_DIR}/traced/stream.jsonl stream_trace)
if(NOT stream_trace MATCHES "\"name\":\"stream\\.epoch\"")
  message(FATAL_ERROR "stream trace has no stream.epoch span: '${stream_trace}'")
endif()
execute_process(
  COMMAND ${CLI} ${stream_args} --publish-dir ${WORK_DIR}/plain/pub
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "plain stream failed (${rc}): ${out} ${err}")
endif()
expect_same_dir(pub)
