# CTest script: run --snapshot-out -> snapshot-verify -> serve -> scripted
# queries -> expected-answers diff. The expected answers come from `semdrift
# query` one-shots over the same snapshot, so the serve path (ShardRouter +
# line protocol on stdin/stdout) must agree byte for byte with direct engine
# answers — including top-k-by-score ordering — at one shard, at four
# shards, under admission control and over a publish directory.
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(
  COMMAND ${CLI} generate --scale 0.05 --seed 11
          --world ${WORK_DIR}/w.tsv --corpus ${WORK_DIR}/c.tsv
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate failed (${rc}): ${out} ${err}")
endif()

execute_process(
  COMMAND ${CLI} run --world ${WORK_DIR}/w.tsv --corpus ${WORK_DIR}/c.tsv
          --out ${WORK_DIR}/t.tsv --snapshot-out ${WORK_DIR}/s.bin
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run failed (${rc}): ${out} ${err}")
endif()
# Satellite contract: a successful run names the artifacts it wrote.
if(NOT out MATCHES "taxonomy -> ")
  message(FATAL_ERROR "run output missing taxonomy path: ${out}")
endif()
if(NOT out MATCHES "snapshot -> ")
  message(FATAL_ERROR "run output missing snapshot path: ${out}")
endif()

execute_process(
  COMMAND ${CLI} snapshot-verify ${WORK_DIR}/s.bin
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "snapshot-verify failed on a fresh snapshot (${rc}): ${err}")
endif()

# Damaged files must fail verification with a non-zero exit (deep seeded
# corruption is covered by serve_snapshot_test; this guards the CLI exit
# code contract).
file(WRITE ${WORK_DIR}/not-a-snapshot.bin "this is not a snapshot\n")
execute_process(
  COMMAND ${CLI} snapshot-verify ${WORK_DIR}/not-a-snapshot.bin
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "snapshot-verify accepted garbage")
endif()

# Pull a real live (concept, instance) pair from the exported taxonomy so
# the session exercises OK answers, not just misses.
file(STRINGS ${WORK_DIR}/t.tsv taxonomy_lines LIMIT_COUNT 2)
list(GET taxonomy_lines 1 first_pair)
string(REPLACE "\t" ";" first_pair_fields "${first_pair}")
list(GET first_pair_fields 0 concept_name)
list(GET first_pair_fields 1 instance_name)

set(queries
  "instances-of\t${concept_name}\t5"
  "instances-of\t${concept_name}"
  "concepts-of\t${instance_name}"
  "is-a\t${instance_name}\t${concept_name}"
  "drift-score\t${instance_name}\t${concept_name}"
  "mutex\t${concept_name}\tasian country"
  "drift-score\tno such instance\t${concept_name}"
  "instances-of\tno such concept"
)

# Tab-form mutex lines over consecutive pairs of six distinct taxonomy
# concepts. At --shards 4 at least one pair has its two concepts on
# different shards (the metrics check below proves it), so both of its legs
# go through the shard batchers and complete on pool threads.
file(STRINGS ${WORK_DIR}/t.tsv taxonomy_rows)
set(concepts "")
foreach(row IN LISTS taxonomy_rows)
  string(REGEX REPLACE "\t.*" "" row_concept "${row}")
  list(FIND concepts "${row_concept}" seen)
  if(seen EQUAL -1 AND NOT row_concept STREQUAL "concept")
    list(APPEND concepts "${row_concept}")
  endif()
  list(LENGTH concepts num_concepts)
  if(num_concepts EQUAL 6)
    break()
  endif()
endforeach()
if(NOT num_concepts EQUAL 6)
  message(FATAL_ERROR "taxonomy has fewer than 6 concepts: ${concepts}")
endif()
foreach(i RANGE 4)
  math(EXPR j "${i} + 1")
  list(GET concepts ${i} first_concept)
  list(GET concepts ${j} second_concept)
  list(APPEND queries "mutex\t${first_concept}\t${second_concept}")
endforeach()
set(script "")
set(expected "")
foreach(q IN LISTS queries)
  string(APPEND script "${q}\n")
  string(REPLACE "\t" ";" argv "${q}")
  execute_process(
    COMMAND ${CLI} query --snapshot ${WORK_DIR}/s.bin ${argv}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  # Non-zero exits are expected for the NOT_FOUND probes; the printed answer
  # is still the contract being diffed.
  string(APPEND expected "${out}")
endforeach()
string(APPEND script "stats\nmetrics\nquit\n")
file(WRITE ${WORK_DIR}/queries.txt "${script}")

# Runs the scripted session through `serve ${ARGN}`. The session ends with
# the stats and metrics responses; everything before them must equal the
# one-shot answers byte for byte and in order. Returns those two closing
# lines in `tail_var`.
function(serve_session tail_var)
  execute_process(
    COMMAND ${CLI} serve ${ARGN}
    INPUT_FILE ${WORK_DIR}/queries.txt
    OUTPUT_VARIABLE served
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "serve ${ARGN} failed (${rc}): ${err}")
  endif()
  string(FIND "${served}" "OK\tstats" stats_at)
  if(stats_at EQUAL -1)
    message(FATAL_ERROR "serve ${ARGN} session missing stats response: ${served}")
  endif()
  string(SUBSTRING "${served}" 0 ${stats_at} served_answers)
  if(NOT served_answers STREQUAL expected)
    message(FATAL_ERROR "serve ${ARGN} answers differ from one-shot answers.\n"
            "served:\n${served_answers}\nexpected:\n${expected}")
  endif()
  string(SUBSTRING "${served}" ${stats_at} -1 served_tail)
  set(${tail_var} "${served_tail}" PARENT_SCOPE)
endfunction()

serve_session(served_tail --snapshot ${WORK_DIR}/s.bin)
if(NOT served_tail MATCHES "\tshards=1\n")
  message(FATAL_ERROR "stats line does not end in shards=1: ${served_tail}")
endif()

# Four shards, then four shards under admission control (every routed
# request queued on a shard batcher): the same answers in the same order,
# a stats line ending in shards=4, and at least one split mutex whose two
# legs agreed.
foreach(extra "" "--deadline-budget-ms;1000")
  serve_session(served_tail --snapshot ${WORK_DIR}/s.bin --shards 4 ${extra})
  if(NOT served_tail MATCHES "\tshards=4\n")
    message(FATAL_ERROR "stats line does not end in shards=4 (${extra}): ${served_tail}")
  endif()
  if(NOT served_tail MATCHES "\"net\\.router\\.fanout\":([0-9]+)")
    message(FATAL_ERROR "metrics missing net.router.fanout (${extra}): ${served_tail}")
  endif()
  if(CMAKE_MATCH_1 LESS 1)
    message(FATAL_ERROR "no mutex line spanned two shards (${extra}): ${served_tail}")
  endif()
  if(NOT served_tail MATCHES "\"net\\.router\\.fanout_mismatch\":0[,}]")
    message(FATAL_ERROR "split mutex legs disagreed (${extra}): ${served_tail}")
  endif()
endforeach()

# The first query must actually have answered with instances.
string(REPLACE "\t" ";" first_fields "${expected}")
list(GET first_fields 0 first_status)
if(NOT first_status STREQUAL "OK")
  message(FATAL_ERROR "instances-of on a live concept did not answer OK: ${expected}")
endif()

# The query one-shot must exit with the documented NOT_FOUND code (3) on a
# miss, distinct from ERR (1) — the scriptability contract.
execute_process(
  COMMAND ${CLI} query --snapshot ${WORK_DIR}/s.bin instances-of "no such concept"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "query exit code for NOT_FOUND should be 3, got ${rc}")
endif()
execute_process(
  COMMAND ${CLI} query --snapshot ${WORK_DIR}/s.bin no-such-verb x
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "query exit code for ERR should be 1, got ${rc}")
endif()

# Delta publishing: re-running the same pipeline against the existing
# snapshot as base yields an (empty) delta materializing generation 2, and
# snapshot-verify walks the base + delta chain.
execute_process(
  COMMAND ${CLI} run --world ${WORK_DIR}/w.tsv --corpus ${WORK_DIR}/c.tsv
          --out ${WORK_DIR}/t2.tsv
          --snapshot-delta-out ${WORK_DIR}/d.bin
          --snapshot-delta-base ${WORK_DIR}/s.bin
          --snapshot-delta-base-gen 1
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run --snapshot-delta-out failed (${rc}): ${out} ${err}")
endif()
if(NOT out MATCHES "snapshot delta -> ")
  message(FATAL_ERROR "run output missing delta path: ${out}")
endif()

execute_process(
  COMMAND ${CLI} snapshot-verify ${WORK_DIR}/s.bin ${WORK_DIR}/d.bin
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "snapshot-verify chain failed (${rc}): ${out} ${err}")
endif()
if(NOT out MATCHES "chain verified through generation 2")
  message(FATAL_ERROR "chain verification did not reach generation 2: ${out}")
endif()

# A truncated delta must fail chain verification.
file(READ ${WORK_DIR}/d.bin delta_content)
string(LENGTH "${delta_content}" delta_len)
math(EXPR half_len "${delta_len} / 2")
string(SUBSTRING "${delta_content}" 0 ${half_len} torn_delta)
file(WRITE ${WORK_DIR}/d-torn.bin "${torn_delta}")
execute_process(
  COMMAND ${CLI} snapshot-verify ${WORK_DIR}/s.bin ${WORK_DIR}/d-torn.bin
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "snapshot-verify accepted a torn delta")
endif()

# Hot-swap serving smoke: the same scripted session against a publish
# directory (generation 1 = the snapshot) must answer byte-identically to
# single-snapshot mode before the stats line.
file(MAKE_DIRECTORY ${WORK_DIR}/publish)
file(COPY ${WORK_DIR}/s.bin DESTINATION ${WORK_DIR}/publish)
file(RENAME ${WORK_DIR}/publish/s.bin ${WORK_DIR}/publish/snap-1.bin)
serve_session(hotswap_stats --publish-dir ${WORK_DIR}/publish)
# The hot-swap stats line reports the serving generation.
if(NOT hotswap_stats MATCHES "generation=1")
  message(FATAL_ERROR "hot-swap stats missing generation: ${hotswap_stats}")
endif()

# Usage errors exit 2: an integer flag out of the range of the option it
# feeds, two snapshot sources, and --mmap without --snapshot. stdin is an
# empty file, so a regression that starts serving still ends at once.
file(WRITE ${WORK_DIR}/empty.txt "")
foreach(bad
    "--snapshot;${WORK_DIR}/s.bin;--shards;4294967296"
    "--snapshot;${WORK_DIR}/s.bin;--publish-dir;${WORK_DIR}/publish"
    "--publish-dir;${WORK_DIR}/publish;--mmap")
  execute_process(
    COMMAND ${CLI} serve ${bad}
    INPUT_FILE ${WORK_DIR}/empty.txt
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "serve ${bad} should exit 2, got ${rc}: ${out} ${err}")
  endif()
endforeach()
execute_process(
  COMMAND ${CLI} query --snapshot ${WORK_DIR}/s.bin
          --connect unix:${WORK_DIR}/none.sock stats
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "query with --snapshot and --connect should exit 2, got ${rc}")
endif()
# The usage printed on exit 2 comes from the command table, so it lists
# every flag query takes.
execute_process(
  COMMAND ${CLI} query --snapshot ${WORK_DIR}/s.bin --bogus stats
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "--connect" OR NOT err MATCHES "--mmap")
  message(FATAL_ERROR "query --bogus should exit 2 with a usage naming "
          "--connect and --mmap, got ${rc}: ${err}")
endif()
# snapshot-verify takes the global --threads like every subcommand, and
# refuses any other flag instead of opening it as a file.
execute_process(
  COMMAND ${CLI} snapshot-verify ${WORK_DIR}/s.bin --threads 2
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "snapshot-verify --threads 2 failed (${rc}): ${err}")
endif()
execute_process(
  COMMAND ${CLI} snapshot-verify ${WORK_DIR}/s.bin --bogus
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "snapshot-verify --bogus should exit 2, got ${rc}")
endif()
