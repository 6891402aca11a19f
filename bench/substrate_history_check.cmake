# History carry-forward check for substrate_perf under NA_BENCH_FAST.
#
#   cmake -DBIN=<substrate_perf> -DOUT=<scratch .json> \
#         -P substrate_history_check.cmake
#
# A fast run's numbers only validate the pipeline, so it must rewrite
# the snapshot without growing the history: from no prior file the
# history is an empty (and still parseable) array, and two runs over a
# two-row history leave exactly those two rows, unchanged.

function(history_rows out_len out_rows)
    file(READ "${OUT}" text)
    string(JSON len ERROR_VARIABLE err LENGTH "${text}" history)
    if(err)
        message(FATAL_ERROR "${OUT} does not parse: ${err}")
    endif()
    string(JSON rows GET "${text}" history)
    set(${out_len} ${len} PARENT_SCOPE)
    set(${out_rows} "${rows}" PARENT_SCOPE)
endfunction()

function(run_fast)
    execute_process(COMMAND "${BIN}" "${OUT}" RESULT_VARIABLE rc
                    OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "substrate_perf exited with ${rc}")
    endif()
endfunction()

file(REMOVE "${OUT}")
run_fast()
history_rows(len rows)
if(NOT len EQUAL 0)
    message(FATAL_ERROR "fresh fast run wrote ${len} history rows")
endif()

file(WRITE "${OUT}" "{\n  \"history\": [\n"
    "    {\"label\": \"a\", \"when\": 1, \"events_per_sec\": 1.0, "
    "\"churn_events_per_sec\": 2.0},\n"
    "    {\"label\": \"b\", \"when\": 2, \"events_per_sec\": 3.0, "
    "\"churn_events_per_sec\": 4.0}\n  ]\n}\n")
history_rows(seed_len seed_rows)
foreach(pass 1 2)
    run_fast()
    history_rows(len rows)
    if(NOT len EQUAL seed_len OR NOT rows STREQUAL seed_rows)
        message(FATAL_ERROR "fast run ${pass} changed the history: "
                            "${seed_len} -> ${len} rows")
    endif()
endforeach()
file(REMOVE "${OUT}")
