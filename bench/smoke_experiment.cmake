# Smoke-runs one rdt-bench experiment with --json, then validates the report
# with rdt-stats bench. The rdt_bench_<name> ctests invoke it as
#   cmake -DBENCH=<rdt-bench> -DSTATS=<rdt-stats> -DEXPERIMENT=<name>
#         -DREPORT=<path> -P smoke_experiment.cmake
execute_process(COMMAND ${BENCH} ${EXPERIMENT} --json ${REPORT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rdt-bench ${EXPERIMENT} failed: ${rc}")
endif()
execute_process(COMMAND ${STATS} bench ${REPORT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rdt-stats bench rejected the ${EXPERIMENT} report: ${rc}")
endif()
