# End-to-end CLI smoke test driver (run via cmake -P):
#   1. quickstart writes quickstart_sync.v (a clocked FF netlist)
#   2. desyn_cli reads it, desynchronizes, and writes cli_out.v
file(MAKE_DIRECTORY ${WORKDIR})

execute_process(COMMAND ${QUICKSTART}
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "quickstart failed with exit code ${rc}")
endif()
if(NOT EXISTS ${WORKDIR}/quickstart_sync.v)
  message(FATAL_ERROR "quickstart did not write quickstart_sync.v")
endif()

execute_process(COMMAND ${CLI} quickstart_sync.v clk cli_out.v
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "desyn_cli failed with exit code ${rc}")
endif()
if(NOT EXISTS ${WORKDIR}/cli_out.v)
  message(FATAL_ERROR "desyn_cli did not write cli_out.v")
endif()

# 3. the same design under a level-enable protocol
execute_process(COMMAND ${CLI} quickstart_sync.v clk cli_fully.v
    --protocol fully
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "desyn_cli --protocol fully failed with exit code ${rc}")
endif()
if(NOT EXISTS ${WORKDIR}/cli_fully.v)
  message(FATAL_ERROR "desyn_cli did not write cli_fully.v")
endif()

# 4. the protocol x circuit x margin sweep (compact smoke configuration);
#    nonzero exit means a combination failed flow equivalence.
execute_process(COMMAND ${CLI} sweep --margins 1.1 --rounds 15
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "desyn_cli sweep failed with exit code ${rc}")
endif()

# 5. the strategy axis, including the MCR-guided partition optimizer
#    (auto:B); two worker threads exercise the parallel path.
execute_process(COMMAND ${CLI} sweep --margins 1.1 --rounds 10
    --protocol semi --strategies perff,auto:1.05 --jobs 2
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "desyn_cli sweep --strategies failed with exit code ${rc}")
endif()

# 6. the analytic Monte-Carlo sweep: no simulation, and the JSON report is
#    byte-identical at any --jobs count.
execute_process(COMMAND ${CLI} sweep --margins 1.1 --protocol pulse
    --mc-samples 32 --mc-seed 3 --stable --json mc_serial.json
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "desyn_cli sweep --mc-samples failed with exit code ${rc}")
endif()
execute_process(COMMAND ${CLI} sweep --margins 1.1 --protocol pulse
    --mc-samples 32 --mc-seed 3 --stable --json mc_parallel.json
    --jobs 4
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "parallel MC sweep failed with exit code ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    ${WORKDIR}/mc_serial.json ${WORKDIR}/mc_parallel.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "MC sweep JSON differs across job counts")
endif()

# 7. the margin optimizer on the quickstart design (file-input path):
#    exits nonzero if the optimized design yields worse than the baseline.
execute_process(COMMAND ${CLI} optimize-margins quickstart_sync.v clk 1.3
    --mc-samples 32 --json margins.json --out cli_margins.v
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "desyn_cli optimize-margins failed with exit code ${rc}")
endif()
if(NOT EXISTS ${WORKDIR}/cli_margins.v)
  message(FATAL_ERROR "optimize-margins did not write cli_margins.v")
endif()
