# Smoke contract: user errors exit cleanly. A retired or unknown flag
# (here --lp-backend=dual) exits with status 2 and a one-line stderr
# message naming the flag, never a SIGABRT; so does a path-valued flag
# given bare (--json, --metrics), which writes no file named `true`.
# --help prints the flag list and exits 0.
# Driven by ctest as
#   cmake -DBENCH=<bench binary> -DOUT_DIR=<scratch dir> -P <this>
execute_process(
  COMMAND ${BENCH} --lp-backend=dual
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--lp-backend=dual: expected exit 2, got '${rc}'")
endif()
string(FIND "${err}" "--lp-backend" named)
if(named EQUAL -1)
  message(FATAL_ERROR "--lp-backend=dual: stderr does not name the flag: ${err}")
endif()
string(STRIP "${err}" err_line)
string(FIND "${err_line}" "\n" newline)
if(NOT newline EQUAL -1)
  message(FATAL_ERROR "--lp-backend=dual: stderr is not one line: ${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "--lp-backend=dual: unexpected stdout: ${out}")
endif()

# Bare path flags, run from their own directory so a stray `true` file
# is seen.
set(bare_dir "${OUT_DIR}/smoke_clean_exit_bare")
file(REMOVE_RECURSE "${bare_dir}")
file(MAKE_DIRECTORY "${bare_dir}")
foreach(flag --json --metrics)
  execute_process(
    COMMAND ${BENCH} ${flag}
    WORKING_DIRECTORY "${bare_dir}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "bare ${flag}: expected exit 2, got '${rc}'")
  endif()
  string(FIND "${err}" "${flag}" named)
  if(named EQUAL -1)
    message(FATAL_ERROR "bare ${flag}: stderr does not name the flag: ${err}")
  endif()
  string(STRIP "${err}" err_line)
  string(FIND "${err_line}" "\n" newline)
  if(NOT newline EQUAL -1)
    message(FATAL_ERROR "bare ${flag}: stderr is not one line: ${err}")
  endif()
  if(EXISTS "${bare_dir}/true")
    message(FATAL_ERROR "bare ${flag}: wrote a file named 'true'")
  endif()
endforeach()

execute_process(
  COMMAND ${BENCH} --help
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--help: expected exit 0, got '${rc}': ${err}")
endif()
foreach(flag --threads --seed --json)
  string(FIND "${out}" "${flag}\n" listed)
  if(listed EQUAL -1)
    message(FATAL_ERROR "--help does not list ${flag}: ${out}")
  endif()
endforeach()
