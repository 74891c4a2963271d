# ctest helper: runs BIN --help and checks that it exits 0 and that its usage
# paragraph (the "usage:" line and its continuation lines) names exactly the
# flags in FLAGS, a comma-separated list of flag names.
#
#   cmake -DBIN=<binary> -DFLAGS=--txns,--seed -P check_help.cmake
execute_process(COMMAND "${BIN}" --help RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} --help exited ${rc}: ${err}")
endif()
string(FIND "${out}" "\n\n" end)
string(SUBSTRING "${out}" 0 ${end} usage)
if(NOT usage MATCHES "^usage: ")
  message(FATAL_ERROR "${BIN} --help printed no usage line:\n${out}")
endif()
string(REGEX MATCHALL "\\[--[a-z0-9-]+" named "${usage}")
string(REPLACE "[" "" named "${named}")
string(REPLACE "," ";" want "${FLAGS}")
list(SORT named)
list(SORT want)
if(NOT named STREQUAL want)
  message(FATAL_ERROR "${BIN}: the usage line names '${named}', want "
                      "'${want}':\n${usage}")
endif()
