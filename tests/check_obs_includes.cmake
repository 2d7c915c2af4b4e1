# Fails when a file under src/obs/ includes a header other than an obs/
# header or a standard one. The observability layer is the leaf every other
# layer instruments itself with, so it may depend on nothing of theirs.
# Invoked by the obs_includes_stay_in_obs CTest as
#   cmake -DOBS_DIR=<path to src/obs> -P check_obs_includes.cmake
if(NOT DEFINED OBS_DIR)
  message(FATAL_ERROR "check_obs_includes.cmake: missing -DOBS_DIR=...")
endif()

file(GLOB_RECURSE sources "${OBS_DIR}/*.h" "${OBS_DIR}/*.cpp")
if(NOT sources)
  message(FATAL_ERROR "no .h/.cpp files under ${OBS_DIR}")
endif()

# Quoted includes must name an obs/ header; bracketed ones a standard header,
# whose names carry no directory.
set(include_re "^[ \t]*#[ \t]*include[ \t]*([\"<])([^\">]*)[\">]")
set(offenders "")
foreach(src IN LISTS sources)
  file(STRINGS "${src}" lines REGEX "${include_re}")
  foreach(line IN LISTS lines)
    string(REGEX MATCH "${include_re}" _ "${line}")
    set(header "${CMAKE_MATCH_2}")
    if(CMAKE_MATCH_1 STREQUAL "\"")
      set(ok_re "^obs/")
    else()
      set(ok_re "^[^/]+$")
    endif()
    if(NOT header MATCHES "${ok_re}")
      file(RELATIVE_PATH rel "${OBS_DIR}" "${src}")
      list(APPEND offenders "${rel}: ${header}")
    endif()
  endforeach()
endforeach()

if(offenders)
  list(JOIN offenders "\n  " listing)
  message(FATAL_ERROR "src/obs includes headers outside obs/ and the standard "
                      "library:\n  ${listing}")
endif()
list(LENGTH sources count)
message(STATUS "src/obs: ${count} files include only obs/ and standard headers")
