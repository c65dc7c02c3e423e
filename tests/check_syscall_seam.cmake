# Fails if a data syscall in src/ bypasses the fault-injection seam.
#
# Every pread/pwrite/fsync/recv/send/connect/poll must go through
# common/sys_io.cc, so that fault tests can reach it and the storage
# retry loops cover it. Usage:
#   cmake -DSRC_DIR=<repo>/src -P tests/check_syscall_seam.cmake

if(NOT SRC_DIR)
  message(FATAL_ERROR "usage: cmake -DSRC_DIR=<repo>/src -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(seam "common/sys_io.cc")
# A qualified (::fsync) or bare (fsync) call; members such as h->fsync(
# and names such as SockPoll( do not match.
set(call "(^|[^A-Za-z0-9_.>])(::)?(pread|pwrite|fsync|recv|send|connect|poll)\\(")

file(GLOB_RECURSE sources RELATIVE "${SRC_DIR}" "${SRC_DIR}/*.h"
     "${SRC_DIR}/*.cc")
list(SORT sources)
set(bypasses 0)
foreach(rel IN LISTS sources)
  if(rel STREQUAL seam)
    continue()
  endif()
  file(READ "${SRC_DIR}/${rel}" text)
  # One list element per line: characters that CMake treats as list
  # syntax are blanked first (none of them can be part of a match).
  string(REGEX REPLACE "[][;\\\\]" " " text "${text}")
  string(REPLACE "\n" ";" lines "${text}")
  set(lineno 0)
  foreach(line IN LISTS lines)
    math(EXPR lineno "${lineno} + 1")
    if(line MATCHES "${call}")
      message(SEND_ERROR "${rel}:${lineno}: raw syscall outside ${seam}:"
                         "${line}")
      math(EXPR bypasses "${bypasses} + 1")
    endif()
  endforeach()
endforeach()

if(bypasses GREATER 0)
  message(FATAL_ERROR "${bypasses} syscall(s) bypass ${seam}")
endif()
list(LENGTH sources n)
message(STATUS "syscall seam: ${n} files checked, no bypass")
