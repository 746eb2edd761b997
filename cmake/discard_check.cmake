# Configure-time check that the compiler rejects a discarded I/O outcome:
# one probe that drops the results of Backend::write_v (on a final
# backend), EventSet::num_errors and Request::test must fail to compile
# with APIO_WARNING_FLAGS, naming all three, and the same probe with each
# discard cast to void must compile.  GCC 12 does not diagnose a
# [[nodiscard]] call through a virtual dispatch (`backend_ptr->write_v`);
# apio_lint's discard-reason rule rejects that statement instead.
set(probe_dir ${PROJECT_BINARY_DIR}/discard_check)
set(probe_head [=[
#include "storage/memory_backend.h"
#include "vol/event_set.h"
#include "vol/request.h"
void probe(apio::storage::MemoryBackend& backend, apio::vol::EventSet& events,
           apio::vol::Request& request) {
]=])
file(WRITE ${probe_dir}/discard.cpp "${probe_head}
  backend.write_v({});
  events.num_errors();
  request.test();
}
")
file(WRITE ${probe_dir}/void_cast.cpp "${probe_head}
  (void)backend.write_v({});
  (void)events.num_errors();
  (void)request.test();
}
")
set(CMAKE_TRY_COMPILE_TARGET_TYPE STATIC_LIBRARY)
foreach(probe discard void_cast)
  try_compile(${probe}_compiles ${probe_dir}/${probe}
    SOURCES ${probe_dir}/${probe}.cpp
    CMAKE_FLAGS "-DINCLUDE_DIRECTORIES=${PROJECT_SOURCE_DIR}/src"
    COMPILE_DEFINITIONS ${APIO_WARNING_FLAGS}
    CXX_STANDARD 20
    OUTPUT_VARIABLE ${probe}_output)
endforeach()
unset(CMAKE_TRY_COMPILE_TARGET_TYPE)
if(NOT void_cast_compiles)
  message(FATAL_ERROR "discard check: the void-cast probe does not compile:\n"
                      "${void_cast_output}")
endif()
foreach(api "MemoryBackend::write_v" "EventSet::num_errors" "Request::test")
  if(discard_compiles OR
     NOT discard_output MATCHES "ignoring return value of [^\n]*${api}")
    message(FATAL_ERROR "discard check: dropping the result of ${api} "
                        "is not a compile error")
  endif()
endforeach()
