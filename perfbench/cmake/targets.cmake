# The benchmark's targets, defined in the repository's top-level
# directory after its CMakeLists.txt (see project_hook.cmake). The
# libraries are compiled as the repository's own build defines them
# (flags, OpenMP link, build type, include paths); only the targets the
# benchmark links are built.
set(_pb "${CKAT_PERFBENCH_DIR}")

add_library(perfbench_core STATIC EXCLUDE_FROM_ALL
  ${_pb}/src/common.cpp ${_pb}/src/spans.cpp ${_pb}/src/loadgen.cpp)
target_include_directories(perfbench_core PUBLIC ${_pb}/src)
target_link_libraries(perfbench_core PUBLIC ckat_serve ckat_facility ckat_baselines)

add_executable(perfbench EXCLUDE_FROM_ALL
  ${_pb}/src/main.cpp ${_pb}/src/train.cpp ${_pb}/src/serve.cpp ${_pb}/src/layers.cpp)
target_link_libraries(perfbench PRIVATE perfbench_core)
# Recorded in every result: the build type and the flags the repository's
# top-level CMakeLists.txt sets for it.
target_compile_definitions(perfbench PRIVATE
  PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE} ${CMAKE_CXX_FLAGS_RELEASE}")

# Unit tests of the benchmark's own statistics (percentiles, tail
# choice, knee, generator lag, backlog growth).
add_executable(perfbench_tests EXCLUDE_FROM_ALL ${_pb}/tests/stats_test.cpp)
target_include_directories(perfbench_tests PRIVATE ${_pb}/src)
target_link_libraries(perfbench_tests PRIVATE GTest::gtest_main)

set_target_properties(perfbench perfbench_tests PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY "${CMAKE_BINARY_DIR}/perfbench")
