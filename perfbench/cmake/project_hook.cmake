# Included at the end of the repository's top-level project() call:
# perfbench/run.py configures the repository root with
#   -DCMAKE_PROJECT_ckat_INCLUDE=<repo>/perfbench/cmake/project_hook.cmake
# The repository is thus configured as the top-level project, exactly as
# its own build does it. The benchmark's targets are defined once the
# root CMakeLists.txt has been processed in full, so they inherit its
# flags, include paths and found packages.
# Deferred arguments are expanded when the call runs, hence the variable.
get_filename_component(CKAT_PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}/.." ABSOLUTE)
cmake_language(DEFER CALL include "${CKAT_PERFBENCH_DIR}/cmake/targets.cmake")
