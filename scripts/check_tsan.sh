#!/usr/bin/env bash
# Run the thread-stress suites under ThreadSanitizer (the tsan CMake preset).
# tests/test_threading.cpp is the main workload: the parallel manager's
# racing engines (including the sibling cancellation of the two-slot DD
# run), the multi-threaded simulation worker pool (including
# oversubscription and mid-flight cancellation) and several concurrent
# managers at once.
# tests/test_task_pool.cpp drives the FIFO pool's queue/wait/wake
# handshakes, group isolation and exception containment directly.
# tests/test_fault_injection.cpp adds the degradation-ladder retry rounds,
# fault-poisoned task groups and simulation workers unwinding a stop from
# inside their DD kernels, all of which cross thread boundaries. tests/test_serve.cpp runs
# the veriqcd JobService: concurrent submitting clients, shutdown cancelling
# in-flight jobs, and racing shutdown() callers (the double-join regression).
# The EnqueueWakesASleepingWorker missed-wakeup regression runs here too, as
# do the manager's slot-layout tests of tests/test_check.cpp (LookaheadRaceTest:
# one alternating slot on private and injected pools), and the parallel
# manager's deadline-latency test of tests/test_cross_paradigm.cpp (three
# racing slots stopped by one shared token). Any TSan report fails
# the run.
#
# Usage: scripts/check_tsan.sh [ctest-regex]
#   ctest-regex: optional -R filter (default: all thread-stress suites)
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset tsan >/dev/null
cmake --build --preset tsan -j"$(nproc)" \
  --target test_threading test_task_pool test_fault_injection test_serve \
  test_check test_cross_paradigm >/dev/null

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

ctest --test-dir build-tsan --output-on-failure \
  -R "${1:-ThreadingStressTest|TaskPoolTest|FaultSweepTest|DegradationLadderTest|TaskPoolFaultTest|StopUnwindTest|JobServiceTest|LookaheadRaceTest|DeadlineLatencyTest.ParallelManagerStopsWithinTheBound}"
