"""Reference CPU seconds: op times that hold still on a shared host.

On the shared 2-vCPU VM this benchmark was tuned on, two things move the
wall time of the same code by a factor of two or more within minutes. The
hypervisor takes the virtual CPU away (steal time: wall time in which the
process does not run at all), and other tenants contend for the cores and
memory, so the code also runs slower while it does run. A run therefore
counts an op's CPU time, user and kernel, which excludes stolen time, and
scales each part by the machine's current speed at that kind of work,
measured by two fixed pieces of reference work timed in CPU time between
the timed steps, both independent of mrcompress and of the seed:

- ``cpu_work`` streams arrays larger than the cache through the kinds of
  numpy steps the codecs use (elementwise arithmetic, prefix sums, finite
  differences, rounding to integers, a histogram, a sort); it runs in user
  mode.
- ``fault_work`` touches every page of a fresh anonymous mapping once: the
  kernel time of faulting in and zeroing memory, a third of a codec op's
  CPU time here, which drifts on its own.

An op's reference CPU seconds are its user seconds times
``REF_CPU_S`` / (median ``cpu_work`` time in the run) plus its kernel
seconds times ``REF_FAULT_S`` / (median ``fault_work`` time): the CPU time
the op would take on the machine where the reference work takes
``REF_CPU_S`` and ``REF_FAULT_S``. A change to the program moves them as
much as it moves the CPU time; a change of the host's speed moves the
reference work as well and cancels. For a single-threaded op on an idle
machine they are its wall time; for an op that runs threads at once they
add the threads up. Reports print raw wall times next to them.
"""

import mmap
import resource
import statistics
from time import process_time

import numpy as np

# median times of the two pieces of work on the machine the bounds were set
# on (2-vCPU Intel Xeon VM, 2.0 GHz, numpy 2.4)
REF_CPU_S = 0.040
REF_FAULT_S = 0.019

_BASE = np.random.default_rng(0).standard_normal((96, 96, 96))
_FAULT_BYTES = 16 << 20


def cpu_work():
    x = _BASE * 1.0001 + 0.5
    c = np.cumsum(x, axis=0)
    d = np.diff(c, axis=2)
    q = np.rint(d * 64.0).astype(np.int64)
    np.bincount((q - q.min()).ravel())
    np.sort(x, axis=2)


def fault_work():
    m = mmap.mmap(-1, _FAULT_BYTES)
    np.frombuffer(m, dtype=np.uint8)[:: mmap.PAGESIZE] = 1
    m.close()


def cpu_times():
    """(user s, kernel s) of this process so far, all threads."""
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime, r.ru_stime


class Calibration:
    """Times of the reference work, taken between the timed steps of a run."""

    def __init__(self):
        cpu_work()  # first calls pay for lazy set-up, untimed
        fault_work()
        self.cpu = []
        self.fault = []

    def sample(self, n=1):
        for _ in range(n):
            for work, times in ((cpu_work, self.cpu), (fault_work, self.fault)):
                t0 = process_time()
                work()
                times.append(process_time() - t0)

    def speeds(self):
        """Factors from user and kernel CPU seconds to reference seconds."""
        return REF_CPU_S / statistics.median(self.cpu), REF_FAULT_S / statistics.median(self.fault)

    def seconds(self, user, system):
        """Reference CPU seconds of a step that spent ``user`` and
        ``system`` CPU seconds."""
        su, sk = self.speeds()
        return user * su + system * sk

    def summary(self):
        su, sk = self.speeds()
        return {"samples": len(self.cpu), "cpu_median_s": statistics.median(self.cpu),
                "fault_median_s": statistics.median(self.fault), "user_factor": su, "kernel_factor": sk}
